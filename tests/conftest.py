from hypothesis import settings

# Property tests replay the same small set of examples on every run.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("tier1")
