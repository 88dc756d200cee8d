import re

import numpy as np
import pytest

from panfuse.errors import CueError, GenerationError, NumericError
from panfuse.inference import MergerParams
from panfuse.numerics import argmax_channels, channel_max, channel_sum, pixel_sum
from panfuse.scene import SynthConfig
from panfuse.train import TrainConfig


def test_argmax_single_channel():
    t = np.zeros((3, 3, 1))
    assert np.array_equal(argmax_channels(t), np.zeros((3, 3), dtype=np.int32))


def test_argmax_tie_breaks_low():
    t = np.array([[[0.2, 0.9, 0.9]]])
    assert argmax_channels(t)[0, 0] == 1


def test_argmax_strict_max():
    t = np.array([[[-1.0, 5.0, 3.0]]])
    assert argmax_channels(t)[0, 0] == 1


# Both sides of each branch of numpy's pairwise summation: the chain below
# 8 terms, the 8 accumulators up to 128, and the split above.
CHANNEL_COUNTS = [*range(1, 20), 24, 27, 31, 32, 63, 64, 127, 128, 129, 200, 256, 300]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 7, 64, 1024, 4096, 16384])
def test_channel_reductions_match_numpy_bytes(dtype, n):
    rng = np.random.default_rng(n)
    # Columns of mixed magnitude, so a different summation order shows.
    wide = rng.standard_normal((n, max(CHANNEL_COUNTS)))
    wide *= rng.uniform(0.1, 100.0, size=wide.shape[1])
    for k in CHANNEL_COUNTS:
        x = np.ascontiguousarray(wide[:, :k], dtype=dtype)
        got_max, got_sum = channel_max(x), channel_sum(x)
        want_max, want_sum = x.max(axis=1), x.reshape(n, 1, k).sum(axis=2).reshape(n)
        assert got_max.dtype == got_sum.dtype == dtype, k
        assert np.array_equal(got_max.view(np.uint8), want_max.view(np.uint8)), k
        assert np.array_equal(got_sum.view(np.uint8), want_sum.view(np.uint8)), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024, 4096, 16384])
def test_pixel_sum_matches_numpy_bytes(dtype, n):
    rng = np.random.default_rng(n)
    for c in (1, 2, 3, 8, 15, 16, 17, 32, 64):
        # Rows of mixed magnitude; one column of negative zeros, as a dead
        # rectifier leaves in a bias gradient.
        x = (rng.standard_normal((n, c)) * rng.uniform(0.01, 100.0, size=(n, 1))).astype(dtype)
        x[:, 0] = -0.0
        got, want = pixel_sum(x), x.sum(axis=0)
        assert got.dtype == dtype, c
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), c


def test_channel_and_pixel_reductions_leave_input_alone():
    x = np.arange(12.0).reshape(3, 4)
    before = x.copy()
    channel_max(x), channel_sum(x), pixel_sum(x)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("config, error, shown", [
    (TrainConfig(steps=10**5000), NumericError, "steps must be >= 1, got 10000000000000000"),
    (SynthConfig(n_instances=10**5000), GenerationError,
     "n_instances must be >= 0, got 10000000000000000"),
    (MergerParams(stuff_area_threshold=-10**5000), CueError,
     "stuff_area_threshold must be >= 0, got -1000000000000000"),
], ids=["TrainConfig", "SynthConfig", "MergerParams"])
def test_config_refuses_int_past_the_string_limit(config, error, shown):
    # More digits than str() converts: the config's own error, with the digit count.
    message = f"{shown}... (5001 digits), which exceeds the float range (1.798e+308)"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        config.validate()
