import numpy as np

from panfuse.numerics import argmax_channels, softmax_channels


def test_softmax_uniform_on_equal_logits():
    t = np.full((2, 3, 4), 1.7)
    out = softmax_channels(t)
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_hand_case():
    t = np.array([[[0.0, np.log(3.0)]]])
    out = softmax_channels(t)
    assert np.allclose(out[0, 0], [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariant():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 5, 6))
    assert np.abs(softmax_channels(t) - softmax_channels(t + 7.3)).max() <= 1e-12


def test_softmax_rows_normalized_and_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = rng.normal(scale=10, size=(6, 7, 5))
        out = softmax_channels(t)
        assert out.min() > 0.0 and out.max() < 1.0
        assert np.abs(out.sum(axis=2) - 1.0).max() <= 1e-12


def test_argmax_single_channel():
    t = np.zeros((3, 3, 1))
    assert np.array_equal(argmax_channels(t), np.zeros((3, 3), dtype=np.int32))


def test_argmax_tie_breaks_low():
    t = np.array([[[0.2, 0.9, 0.9]]])
    assert argmax_channels(t)[0, 0] == 1


def test_argmax_strict_max():
    t = np.array([[[-1.0, 5.0, 3.0]]])
    assert argmax_channels(t)[0, 0] == 1


def test_argmax_commutes_with_softmax():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.normal(size=(5, 4, 6))
        assert np.array_equal(argmax_channels(softmax_channels(t)), argmax_channels(t))


def test_float32_mode_preserved():
    # 32-bit inputs stay 32-bit through the substrate (bench parity mode).
    rng = np.random.default_rng(4)
    t = rng.normal(size=(3, 3, 4)).astype(np.float32)
    assert softmax_channels(t).dtype == np.float32
