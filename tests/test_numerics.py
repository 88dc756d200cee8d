import numpy as np

from panfuse.numerics import argmax_channels


def test_argmax_single_channel():
    t = np.zeros((3, 3, 1))
    assert np.array_equal(argmax_channels(t), np.zeros((3, 3), dtype=np.int32))


def test_argmax_tie_breaks_low():
    t = np.array([[[0.2, 0.9, 0.9]]])
    assert argmax_channels(t)[0, 0] == 1


def test_argmax_strict_max():
    t = np.array([[[-1.0, 5.0, 3.0]]])
    assert argmax_channels(t)[0, 0] == 1
