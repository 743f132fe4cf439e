"""Oracles shared by several test modules."""

import numpy as np


def full_grid(half):
    """Mirror bins 0..F/2 of an even spectrum (the last axis) onto the whole grid j = 0..F-1."""
    half = np.asarray(half)
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)
