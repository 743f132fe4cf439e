"""L1 distance between PSD estimates and the pairwise distance matrix.

The distance is half the grid average of the absolute PSD difference, a
Riemann sum for (1/2) integral over one period. For unit-power spectra it
lies in [0, 1], with 1 reached by disjoint supports.

An estimate holds bins 0..F/2 of an even spectrum, so on the F-point grid
the interior bins count twice and the two endpoints once: the kernel halves
the endpoint columns and runs one `pdist` pass over the F/2 + 1 bins.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .spectra import PsdEstimate


def _pairwise_l1(psds: Sequence[PsdEstimate]) -> np.ndarray:
    """Condensed distances between PSD estimates that share one grid."""
    grids = {p.grid_size for p in psds}
    if len(grids) != 1:
        raise ValueError("PSD estimates must share one frequency grid")
    (grid,) = grids
    if grid < 2:
        raise ValueError("PSD estimates need at least 2 bins (F >= 2)")
    half = np.stack([p.values for p in psds])
    half[:, [0, -1]] *= 0.5
    return pdist(half, "cityblock") * (1.0 / grid)


def l1_distance(first: PsdEstimate, second: PsdEstimate) -> float:
    """Half the grid-averaged absolute difference between two PSD estimates."""
    return float(_pairwise_l1([first, second])[0])


def distance_matrix(psds: Sequence[PsdEstimate]) -> np.ndarray:
    """Symmetric matrix of pairwise L1 PSD distances with a zero diagonal."""
    if len(psds) == 0:
        raise ValueError("need at least one PSD estimate")
    return squareform(_pairwise_l1(psds))


def check_distance_entries(values: np.ndarray) -> np.ndarray:
    """Return `values` after checking that each entry is finite and nonnegative."""
    if not np.all(np.isfinite(values)):
        raise ValueError("distance matrix entries must be finite")
    if values.size and float(values.min()) < -1e-12:
        raise ValueError("distance matrix entries must be nonnegative")
    return values


def validate_distance_matrix(dist) -> np.ndarray:
    """Check that `dist` is a finite, nonnegative, symmetric, zero-diagonal matrix."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    check_distance_entries(d)
    if not np.allclose(d, d.T, rtol=1e-9, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")
    if float(np.abs(np.diagonal(d)).max(initial=0.0)) > 1e-12:
        raise ValueError("distance matrix diagonal must be zero")
    return d
