"""Single-pass k-means over the PSD distance with farthest-point seeding.

Fully deterministic: the first center is observation 0, each further center
is the observation farthest from the ones picked so far, and every
observation then joins its nearest center. There is no iteration.

Seeding reads one distance column per center, N k entries in all, and the
assignment reuses them. The columns come from a distance matrix, or are
computed from the weighted spectra (`km_from_spectra`), which needs no matrix
at all.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .distances import check_distance_entries, distance_columns, validate_distance_matrix
from .spectra import WindowSpec, weighted_spectra


def _farthest_points(columns, n: int, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy centers and the (n, n_clusters) distances to them, from one `columns(index)` call per center."""
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in 1..{n}, got {n_clusters}")
    centers = np.zeros(n_clusters, dtype=int)
    to_centers = np.empty((n, n_clusters))
    to_centers[:, 0] = nearest = columns(centers[:1])[:, 0]
    for p in range(1, n_clusters):
        centers[p] = int(np.argmax(nearest))
        to_centers[:, p] = columns(centers[p : p + 1])[:, 0]
        nearest = np.minimum(nearest, to_centers[:, p])
    return centers, to_centers


def farthest_point_centers(dist, n_clusters: int) -> np.ndarray:
    """Greedy center indices; ties go to the lower observation index."""
    d = validate_distance_matrix(dist)
    return _farthest_points(lambda index: d[:, index], d.shape[0], n_clusters)[0]


def assign_to_centers(dist, centers) -> np.ndarray:
    """Label each observation by its nearest center (ties to the lower center position).

    Only the k center columns are read and checked.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    c = np.asarray(centers, dtype=int)
    if c.ndim != 1 or c.size == 0 or c.min() < 0 or c.max() >= d.shape[0]:
        raise ValueError("center indices must be a non-empty vector of valid row indices")
    return np.argmin(check_distance_entries(d[:, c]), axis=1)


def km_from_distances(dist, n_clusters: int) -> np.ndarray:
    """Farthest-point seeding, which validates the matrix, plus one assignment pass."""
    return assign_to_centers(dist, farthest_point_centers(dist, n_clusters))


def km_from_spectra(rows: np.ndarray, n_clusters: int) -> np.ndarray:
    """km_from_distances on the distances of weighted spectra, read by center column.

    `rows` come from spectra.weighted_spectra (or half_spectrum_rows).
    Each center's column is computed and checked once, while seeding, and
    the assignment reuses it; the labels equal km_from_distances on the
    distance matrix of the same rows.
    """
    _, to_centers = _farthest_points(partial(distance_columns, rows), rows.shape[0], n_clusters)
    return np.argmin(to_centers, axis=1)


def km_cluster(
    observations,
    n_clusters: int,
    *,
    window: WindowSpec | None = None,
    grid_size: int | None = None,
    unit_power: bool = False,
) -> np.ndarray:
    """End-to-end deterministic clustering: PSDs, center distance columns, one assignment pass."""
    return km_from_spectra(weighted_spectra(observations, window, grid_size, unit_power), n_clusters)
