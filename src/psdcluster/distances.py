"""L1 distance between PSD estimates: the pairwise matrix, and the parts of
it that clustering reads without building it.

The distance is half the grid average of the absolute PSD difference, a
Riemann sum for (1/2) integral over one period. For unit-power spectra it
lies in [0, 1], with 1 reached by disjoint supports.

An estimate holds bins 0..F/2 of an even spectrum, so on the F-point grid
the interior bins count twice and the two endpoints once. The kernels read
weighted rows: estimates scaled by 1/F with the two endpoint columns halved,
whose cityblock distance is the L1 distance itself, so no kernel needs F.
`weighted_spectra` estimates them from observations and weights them in
place, the one array that clustering reads; `half_spectrum_rows` weights a
copy of given estimates. `distance_matrix` takes one `pdist` pass over the
rows. `nearest_neighbors` and `distance_columns` read only what nnpc and km
need, in row blocks or columns, and never hold an N x N array. Every kernel
runs the same `pdist`/`cdist` cityblock sum, so an entry has the same bits
whichever of them computed it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .numerics import smallest_per_row
from .spectra import WindowSpec, estimate_dataset_psds

# Rows per block of the q-NN scan: a block holds NEIGHBOR_BLOCK_ROWS x N distances.
NEIGHBOR_BLOCK_ROWS = 256


def _weight_rows(values: np.ndarray) -> np.ndarray:
    """Scale a float (N, F/2 + 1) stack of estimates by 1/F in place and halve its two endpoint columns; return it."""
    values *= 1.0 / (2 * (values.shape[1] - 1))
    values[:, [0, -1]] *= 0.5
    return values


def weighted_spectra(observations, window: WindowSpec | None = None, grid_size: int | None = None,
                     unit_power: bool = False) -> np.ndarray:
    """spectra.estimate_dataset_psds (same arguments), weighted in place: the rows every distance kernel reads.

    The estimates are never copied. F is a power of two, so the scaling is
    exact and a distance has the bits of the unscaled sum times 1/F, except
    where a bin lies below about F * 2**-1022 (1e-303 at F = 65536), which
    only samples under about 1e-150 produce.
    """
    return _weight_rows(estimate_dataset_psds(observations, window, grid_size, unit_power))


def half_spectrum_rows(psds) -> np.ndarray:
    """Estimates (bins 0..F/2, one per row) as a weighted float copy."""
    rows = np.array(psds, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a non-empty stack of PSD estimates, one per row")
    if rows.shape[1] < 2:
        raise ValueError("PSD estimates need at least 2 bins (F >= 2)")
    return _weight_rows(rows)


def l1_distance(first, second) -> float:
    """Half the grid-averaged absolute difference between two PSD estimates (bins 0..F/2 each)."""
    return float(pdist(half_spectrum_rows([first, second]), "cityblock")[0])


def distance_matrix(psds) -> np.ndarray:
    """Symmetric matrix of pairwise L1 distances between estimates (one per row), with a zero diagonal."""
    return squareform(pdist(half_spectrum_rows(psds), "cityblock"))


def distance_columns(rows: np.ndarray, index) -> np.ndarray:
    """Checked distances from every row to the rows in `index`, shape (N, len(index)).

    Column j equals column index[j] of the distance matrix of the same rows.
    """
    return check_distance_entries(cdist(rows, rows[index], "cityblock"))


def nearest_neighbors(rows: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the q nearest other rows of each row, shape (N, q) each.

    Row i is ordered by increasing distance, ties going to the lower index:
    the sets of nnpc.nearest_neighbor_sets on the distance matrix, with its
    entries along them. Row blocks I are scanned against the blocks J >= I
    (the diagonal block by `pdist`, so each pair is computed once), each
    block is checked, and its entries are merged into a running top q per
    row: directly for the rows of I, through the transpose for the later
    rows. A row meets its candidates in increasing index order, which is
    what lets the merge keep the lower index on a tie.
    """
    n = rows.shape[0]
    q = n_neighbors
    if not 1 <= q <= n - 1:
        raise ValueError(f"n_neighbors must be in 1..{n - 1}, got {n_neighbors}")
    # inf placeholders: every row sees n - 1 >= q finite candidates before the end
    best = np.full((n, q), np.inf)
    index = np.zeros((n, q), dtype=np.intp)

    def merge(targets: slice, first: int, *blocks: np.ndarray) -> None:
        # the blocks' columns are rows first, first + 1, ...; every index kept so far is below first
        candidates = np.hstack([best[targets], *blocks])
        keep = smallest_per_row(candidates, q)
        kept_index = np.take_along_axis(index[targets], np.minimum(keep, q - 1), axis=1)
        index[targets] = np.where(keep < q, kept_index, first + keep - q)
        best[targets] = np.take_along_axis(candidates, keep, axis=1)

    for start in range(0, n, NEIGHBOR_BLOCK_ROWS):
        stop = min(start + NEIGHBOR_BLOCK_ROWS, n)
        block = rows[start:stop]
        diagonal = np.full((stop - start, stop - start), np.inf)  # inf keeps a row out of its own set
        upper = np.triu_indices(stop - start, 1)
        diagonal[upper] = diagonal.T[upper] = check_distance_entries(pdist(block, "cityblock"))
        # one block J at a time, so that it stays in cache while every row of I reads it
        later = [
            check_distance_entries(cdist(block, rows[j : j + NEIGHBOR_BLOCK_ROWS], "cityblock"))
            for j in range(stop, n, NEIGHBOR_BLOCK_ROWS)
        ]
        merge(slice(start, stop), start, diagonal, *later)
        if later:
            merge(slice(stop, n), start, np.hstack(later).T)
    return index, best


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
