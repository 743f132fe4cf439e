"""L1 distance between PSD estimates: the pairwise matrix, and the parts of
it that clustering reads without building it.

The distance is half the grid average of the absolute PSD difference, a
Riemann sum for (1/2) integral over one period. For unit-power spectra it
lies in [0, 1], with 1 reached by disjoint supports.

The kernels read weighted rows (spectra.weighted_spectra), whose cityblock
distance is the L1 distance itself, so no kernel knows F or the grid's
weights. `distance_matrix` takes one `pdist` pass over the rows.
`nearest_neighbors` and `distance_columns` read only what nnpc and km need,
in row blocks or columns, and never hold an N x N array; above one block,
`nearest_neighbors` skips the pairs that a lower bound on pooled bins rules
out. Every reported distance comes from the same `pdist`/`cdist` cityblock
sum, so an entry has the same bits whichever kernel computed it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .spectra import half_spectrum_rows

# Rows per block of the q-NN scan: a block holds NEIGHBOR_BLOCK_ROWS x N bounds.
NEIGHBOR_BLOCK_ROWS = 256


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
    entries along them. Up to NEIGHBOR_BLOCK_ROWS rows the scan is just
    that: one checked `pdist`, then the q smallest of each row.

    More rows are scanned in row blocks against a lower bound, so that only
    the pairs the bound cannot rule out are computed. The bins are summed
    into P contiguous groups (`_pool_starts`); by the triangle inequality
    the cityblock distance of two pooled rows is at most that of the rows
    (the L1 piecewise-aggregate bound). Each row i of a block takes the 2q
    rows of smallest bound as candidates, computes their distances, and
    takes the q-th smallest as u_i. It then computes every other row j
    whose bound is at most u_i (1 + 1e-9 + 4 (F/2 + 1 + P) eps) plus
    2 w eps (|x_i|_1 + |x_j|_1), w the widest group. The slack covers the
    rounding of both sums, so every row within u_i is computed, and the q
    smallest by (distance, index) among the computed rows are the q
    nearest whichever candidates a tie among bounds picked. A pair whose L1 norms may sum past the
    float range is always computed, so an overflowing distance raises as it
    does on the full matrix; non-finite rows are rejected before pooling.
    Every reported distance comes from a checked `cdist` cityblock call and
    has the bits of the matrix entry.
    """
    n = rows.shape[0]
    q = n_neighbors
    if not 1 <= q <= n - 1:
        raise ValueError(f"n_neighbors must be in 1..{n - 1}, got {n_neighbors}")
    if n > NEIGHBOR_BLOCK_ROWS:
        return _pruned_neighbors(rows, q)
    dist = squareform(check_distance_entries(pdist(rows, "cityblock")))
    index = _matrix_neighbors(dist, q)
    return index, np.take_along_axis(dist, index, axis=1)


def _matrix_neighbors(dist: np.ndarray, q: int) -> np.ndarray:
    """Columns of the q nearest other rows in each row of a square distance matrix.

    A stable sort orders each row by distance, ties going to the lower
    index. Writes inf on the diagonal of `dist`: a row is not its own neighbor.
    """
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :q]


def _pruned_neighbors(rows: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """nearest_neighbors of more than one block of rows, by the pooled-bin bound."""
    if not np.all(np.isfinite(rows)):
        raise ValueError("distance matrix entries must be finite")
    n, bins = rows.shape
    starts = _pool_starts(bins)
    eps = np.finfo(float).eps
    with np.errstate(over="ignore"):  # an overflowing sum only marks its row as huge
        pooled = np.add.reduceat(rows, starts, axis=1)
        norms = np.abs(rows).sum(axis=1)
    # a distance is at most the norm sum, so the pairs of a huge row may overflow: they are always computed
    huge = norms > np.finfo(float).max / 4
    reach = np.where(huge, 0.0, norms * (2 * eps * np.diff(starts, append=bins).max()))
    relative = 1e-9 + 4 * (bins + starts.size) * eps
    n_candidates = min(2 * q, n - 1)
    index = np.empty((n, q), dtype=np.intp)
    best = np.empty((n, q))
    peak = np.zeros(n)  # the largest distance each row computed beyond its candidates
    for start in range(0, n, NEIGHBOR_BLOCK_ROWS):
        block = np.arange(start, min(start + NEIGHBOR_BLOCK_ROWS, n))
        # row i = block[r] computes j where bound[r, j] - reach[j] <= u_i * (1 + relative) + reach[i]
        bound = cdist(pooled[block], pooled, "cityblock")
        bound -= reach
        if huge.any():
            bound[:, huge] = -np.inf
            bound[huge[block]] = -np.inf
        bound[block - start, block] = np.inf
        candidates = np.argpartition(bound, n_candidates - 1, axis=1)[:, :n_candidates]
        exact = check_distance_entries(
            np.vstack([cdist(rows[i : i + 1], rows[found], "cityblock") for i, found in zip(block, candidates)])
        )
        limit = np.partition(exact, q - 1, axis=1)[:, q - 1] * (1 + relative) + reach[block]
        np.put_along_axis(bound, candidates, np.inf, axis=1)  # computed already
        survivor_row, survivor = np.nonzero(bound <= limit[:, None])
        first = np.searchsorted(survivor_row, np.arange(block.size + 1))
        for r, i in enumerate(block):
            found, dist = candidates[r], exact[r]
            extra = survivor[first[r] : first[r + 1]]
            if extra.size:
                found = np.concatenate([found, extra])
                dist = np.concatenate([dist, cdist(rows[i : i + 1], rows[extra], "cityblock")[0]])
                peak[i] = dist.max()
            order = np.lexsort((found, dist))[:q]
            index[i] = found[order]
            best[i] = dist[order]
    check_distance_entries(peak)
    return index, best


def _pool_starts(bins: int) -> np.ndarray:
    """First bin of each of the P = min(bins, round(3 sqrt(bins))) contiguous groups that the q-NN bound sums."""
    groups = min(bins, round(3 * bins**0.5))
    return np.arange(groups) * bins // groups


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
