"""Low-level numerical kernels: seeded random streams, symmetric
eigendecomposition, k-means, row-wise smallest-k selection, and
minimum-cost assignment.

The eigendecomposition delegates to numpy's LAPACK backend, or to ARPACK when
only a few eigenpairs of a large matrix are wanted. k-means and the
assignment wrapper add the guarantees the clustering pipeline relies on:
explicit seeding, canonical point ordering, and fixed tie-breaking, so
identical inputs always produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import issparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

LLOYD_MAX_ITER = 300
# Below this order a full LAPACK eigh is faster than ARPACK for a few pairs.
DENSE_EIGH_MAX_N = 200


@dataclass(frozen=True)
class RngStream:
    """Named random stream: identical (seed, stream) gives identical draws.

    Distinct stream ids under one seed yield statistically independent
    generators, so per-trial streams can be handed out without coordination.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_symmetric(matrix, count: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: all pairs, or the `count` smallest.

    `matrix` may be a dense array, a scipy sparse array, or a scipy
    LinearOperator. The full dense LAPACK solve runs when no count is given,
    or when the matrix is small or count >= n - 1; then only the upper
    triangle is read. Otherwise ARPACK (`eigsh`) finds the `count` smallest
    algebraic eigenpairs to machine precision from a fixed start vector, so
    repeated calls agree exactly. ARPACK can miss copies of a repeated
    eigenvalue: deflate a known eigenspace before asking for the rest.
    Raises numpy.linalg.LinAlgError if the solver fails to converge.
    """
    if issparse(matrix):
        entries = matrix.data
    elif isinstance(matrix, LinearOperator):
        entries = np.zeros(0)  # an operator exposes no entries to check
    else:
        matrix = entries = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    n = matrix.shape[0]
    if count is not None and not 1 <= count <= n:
        raise ValueError(f"count must be in 1..{n}, got {count}")
    if count is None or count >= n - 1 or n <= DENSE_EIGH_MAX_N:
        dense = matrix if isinstance(matrix, np.ndarray) else matrix @ np.eye(n)
        values, vectors = np.linalg.eigh(dense, UPLO="U")
        return EigenDecomposition(eigenvalues=values[:count], eigenvectors=vectors[:, :count])
    start = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(matrix, k=count, which="SA", tol=0.0, v0=start)
    except ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError(f"ARPACK did not converge: {exc}") from exc
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(eigenvalues=values[order], eigenvectors=vectors[:, order])


def kmeans(points, k: int, restarts: int = 10, rng: RngStream | None = None) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, best of `restarts` runs.

    Points are processed in a canonical (lexicographic) order, so the result
    depends on the set of points rather than on their input order. Returns
    one label in 0..k-1 per point; the restart with the lowest within-cluster
    sum of squares wins, earlier restart on ties.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must form a non-empty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if rng is None:
        rng = RngStream(0)
    gen = rng.generator()

    order = np.lexsort(pts.T[::-1])
    work = pts[order]

    best_labels = None
    best_wcss = np.inf
    for _ in range(restarts):
        centers = _kmeanspp(work, k, gen)
        labels, history = _lloyd(work, centers)
        if history[-1] < best_wcss:
            best_wcss = history[-1]
            best_labels = labels

    out = np.empty(n, dtype=int)
    out[order] = relabel_first_seen(best_labels, k)
    return out


def _kmeanspp(pts: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """Seed centers by the k-means++ rule (squared-distance sampling)."""
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(gen.integers(n))]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            target = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            idx = min(idx, n - 1)
        else:
            # remaining points coincide with chosen centers; any pick is optimal
            idx = int(np.argmax(d2))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Iterate assignment/update until labels stop changing (or the cap).

    Returns (labels, wcss_history); the history is non-increasing. Assignment
    ties go to the lowest center index; empty clusters keep their center.
    """
    n = pts.shape[0]
    k = centers.shape[0]
    centers = centers.copy()
    labels = None
    history: list[float] = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
    return labels, history


def relabel_first_seen(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber labels 0..k-1 by order of first appearance."""
    mapping = np.full(k, -1, dtype=int)
    next_id = 0
    for lab in labels:
        if mapping[lab] < 0:
            mapping[lab] = next_id
            next_id += 1
    return mapping[labels]


def smallest_per_row(values: np.ndarray, k: int) -> np.ndarray:
    """Column positions of the k smallest entries of each row, by increasing value.

    Ties go to the lower position, so the output is deterministic. A partial
    sort picks each row's k smallest; a row whose k-th value ties with a
    left-out entry takes the full stable sort instead.
    """
    # the k smallest of each row in position order, so a stable sort by value breaks ties low
    part = np.sort(np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
    by_value = np.argsort(np.take_along_axis(values, part, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(part, by_value, axis=1)
    kth = np.take_along_axis(values, order[:, -1:], axis=1)
    tied = np.flatnonzero((values <= kth).sum(axis=1) > k)
    order[tied] = np.argsort(values[tied], axis=1, kind="stable")[:, :k]
    return order


def min_cost_assignment(cost) -> np.ndarray:
    """Permutation pi minimizing sum_i cost[i, pi[i]] over a square cost matrix."""
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    rows, cols = linear_sum_assignment(c)
    perm = np.empty(c.shape[0], dtype=int)
    perm[rows] = cols
    return perm
