"""Low-level numerical kernels: seeded random streams, symmetric
eigendecomposition, k-means, and minimum-cost assignment.

The eigendecomposition delegates to numpy's LAPACK backend. k-means and the
assignment wrapper add the guarantees the clustering pipeline relies on:
explicit seeding, canonical point ordering, and fixed tie-breaking, so
identical inputs always produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

LLOYD_MAX_ITER = 300


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


def eig_symmetric(matrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Only the upper triangle is read; the lower triangle is assumed to mirror
    it. Raises numpy.linalg.LinAlgError if the solver fails to converge.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    values, vectors = np.linalg.eigh(m, UPLO="U")
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


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
    out[order] = _relabel_first_seen(best_labels, k)
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


def _relabel_first_seen(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber labels by order of first appearance."""
    mapping = np.full(k, -1, dtype=int)
    next_id = 0
    for lab in labels:
        if mapping[lab] < 0:
            mapping[lab] = next_id
            next_id += 1
    return mapping[labels]


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
