"""Low-level numerical kernels: seeded random streams, an ordered map on one
thread per CPU, symmetric eigendecomposition, k-means, and minimum-cost
assignment.

`ordered_map` runs per-item work (CSV line batches, PSD chunks,
synth-bench trials) on the calling thread and one helper thread per
further CPU, and hands the results back in item order, so what a caller
builds from them does not depend on the thread count. The
eigendecomposition delegates to numpy's LAPACK backend, or to ARPACK when
only a few eigenpairs of a large matrix are wanted. k-means and the
assignment wrapper add the guarantees the clustering pipeline relies on:
explicit seeding, canonical point ordering, and fixed tie-breaking, so
identical inputs always produce identical output.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import issparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

LLOYD_MAX_ITER = 300
# Below this order a full LAPACK eigh is faster than ARPACK for a few pairs.
DENSE_EIGH_MAX_N = 200


# Set on a thread while it runs an ordered_map item, so a map started there runs serially.
_MAPPING = threading.local()


def worker_count() -> int:
    """Threads an ordered_map runs on: one per CPU this process may run on
    (its affinity mask, or the CPU count where there is none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(func, items):
    """func(item) of each item, yielded in item order, computed on this thread
    and worker_count() - 1 helper threads.

    Items are taken in order: by a helper whenever one is free, and by this
    thread when every helper is busy and the oldest result is not ready. At
    most worker_count() items are taken and not yet yielded, so each thread
    has at most one in flight. Once an item (or taking one) has failed, no
    item is taken; the results before it are yielded and then its exception
    is raised, the failure a serial loop would meet first. Closing the
    generator early waits for the running items. A map started from one of
    the items runs serially, on the thread that runs that item.
    """
    helpers = 0 if getattr(_MAPPING, "inside", False) else worker_count() - 1
    if helpers < 1:
        yield from map(func, items)
        return
    items = iter(items)
    pending = deque()  # futures of the items taken and not yet yielded, oldest first
    taking = True
    with ThreadPoolExecutor(helpers, initializer=_enter_map) as pool:
        try:
            while taking or pending:
                if taking and any(future.done() and future.exception() is not None for future in pending):
                    taking = False
                running = sum(not future.done() for future in pending)
                if taking and len(pending) <= helpers and (running < helpers or not pending[0].done()):
                    try:
                        item = next(items)
                    except StopIteration:
                        taking = False
                    except BaseException as exc:
                        pending.append(_settled(exception=exc))
                        taking = False
                    else:
                        pending.append(pool.submit(func, item) if running < helpers else _run_here(func, item))
                        del item  # a batch or chunk lives only as long as its item runs
                    continue
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _enter_map() -> None:
    _MAPPING.inside = True


def _run_here(func, item) -> Future:
    """A finished future of func(item), run on this thread."""
    _MAPPING.inside = True
    try:
        return _settled(func(item))
    except BaseException as exc:
        return _settled(exception=exc)  # built in another frame, so the traceback holds no cycle
    finally:
        _MAPPING.inside = False


def _settled(result=None, exception: BaseException | None = None) -> Future:
    future = Future()
    if exception is None:
        future.set_result(result)
    else:
        future.set_exception(exception)
    return future


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
        labels, wcss = _lloyd(work, centers)
        if wcss < best_wcss:
            best_wcss = wcss
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


def _lloyd(pts: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Iterate assignment/update until labels stop changing (or the cap).

    Returns the labels and the within-cluster sum of squares of the last
    assignment. Assignment ties go to the lowest center index; empty clusters
    keep their center.
    """
    n = pts.shape[0]
    k = centers.shape[0]
    centers = centers.copy()
    labels = None
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        wcss = float(d2[np.arange(n), new_labels].sum())
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
    return labels, wcss


def relabel_first_seen(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber labels 0..k-1 by order of first appearance."""
    present, first = np.unique(labels, return_index=True)
    mapping = np.full(k, -1, dtype=int)
    mapping[present[np.argsort(first)]] = np.arange(present.size)
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
