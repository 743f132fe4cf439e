"""Nearest-neighbor graph clustering of PSD estimates.

Each observation keeps its q nearest neighbors under the L1 PSD distance;
edges are weighted by exp(-2 d) and symmetrized, and the resulting sparse
graph is partitioned with normalized spectral clustering. The cluster count
can be given or estimated from the largest eigengap of the normalized
Laplacian (estimate_graph_count, also behind estimate_count_from_spectra). One
partial eigensolve serves both the estimate and the embedding.

The graph needs only the q nearest neighbors of each observation.
`nnpc_from_spectra` takes them from the blocked scan over the weighted half
spectra (distances.nearest_neighbors) and never builds the distance
matrix; `nnpc_from_distances` reads them off a given matrix. From the
adjacency on, both run the same code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator

from .distances import (
    check_distance_entries,
    distance_columns,
    nearest_neighbors,
    validate_distance_matrix,
    weighted_spectra,
)
from .numerics import RngStream, eig_symmetric, kmeans, relabel_first_seen, smallest_per_row
from .spectra import WindowSpec

KMEANS_RESTARTS = 10
# Moves the known zero eigenspace above the rest of the spectrum, which a
# normalized Laplacian keeps within [0, 2].
ZERO_SPACE_SHIFT = 3.0


@dataclass(frozen=True)
class NnpcResult:
    """Cluster labels plus the cluster count that was used (given or estimated)."""

    labels: np.ndarray
    n_clusters: int


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Smallest normalized-Laplacian eigenpairs of a graph's non-isolated part.

    `core` lists the nodes of positive degree, and `eigenvectors` has one row
    per core node. The zero eigenspace comes first and is canonical: one unit
    sqrt-degree vector per connected component, in order of each component's
    lowest node.
    """

    n_nodes: int
    core: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def graph_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the whole graph: one 0 per isolated node first."""
        return np.concatenate([np.zeros(self.n_nodes - self.core.size), self.eigenvalues])


def nearest_neighbor_sets(dist, n_neighbors: int) -> np.ndarray:
    """Indices of the q nearest observations per row, self excluded.

    Row i holds T_i ordered by increasing distance; ties break toward the
    lower index, so the output is deterministic.
    """
    d = validate_distance_matrix(dist)
    n = d.shape[0]
    if not 1 <= n_neighbors <= n - 1:
        raise ValueError(f"n_neighbors must be in 1..{n - 1}, got {n_neighbors}")
    work = d.copy()
    np.fill_diagonal(work, np.inf)
    return smallest_per_row(work, n_neighbors)


def build_adjacency(dist, neighbor_sets) -> csr_array:
    """Sparse weighted q-NN adjacency A = Z + Z^T, Z[i, j] = exp(-2 d(i, j)) for j in T_i.

    Entries are 0 (no edge), exp(-2 d) (one-sided neighbor), or 2 exp(-2 d)
    (mutual neighbors); at most 2 N q of them are stored. Only the N q
    entries d(i, j), j in T_i, are read, so only they and the shape of
    `dist` are checked; A is symmetric by construction.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    t = np.asarray(neighbor_sets, dtype=int)
    n = d.shape[0]
    if t.ndim != 2 or t.shape[0] != n or t.min(initial=0) < 0 or t.max(initial=0) >= n:
        raise ValueError("neighbor sets do not match the distance matrix")
    if np.any(np.diff(np.sort(t, axis=1), axis=1) == 0):
        raise ValueError("neighbor sets must not repeat an index")
    return _neighbor_adjacency(t, check_distance_entries(np.take_along_axis(d, t, axis=1)))


def _neighbor_adjacency(neighbor_sets: np.ndarray, neighbor_distances: np.ndarray) -> csr_array:
    """A = Z + Z^T from checked (N, q) neighbor sets and the distances along them."""
    n, q = neighbor_sets.shape
    rows = np.repeat(np.arange(n), q)
    cols = neighbor_sets.ravel()
    weights = np.exp(-2.0 * neighbor_distances.ravel())
    # Z and Z^T as one coordinate list; the CSR conversion sums a mutual pair
    a = csr_array((np.concatenate([weights, weights]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))), shape=(n, n))
    a.eliminate_zeros()  # an underflowed weight is no edge
    return a


def _as_adjacency(adjacency) -> csr_array:
    """Validated CSR copy of a dense or sparse adjacency, without stored zeros."""
    a = csr_array(adjacency, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    a.sum_duplicates()
    a.eliminate_zeros()
    if not np.all(np.isfinite(a.data)):
        raise ValueError("adjacency entries must be finite")
    if a.nnz and float(a.data.min()) < 0.0:
        raise ValueError("adjacency entries must be nonnegative")
    mirror = a.T.tocsr()
    mirror.sort_indices()
    a.sort_indices()
    if not (
        np.array_equal(a.indptr, mirror.indptr)
        and np.array_equal(a.indices, mirror.indices)
        and np.allclose(a.data, mirror.data, rtol=1e-9, atol=1e-12)
    ):
        raise ValueError("adjacency matrix must be symmetric")
    return a


def normalized_laplacian(adjacency) -> csr_array:
    """Sparse symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Zero-degree nodes get an all-zero row and column. That keeps each of them
    a connected component of its own, so the multiplicity of the eigenvalue 0
    still counts components.
    """
    return _laplacian(_as_adjacency(adjacency))


def _laplacian(a: csr_array) -> csr_array:
    """normalized_laplacian of an adjacency already checked by _as_adjacency."""
    deg = a.sum(axis=1)
    pos = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[pos] = deg[pos] ** -0.5
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    diag = np.flatnonzero(pos)
    values = np.concatenate([-(inv_sqrt[rows] * a.data * inv_sqrt[a.indices]), np.ones(diag.size)])
    return csr_array((values, (np.concatenate([rows, diag]), np.concatenate([a.indices, diag]))), shape=a.shape)


def laplacian_spectrum(adjacency, count: int) -> LaplacianSpectrum:
    """The `count` smallest normalized-Laplacian eigenpairs of the non-isolated nodes.

    The zero eigenspace is supplied exactly, one sqrt-degree vector per
    connected component, and only the rest of the spectrum is solved for, on
    the Laplacian shifted by ZERO_SPACE_SHIFT along that space. A Krylov
    solver would otherwise miss copies of the repeated eigenvalue 0. The
    count is capped at the number of non-isolated nodes.
    """
    a = _as_adjacency(adjacency)
    n = a.shape[0]
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    deg = a.sum(axis=1)
    core = np.flatnonzero(deg > 0)
    if core.size < n:
        a = a[core][:, core]
        deg = deg[core]
    m = core.size
    count = min(count, m)
    n_components, component = connected_components(a, directed=False)
    unit = np.sqrt(deg / np.bincount(component, weights=deg)[component])
    zero_space = csr_array((unit, (np.arange(m), component)), shape=(m, n_components))
    n_zero = min(count, n_components)
    values = np.zeros(n_zero)
    vectors = zero_space[:, :n_zero].toarray()
    if count > n_components:
        lap = _laplacian(a)

        def shifted(x):
            return lap @ x + ZERO_SPACE_SHIFT * (zero_space @ (zero_space.T @ x))

        rest = eig_symmetric(LinearOperator((m, m), matvec=shifted, matmat=shifted, dtype=float), count - n_components)
        values = np.concatenate([values, rest.eigenvalues])
        vectors = np.hstack([vectors, rest.eigenvectors])
    return LaplacianSpectrum(n_nodes=n, core=core, eigenvalues=values, eigenvectors=vectors)


def _sign_canonicalize(columns: np.ndarray) -> np.ndarray:
    """Fix each column's sign by a permutation-invariant odd statistic."""
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        stat = float((col**3).sum())
        if stat == 0.0:
            stat = float(col.sum())
        if stat < 0.0:
            out[:, j] = -col
    return out


def _embed_and_kmeans(spectrum: LaplacianSpectrum, n_clusters: int, rng: RngStream) -> np.ndarray:
    """Row-normalized spectral embedding of the core nodes, then k-means."""
    emb = _sign_canonicalize(spectrum.eigenvectors[:, :n_clusters])
    norms = np.linalg.norm(emb, axis=1)
    scale = norms > 0
    emb[scale] = emb[scale] / norms[scale, None]
    return kmeans(emb, n_clusters, restarts=KMEANS_RESTARTS, rng=rng)


def spectral_cluster(spectrum: LaplacianSpectrum, n_clusters: int, rng: RngStream | None = None, dist=None) -> np.ndarray:
    """Normalized spectral clustering of a graph, given its Laplacian spectrum.

    `spectrum` comes from laplacian_spectrum with at least `n_clusters`
    pairs. The non-isolated nodes are embedded by the eigenvectors of the
    `n_clusters` smallest Laplacian eigenvalues, rows are normalized to unit
    length, and k-means (10 restarts) partitions the embedded points.

    Isolated (zero-degree) nodes cannot be placed by the embedding. Each gets
    a label of its own while the cluster budget allows; any further ones are
    attached to the cluster of their nearest neighbor under `dist`, a
    function that returns the distance rows of the observations in an index
    array. It is required and called only in that case. A warning is emitted
    whenever isolated nodes occur.

    Clusters are named 0, 1, ... in order of their lowest observation index,
    so observation 0 is always in cluster 0.
    """
    n = spectrum.n_nodes
    core = spectrum.core
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in 1..{n}, got {n_clusters}")
    if spectrum.eigenvalues.size < min(n_clusters, core.size):
        raise ValueError(f"spectrum holds {spectrum.eigenvalues.size} eigenpairs, fewer than the {n_clusters} clusters")
    if rng is None:
        rng = RngStream(0)
    if core.size == n:
        return relabel_first_seen(_embed_and_kmeans(spectrum, n_clusters, rng), n_clusters)

    isolated = np.setdiff1d(np.arange(n), core)
    warnings.warn(
        f"{isolated.size} isolated node(s) in the neighborhood graph",
        RuntimeWarning,
        stacklevel=2,
    )
    labels = np.full(n, -1, dtype=int)
    if isolated.size < n_clusters:
        # spend one label on each isolated node, the rest on the connected part
        core_clusters = n_clusters - isolated.size
        labels[core] = _embed_and_kmeans(spectrum, core_clusters, rng)
        labels[isolated] = core_clusters + np.arange(isolated.size)
        return relabel_first_seen(labels, n_clusters)

    if dist is None:
        raise ValueError("distance rows are needed to place isolated nodes once they exceed the cluster budget")
    d = check_distance_entries(dist(isolated))
    if core.size:
        labels[core] = _embed_and_kmeans(spectrum, n_clusters, rng)
    else:
        labels[isolated[:n_clusters]] = np.arange(n_clusters)
    for i, row in zip(isolated, d):
        if labels[i] >= 0:
            continue
        placed = np.flatnonzero(labels >= 0)
        labels[i] = labels[placed[np.argmin(row[placed])]]
    return relabel_first_seen(labels, n_clusters)


def estimate_cluster_count(eigenvalues, max_clusters: int) -> int:
    """Eigengap heuristic for the cluster count.

    `eigenvalues` are a graph's smallest normalized-Laplacian eigenvalues in
    ascending order, such as LaplacianSpectrum.graph_eigenvalues() from at
    least max_clusters + 1 pairs. Returns the k <= max_clusters maximizing
    the gap between eigenvalues k and k + 1 (counting from 1); ties go to the
    smaller k, and a single eigenvalue gives 1.
    """
    values = np.asarray(eigenvalues, dtype=float)
    if not 1 <= max_clusters <= values.size:
        raise ValueError(f"max_clusters must be in 1..{values.size}, got {max_clusters}")
    gaps = np.diff(values[: max_clusters + 1])
    return int(np.argmax(gaps)) + 1 if gaps.size else 1


def estimate_graph_count(adjacency, max_clusters: int) -> tuple[int, LaplacianSpectrum]:
    """Eigengap estimate of a graph's cluster count, capped at N, and the min(max_clusters, N) + 1 pairs it read."""
    max_clusters = min(max_clusters, adjacency.shape[0])
    spectrum = laplacian_spectrum(adjacency, max_clusters + 1)
    return estimate_cluster_count(spectrum.graph_eigenvalues(), max_clusters), spectrum


def _cluster_graph(adjacency, n_clusters: int | None, rng: RngStream | None, max_clusters: int, dist) -> NnpcResult:
    """Spectral clustering of a q-NN graph: one eigensolve for the count estimate and the embedding."""
    if n_clusters is None:
        n_clusters, spectrum = estimate_graph_count(adjacency, max_clusters)
    else:
        spectrum = laplacian_spectrum(adjacency, n_clusters)
    labels = spectral_cluster(spectrum, n_clusters, rng=rng, dist=dist)
    return NnpcResult(labels=labels, n_clusters=int(n_clusters))


def nnpc_from_distances(
    dist,
    n_neighbors: int,
    n_clusters: int | None = None,
    rng: RngStream | None = None,
    max_clusters: int = 10,
) -> NnpcResult:
    """Neighbor graph plus spectral clustering, starting from a distance matrix.

    nearest_neighbor_sets validates the matrix once, and one eigensolve
    serves both the count estimate and the embedding.
    """
    neighbor_sets = nearest_neighbor_sets(dist, n_neighbors)
    d = np.asarray(dist, dtype=float)
    return _cluster_graph(build_adjacency(d, neighbor_sets), n_clusters, rng, max_clusters, lambda index: d[index])


def nnpc_from_spectra(
    rows: np.ndarray,
    n_neighbors: int,
    n_clusters: int | None = None,
    rng: RngStream | None = None,
    max_clusters: int = 10,
) -> NnpcResult:
    """nnpc_from_distances on the distances of weighted spectra, without the matrix.

    `rows` come from distances.weighted_spectra (or half_spectrum_rows).
    The blocked q-NN scan gives the same neighbor sets and distances as the
    matrix, so the result is the same; the distance rows of isolated nodes
    are computed only if spectral_cluster has to place them by distance.
    """
    adjacency = _neighbor_adjacency(*nearest_neighbors(rows, n_neighbors))
    return _cluster_graph(adjacency, n_clusters, rng, max_clusters, lambda index: distance_columns(rows, index).T)


def estimate_count_from_spectra(rows: np.ndarray, n_neighbors: int, max_clusters: int) -> tuple[int, np.ndarray]:
    """estimate_graph_count of nnpc_from_spectra's graph, without the matrix.

    Returns the estimate and the max_clusters + 1 smallest graph eigenvalues (all N if fewer), ascending.
    """
    adjacency = _neighbor_adjacency(*nearest_neighbors(rows, n_neighbors))
    count, spectrum = estimate_graph_count(adjacency, max_clusters)
    return count, spectrum.graph_eigenvalues()[: max_clusters + 1]


def nnpc_cluster(
    observations,
    n_neighbors: int,
    n_clusters: int | None = None,
    *,
    window: WindowSpec | None = None,
    grid_size: int | None = None,
    unit_power: bool = False,
    rng: RngStream | None = None,
    max_clusters: int = 10,
) -> NnpcResult:
    """Full pipeline: PSD estimates, blocked q-NN distances, q-NN graph, spectral clustering.

    With n_clusters=None the count is estimated by the eigengap heuristic,
    capped at max_clusters. No N x N distance matrix is built.
    """
    rows = weighted_spectra(observations, window, grid_size, unit_power)
    return nnpc_from_spectra(rows, n_neighbors, n_clusters, rng=rng, max_clusters=max_clusters)
