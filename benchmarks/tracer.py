"""Spans and computed work counts recorded around calls into psdcluster.

The package binds its helpers with `from .x import f`, so each function is
wrapped at the module attribute its caller resolves (for example
psdcluster.cli.distance_matrix rather than psdcluster.distances). A target
that no longer exists is reported as absent instead of failing the run.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _dataset_counts(args, kwargs, result):
    return {"generators.samples": int(result.observations.size)}


def _psd_counts(args, kwargs, result):
    return {"spectra.psd_rows": len(result), "spectra.grid_points": sum(int(p.values.size) for p in result)}


def _matrix_counts(args, kwargs, result):
    psds = args[0]
    pairs = _pairs(len(psds))
    return {
        "distances.pairs": pairs,
        "distances.grid_ops": pairs * int(psds[0].values.size),
        "distances.matrix_mb": result.nbytes / 1e6,
    }


def _adjacency_counts(args, kwargs, result):
    neighbors = args[1]
    edges = {(min(i, int(j)), max(i, int(j))) for i, row in enumerate(neighbors.tolist()) for j in row}
    return {"nnpc.used_pairs": len(edges), "nnpc.all_pairs": _pairs(len(neighbors))}


def _eigh_counts(args, kwargs, result):
    return {"numerics.eigh_work": int(args[0].shape[0]) ** 3}


def _km_counts(args, kwargs, result):
    n = len(args[0])
    return {"km.used_pairs": n * int(args[1]), "km.all_pairs": _pairs(n)}


# (module, attribute, dict key or None, span name, computed-count function or None)
TARGETS = [
    ("psdcluster.cli", "PRESETS", "arma3", "generators.models", None),
    ("psdcluster.cli", "make_benchmark_dataset", None, "generators.dataset", _dataset_counts),
    ("psdcluster.cli", "make_window", None, "spectra.window", None),
    ("psdcluster.cli", "estimate_dataset_psds", None, "spectra.psd", _psd_counts),
    ("psdcluster.cli", "distance_matrix", None, "distances.matrix", _matrix_counts),
    ("psdcluster.nnpc", "validate_distance_matrix", None, "distances.validate", None),
    ("psdcluster.km", "validate_distance_matrix", None, "distances.validate", None),
    ("psdcluster.cli", "nnpc_from_distances", None, "nnpc.cluster", None),
    ("psdcluster.nnpc", "nearest_neighbor_sets", None, "nnpc.knn", None),
    ("psdcluster.nnpc", "build_adjacency", None, "nnpc.adjacency", _adjacency_counts),
    ("psdcluster.nnpc", "normalized_laplacian", None, "nnpc.laplacian", None),
    ("psdcluster.nnpc", "estimate_cluster_count", None, "nnpc.eigengap", None),
    ("psdcluster.nnpc", "spectral_cluster", None, "nnpc.spectral", None),
    ("psdcluster.nnpc", "eig_symmetric", None, "numerics.eigh", _eigh_counts),
    ("psdcluster.nnpc", "kmeans", None, "numerics.kmeans", None),
    ("psdcluster.cli", "km_from_distances", None, "km.cluster", _km_counts),
    ("psdcluster.km", "farthest_point_centers", None, "km.seed", None),
    ("psdcluster.km", "assign_to_centers", None, "km.assign", None),
    ("psdcluster.cli", "clustering_error", None, "metrics.score", None),
    ("psdcluster.cli", "confusion_entropy", None, "metrics.score", None),
]

JOB_SPAN = "cli.self"


class Tracer:
    """Records spans (name, start, end, parent index, job id) and per-job counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._targets = []  # (setter, original, wrapper)
        for module_name, attr, key, span, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
                if key is None:
                    original, setter = getattr(module, attr), partial(setattr, module, attr)
                else:
                    mapping = getattr(module, attr)
                    original, setter = mapping[key], partial(mapping.__setitem__, key)
            except (ImportError, AttributeError, KeyError, TypeError):
                original = None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}" + (f"[{key!r}]" if key else ""))
                continue
            self._targets.append((setter, original, self._wrap(original, span, count)))

    def _wrap(self, original, name, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.counts[self._job].update(count(args, kwargs, result))
            return result

        return traced

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def run_job(self, job: int, func, *args):
        """Call func(*args) under a root span with every target wrapped."""
        self._job = job
        for setter, _, wrapper in self._targets:
            setter(wrapper)
        index = self._open(JOB_SPAN)
        try:
            return func(*args)
        finally:
            self._close(index)
            for setter, original, _ in self._targets:
                setter(original)

    def self_times(self) -> dict[int, Counter]:
        """Per job, the summed self time of each span name (children subtracted)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            out[job][name] += (end - start) - child[index]
        return out

    def span_counts(self) -> dict[int, Counter]:
        out: dict[int, Counter] = defaultdict(Counter)
        for name, _, _, _, job in self.spans:
            out[job][name] += 1
        return out
