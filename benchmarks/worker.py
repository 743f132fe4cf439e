"""The measured process: runs one workload's jobs through psdcluster.cli.main.

run.py starts this script in a fresh interpreter with the BLAS thread count
pinned, so its peak memory and timings belong to the workload alone. Usage:

    python3 benchmarks/worker.py MANIFEST.json RESULT.json

The manifest names the jobs, the seconds to measure and whether to trace.
One untimed warm-up job on the first input comes first. Then every input
runs once per pass, until the time is up and for at least two passes, so
its outputs can be compared byte for byte between repeats. With tracing on,
one job in three runs untraced, interleaved with the traced ones, for at
least three passes: each input is traced twice, so its computed counts can
be compared, and the untraced jobs give the tracing overhead from the same
process and the same stretch of time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stdout
from itertools import chain, count
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

import psdcluster.cli as cli  # noqa: E402

SYNTH_HEADER = ["M", "sigma2", "algorithm", "mean_ce", "std_ce", "trials"]
CE_TOLERANCE = 1e-12


class JobFailure(Exception):
    pass


def clustering_error(labels: np.ndarray, truth: np.ndarray) -> float:
    """Misclustering rate under the best label matching, computed independently of psdcluster."""
    k = int(max(labels.max(), truth.max())) + 1
    counts = np.zeros((k, k), dtype=int)
    np.add.at(counts, (truth, labels), 1)
    rows, cols = linear_sum_assignment(-counts)
    return 1.0 - counts[rows, cols].sum() / labels.size


def check_cluster(job: dict, paths: dict) -> tuple[bytes, dict]:
    labels_bytes = Path(paths["labels"]).read_bytes()
    report_bytes = Path(paths["report"]).read_bytes()
    report = json.loads(report_bytes)
    records = list(csv.reader(io.StringIO(labels_bytes.decode())))
    n = job["observations"]
    if records[:1] != [["id", "label"]] or len(records) != n + 1:
        raise JobFailure(f"labels file needs a header and {n} rows, has {len(records)} lines")
    try:
        ids = [int(r[0]) for r in records[1:]]
        labels = np.array([int(r[1]) for r in records[1:]])
    except (ValueError, IndexError):
        raise JobFailure("labels file holds a malformed row") from None
    k = report.get("n_clusters")
    if ids != list(range(n)) or not isinstance(k, int) or labels.min() < 0 or labels.max() >= k:
        raise JobFailure("labels file ids or labels out of range")
    ce = clustering_error(labels, np.asarray(job["truth"]))
    if abs(ce - report.get("clustering_error", -1.0)) > CE_TOLERANCE:
        raise JobFailure(f"report clustering_error {report.get('clustering_error')} != recomputed {ce}")
    return labels_bytes + b"\0" + report_bytes, {"ce": {report["algorithm"]: ce}}


def check_synth(job: dict, paths: dict) -> tuple[bytes, dict]:
    data = Path(paths["out"]).read_bytes()
    records = list(csv.reader(io.StringIO(data.decode())))
    if records[:1] != [SYNTH_HEADER] or len(records) != job["rows"] + 1:
        raise JobFailure(f"synth CSV needs its header and {job['rows']} rows, has {len(records)} lines")
    ce: dict[str, list[float]] = {}
    final = {}
    for m, sigma2, algorithm, mean_ce, std_ce, _ in records[1:]:
        value = float(mean_ce)
        if algorithm not in ("nnpc", "km") or not 0.0 <= value <= 1.0 or not float(std_ce) >= 0.0:
            raise JobFailure(f"synth CSV row out of range: {algorithm} {mean_ce} {std_ce}")
        ce.setdefault(algorithm, []).append(value)
        final[(int(m), float(sigma2), algorithm)] = value
    longest = max(m for m, _, _ in final)
    return data, {
        "ce": {alg: float(np.mean(v)) for alg, v in ce.items()},
        "nnpc_longest_noiseless": final[(longest, 0.0, "nnpc")],
    }


def run_one(job: dict, paths: dict, tracer, job_id: int):
    argv = [arg.format(**paths) for arg in job["argv"]]
    with redirect_stdout(io.StringIO()):
        start, cpu_start = perf_counter(), process_time()
        try:
            rc = tracer.run_job(job_id, cli.main, argv) if tracer else cli.main(argv)
            failure = None if rc == 0 else f"exit code {rc}"
        except (Exception, SystemExit):
            failure = traceback.format_exc(limit=3)
        return perf_counter() - start, process_time() - cpu_start, failure


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    jobs, seconds, trace = manifest["jobs"], manifest["seconds"], manifest["trace"]
    outdir = Path(manifest["outdir"])
    paths = {name: str(outdir / f"{name}.out") for name in ("labels", "report", "out")}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    min_passes = 3 if trace else 2

    digests: dict[int, str] = {}
    counts_seen: dict[int, dict] = {}
    checked: dict[int, dict] = {}
    records = []
    schedule = chain([(-1, 0)], ((p, i) for p in count() for i in range(len(jobs))))
    measured = 0.0
    for job_id, (pass_index, input_index) in enumerate(schedule):
        if pass_index >= min_passes and measured >= seconds:
            break
        traced = tracer is not None and pass_index >= 0 and (pass_index + input_index) % 3 > 0
        job = jobs[input_index]
        elapsed, cpu, reason = run_one(job, paths, tracer if traced else None, job_id)
        if pass_index >= 0:
            measured += elapsed
        if reason is None:
            try:
                data, summary = (check_cluster if job["kind"] == "cluster" else check_synth)(job, paths)
            except (JobFailure, OSError, ValueError, KeyError) as exc:
                reason = f"output check: {exc}"
        if reason is None:
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(input_index, digest) != digest:
                reason = "outputs differ from an earlier repeat of the same input"
            checked.setdefault(input_index, summary)
        if reason is None and traced:
            tracer.counts[job_id]["cli.input_mb"] += Path(argv_input(job)).stat().st_size / 1e6
            counts = dict(tracer.counts[job_id])
            if counts_seen.setdefault(input_index, counts) != counts:
                reason = "computed counts differ from an earlier traced repeat of the same input"
        records.append({
            "job": job_id, "pass": pass_index, "input": input_index, "traced": traced,
            "seconds": elapsed, "cpu_seconds": cpu, "observations": job["observations"], "failure": reason,
        })
    result = {
        "jobs": records,
        "inputs": [checked.get(i) for i in range(len(jobs))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        result["trace"] = {
            "absent": tracer.absent,
            "self_s": {job: dict(c) for job, c in tracer.self_times().items()},
            "span_counts": {job: dict(c) for job, c in tracer.span_counts().items()},
            "counts": {job: dict(c) for job, c in tracer.counts.items()},
        }
        with open(manifest["spans_out"], "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in tracer.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


def argv_input(job: dict) -> str:
    """The file a job reads: the CSV of a cluster job, the config of a synth job."""
    return job["argv"][1] if job["kind"] == "cluster" else job["argv"][2]


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
