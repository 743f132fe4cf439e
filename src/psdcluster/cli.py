"""Command-line front end: clustering runs, the synthetic benchmark,
guarantee checks, eigengap estimation, and motion-capture conversion.

Exit codes: 0 on success, 2 for parameter or validation problems and for
allocations that do not fit in memory, 1 for I/O problems. For a fixed
input, configuration, and seed every output file is byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import math
import os
import sys
import threading
from dataclasses import asdict
from functools import partial
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__
from .distances import weighted_chunk_spectra, weighted_spectra
from .generators import benchmark_models, benchmark_rows, make_model, normalize_model
from .km import km_from_spectra
from .metrics import clustering_error, confusion_entropy
from .nnpc import estimate_count_from_spectra, nnpc_from_spectra
from .numerics import RngStream
from .spectra import DEFAULT_GAUSSIAN_STD, DEFAULT_GRID_FACTOR, WINDOW_KINDS, make_window, next_pow2
from .theory import check_condition

# benchmarks/tracer.py wraps these names on this module, though no command calls them
from .distances import distance_matrix  # noqa: F401
from .generators import make_benchmark_dataset  # noqa: F401
from .km import km_from_distances  # noqa: F401
from .nnpc import nnpc_from_distances  # noqa: F401
from .spectra import estimate_dataset_psds  # noqa: F401

PRESETS = {"arma3": benchmark_models}

DEFAULT_NEIGHBORS = 10
DEFAULT_N_PER_MODEL = 25
DEFAULT_TRIALS = 200

# The CSV reader takes whole lines in batches of about this many bytes.
CSV_BATCH_BYTES = 1 << 17
_EXACT_POWER = 27  # the largest k with 10**k exact in the x87 significand
_EXACT_MANTISSA = 10**18  # mantissas below this are exact there, and np.fromstring reads them unsaturated
_TOKEN_BYTES = bytes.maketrans(b"e\n", b",,")

_CONFIG_KEYS = {
    "models",
    "preset",
    "M_list",
    "sigma2_list",
    "trials",
    "n_per_model",
    "q",
    "window",
    "grid_factor",
    "seed",
}


# ---------------------------------------------------------------------------
# input handling


def _csv_rows(path, lines, start: int = 0):
    """Records of csv.reader(lines), numbered from start + 1.

    A csv.Error (say, a stray quote that swallows the rest of a large file)
    becomes a ValueError naming the file and the record.
    """
    record_no = start
    try:
        for record_no, record in enumerate(csv.reader(lines), start=start + 1):
            yield record
    except csv.Error as exc:
        raise ValueError(f"{path}: line {record_no + 1}: {exc}") from exc


def _record_samples(path, line_no: int, cells: list[str], with_truth: bool):
    """(truth cell or None, samples) of one record, or None if every cell is blank.

    Blank and whitespace-only cells are dropped and the rest are stripped;
    with_truth takes the first remaining cell as the label.
    """
    cells = [cell for cell in map(str.strip, cells) if cell]
    if not cells:
        return None
    label = cells.pop(0) if with_truth else None
    try:
        values = np.array(cells, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line_no}: non-numeric sample value") from exc
    return label, values


def _exact_scaling_powers():
    """10**0 .. 10**27 as np.longdouble where that is the x87 format, else None.

    Each power is exact in the x87 64-bit significand (5**27 < 2**63), so a
    mantissa below 10**18 times or over one of them is rounded once. The
    significand is the low 8 bytes of each 16-byte item.
    """
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return None
    return np.cumprod(np.r_[1, np.full(_EXACT_POWER, 10)].astype(np.longdouble))


def _parse_sample_lines(region: bytes, powers):
    """The samples of each line of a region of sample cells whose lines all
    end in \\n, or None if a cell is outside the byte route's grammar.

    A cell is an optional minus sign, digits with at most one dot among them
    and at least one digit, and an optional exponent e[-|+]digits (repr
    writes e+16 and up); its value has the bits float() gives. The dots and
    plus signs go, the exponent markers and newlines become commas, and one
    np.fromstring reads every mantissa and exponent as an integer. A region
    without a plus sign skips the plus-sign scan. Each mantissa is scaled by a power of ten in
    np.longdouble and cast to float64. float() reads the cells where that
    could round twice: a mantissa of 10**18 or more (fromstring saturates at
    2**63 - 1), a power beyond 10**27, or an extended result that lies
    exactly halfway between two doubles.
    """
    if region.translate(None, b"0123456789.-+e,\n"):
        return None
    data = np.frombuffer(region, np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() > csv.field_size_limit():  # csv.reader refuses such a cell
        return None
    negative = data[starts] == ord("-")
    dots = np.flatnonzero(data == ord("."))
    marks = np.flatnonzero(data == ord("e"))
    dot_cells, mark_cells = np.searchsorted(ends, dots), np.searchsorted(ends, marks)
    negative_exponent = data[marks + 1] == ord("-")
    if region.count(b"-") != np.count_nonzero(negative) + np.count_nonzero(negative_exponent):
        return None  # a minus sign neither first in a cell nor right after its e
    exponent_sign = negative_exponent
    if b"+" in region:
        positive_exponent = data[marks + 1] == ord("+")
        if region.count(b"+") != np.count_nonzero(positive_exponent):
            return None  # a plus sign anywhere but right after an e
        exponent_sign = negative_exponent | positive_exponent
    if np.any(np.diff(dot_cells) < 1) or np.any(np.diff(mark_cells) < 1):
        return None  # two dots or two exponents in one cell
    mantissa_ends = ends.copy()
    mantissa_ends[mark_cells] = marks
    if np.any(dots > mantissa_ends[dot_cells]):
        return None  # a dot in the exponent
    digits = mantissa_ends - starts - negative
    digits[dot_cells] -= 1
    if digits.min() < 1 or np.any(ends[mark_cells] - marks - exponent_sign < 2):
        return None  # a mantissa or an exponent without digits
    scale = np.zeros(len(ends), dtype=np.int64)
    scale[dot_cells] = dots + 1 - mantissa_ends[dot_cells]
    tokens = np.fromstring(region.translate(_TOKEN_BYTES, b".+"), dtype=np.int64, sep=",")
    if len(marks):
        exponents = mark_cells + np.arange(1, len(marks) + 1)
        scale[mark_cells] += tokens[exponents]
        tokens = np.delete(tokens, exponents)
    inexact = (scale > _EXACT_POWER) | (scale < -_EXACT_POWER)
    inexact |= (tokens >= _EXACT_MANTISSA) | (tokens <= -_EXACT_MANTISSA)
    np.clip(scale, -_EXACT_POWER, _EXACT_POWER, out=scale)
    extended = np.abs(tokens).astype(np.longdouble) * powers[np.maximum(scale, 0)] / powers[np.maximum(-scale, 0)]
    inexact |= (extended.view(np.uint64)[::2] & 0x7FF) == 0x400  # a tie in the cast that the decimal may not be
    samples = extended.astype(np.float64)
    np.negative(samples, out=samples, where=negative)  # the sign of -0.0 too
    for cell in np.flatnonzero(inexact):
        samples[cell] = float(region[starts[cell]:ends[cell]])
    return np.split(samples, np.flatnonzero(data[ends[:-1]] == ord("\n")) + 1)


def _parse_batch(batch: bytes, with_truth: bool, powers):
    """(label or None, samples) of each line of a batch on the byte route, or
    None if the batch is outside its grammar.

    With with_truth each line's first cell is its label: stripped, nonblank,
    free of double quotes and carriage returns, and valid UTF-8.
    """
    if not batch.endswith(b"\n"):
        batch += b"\n"  # the last line of a file without a final newline
    if not with_truth:
        rows = _parse_sample_lines(batch, powers)
        return None if rows is None else [(None, row) for row in rows]
    labels, pieces, start = [], [], 0
    while start < len(batch):
        end = batch.index(b"\n", start) + 1
        comma = batch.find(b",", start, end)
        label = batch[start:comma]
        if comma < 0 or len(label) > csv.field_size_limit() or b'"' in label or b"\r" in label:
            return None
        try:
            label = label.decode("utf-8").strip()
        except UnicodeDecodeError:
            return None
        if not label:
            return None
        labels.append(label)
        pieces.append(memoryview(batch)[comma + 1 : end])
        start = end
    rows = _parse_sample_lines(b"".join(pieces), powers)
    return None if rows is None else list(zip(labels, rows))


def _line_batches(handle):
    """Whole lines of a binary file in batches of about CSV_BATCH_BYTES, a leading UTF-8 BOM dropped.

    A line longer than a batch is a batch of its own, read once.
    """
    lines = handle.readlines(CSV_BATCH_BYTES)
    if lines and lines[0].startswith(codecs.BOM_UTF8):
        lines[0] = lines[0][len(codecs.BOM_UTF8):]
    while lines:
        batch = b"".join(lines)
        if batch:
            yield batch
        lines = handle.readlines(CSV_BATCH_BYTES)


def _decoded_lines(path, batches, line_no: int = 0):
    """The lines of byte batches as UTF-8 text, split where csv.reader splits
    them (\\n, \\r\\n or \\r); the first is physical line line_no + 1.

    An invalid byte is a ValueError naming the file and its line.
    """
    for batch in batches:
        for line in batch.splitlines(keepends=True):
            line_no += 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid UTF-8 byte 0x{line[exc.start]:02x}") from exc
            yield text


def _observation_rows(path, handle, with_truth: bool):
    """(line number, label or None, samples) of each nonblank record in a binary CSV handle.

    A batch of lines on the byte route's grammar is parsed there; csv.reader
    reads any other batch, and the rest of the file too if the batch holds a
    double quote. Both give the same samples, labels, errors and line numbers.
    """
    powers = _exact_scaling_powers()
    batches = _line_batches(handle)
    line_no = 0
    for batch in batches:
        rows = None if powers is None else _parse_batch(batch, with_truth, powers)
        if rows is not None:
            for line_no, (label, values) in enumerate(rows, start=line_no + 1):
                yield line_no, label, values
            continue
        lines = _decoded_lines(path, chain([batch], batches) if b'"' in batch else [batch], line_no)
        for line_no, cells in enumerate(_csv_rows(path, lines, start=line_no), start=line_no + 1):
            record = _record_samples(path, line_no, cells, with_truth)
            if record is not None:
                yield line_no, *record


def _read_observation_csv(path, with_truth: bool, pad_zeros: bool, subtract_mean: bool):
    """Load observations (one per row); optionally a leading truth-label column.

    Returns (observations, truth) with truth None unless requested. Ragged
    rows are zero-padded to the longest row when pad_zeros is set and are an
    error otherwise. Mean subtraction happens before padding. The file is
    read in batches of whole lines (_observation_rows), and each row goes
    straight into one (rows, longest row) buffer that grows in place.
    """
    observations = np.zeros((0, 0))
    count, ragged = 0, False
    truth_cells: list[str] = []
    with open(path, "rb") as handle:
        for line_no, label, values in _observation_rows(path, handle, with_truth):
            if values.size < 2:
                raise ValueError(f"{path}: line {line_no}: observations need at least 2 samples")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}: line {line_no}: samples must be finite")
            if subtract_mean:
                with np.errstate(over="ignore"):
                    mean = values.mean()
                    values -= mean if np.isfinite(mean) else np.sum(values / values.size)  # a sum that cannot overflow
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"{path}: line {line_no}: samples overflow when the mean is subtracted")
            if with_truth:
                truth_cells.append(label)
            ragged = ragged or (count > 0 and values.size != observations.shape[1])
            if ragged and not pad_zeros:
                continue  # an error, once every line has had its own checks
            if values.size > observations.shape[1]:  # the first row, or a longer one to pad the rest to
                observations = np.pad(observations, ((0, 0), (0, values.size - observations.shape[1])))
            if count == len(observations):
                # no view of the buffer is alive, so it can grow in place; new rows are zero
                observations.resize((count + count // 4 + 16, observations.shape[1]), refcheck=False)
            observations[count, : values.size] = values
            count += 1
    if not count:
        raise ValueError(f"{path}: no observations found")
    if ragged and not pad_zeros:
        raise ValueError(f"{path}: rows have different lengths; pass --pad-zeros to zero-pad them")
    observations.resize((count, observations.shape[1]), refcheck=False)
    truth = None
    if with_truth:
        seen: dict[str, int] = {}
        truth = np.array([seen.setdefault(cell, len(seen)) for cell in truth_cells])
    return observations, truth


def _input_spectra(args, uses_neighbors: bool, uses_max_clusters: bool, n_clusters: int | None = None,
                   single_needs_no_neighbors: bool = False):
    """The front end of cluster and estimate-l: the weighted spectra of the input, (rows, truth, M, F).

    Option values that are bad for any input are rejected before the input
    is parsed, and the counts before the PSD stage, with the usual messages.
    The samples are dropped once estimated, so clustering runs beside the
    spectra alone.
    """
    if uses_neighbors and args.neighbors < 1:
        with open(args.input, "rb") as handle:  # the reader's row count, no sample parsed
            records = _csv_rows(args.input, _decoded_lines(args.input, _line_batches(handle)))
            n_obs = sum(any(cell.strip() for cell in cells) for cells in records)
        raise ValueError(f"neighbor count must be in 1..{n_obs - 1}, got {args.neighbors}")
    if uses_max_clusters and args.max_clusters < 1:
        raise ValueError(f"the cluster-count cap must be positive, got {args.max_clusters}")
    make_window(args.window, 2, args.std)  # the window options, checked on the shortest observation's window
    if args.grid_factor < 2:
        raise ValueError("grid factor must be >= 2")
    observations, truth = _read_observation_csv(args.input, args.truth, args.pad_zeros, args.subtract_mean)
    n_obs, obs_len = observations.shape
    if n_clusters is not None and n_clusters > n_obs:
        raise ValueError(f"cluster count {n_clusters} exceeds the {n_obs} observations")
    if uses_neighbors and args.neighbors > n_obs - 1 and not (single_needs_no_neighbors and n_obs == 1):
        raise ValueError(f"neighbor count must be in 1..{n_obs - 1}, got {args.neighbors}")
    grid = next_pow2(args.grid_factor * obs_len)
    window = make_window(args.window, obs_len, args.std)
    return weighted_spectra(observations, window, grid, args.normalize_psd), truth, obs_len, grid


def _write_labels_csv(path, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "label"])
        for index, label in enumerate(labels):
            writer.writerow([index, int(label)])


def _dump_json(payload, path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(args) -> int:
    auto = args.clusters == "auto"
    if args.algorithm == "km" and auto:
        raise ValueError("the km algorithm needs an explicit cluster count")
    requested = None if auto else int(args.clusters)
    rows, truth, obs_len, grid = _input_spectra(args, uses_neighbors=args.algorithm == "nnpc", uses_max_clusters=auto,
                                                n_clusters=requested)

    report = {
        "input": str(args.input),
        "algorithm": args.algorithm,
        "n_obs": len(rows),
        "obs_len": obs_len,
        "window": {"kind": args.window, "std": args.std if args.window == "gaussian" else None},
        "grid_size": grid,
        "normalize_psd": bool(args.normalize_psd),
        "pad_zeros": bool(args.pad_zeros),
        "subtract_mean": bool(args.subtract_mean),
        "seed": args.seed,
    }
    if args.algorithm == "nnpc":
        result = nnpc_from_spectra(rows, args.neighbors, requested, RngStream(args.seed), args.max_clusters)
        labels = result.labels
        report["neighbors"] = args.neighbors
        report["n_clusters"] = result.n_clusters
        if auto:
            report["estimated_clusters"] = result.n_clusters
    else:
        labels = km_from_spectra(rows, requested)
        report["n_clusters"] = requested

    if truth is not None:
        report["clustering_error"] = clustering_error(labels, truth)
        report["confusion_entropy"] = confusion_entropy(labels, truth)

    _write_labels_csv(args.labels_out, labels)
    _dump_json(report, args.report_out)
    return 0


# ---------------------------------------------------------------------------
# benchmark configuration


def _load_config(path) -> dict:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    return config


def _build_models(config):
    if "models" in config and "preset" in config:
        raise ValueError("config must give either 'models' or 'preset', not both")
    if "models" in config:
        entries = config["models"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("'models' must be a non-empty list of {'a': [...], 'b': [...]} objects")
        models = []
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != {"a", "b"}:
                raise ValueError("each model needs exactly the keys 'a' and 'b'")
            models.append(normalize_model(make_model(entry["a"], entry["b"])))
        return models
    preset = config.get("preset", "arma3")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    return PRESETS[preset]()


def _int_list(config, key, minimum):
    raw = config.get(key)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"'{key}' must be a non-empty list")
    values = []
    for item in raw:
        if not isinstance(item, int) or isinstance(item, bool) or item < minimum:
            raise ValueError(f"'{key}' entries must be integers >= {minimum}")
        values.append(item)
    return values


def _float_list(config, key, default):
    raw = config.get(key, default)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"'{key}' must be a non-empty list")
    values = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not 0 <= item < math.inf:
            raise ValueError(f"'{key}' entries must be finite nonnegative numbers, got {item!r}")
        values.append(float(item))
    return values


def _int_option(config, key, default, minimum):
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"'{key}' must be an integer >= {minimum}")
    return value


def _parse_config(config) -> dict:
    """Validate the shared benchmark config schema and fill in defaults."""
    models = _build_models(config)
    window_cfg = config.get("window", {"kind": "gaussian", "std": DEFAULT_GAUSSIAN_STD})
    if not isinstance(window_cfg, dict) or "kind" not in window_cfg:
        raise ValueError("'window' must be an object with at least a 'kind'")
    if set(window_cfg) - {"kind", "std"}:
        raise ValueError("'window' accepts only 'kind' and 'std'")
    std = window_cfg.get("std", DEFAULT_GAUSSIAN_STD)
    if isinstance(std, bool) or not isinstance(std, (int, float)) or not 0 < std < math.inf:
        raise ValueError(f"'window' std must be a positive finite number, got {std!r}")
    return {
        "models": models,
        "M_list": _int_list(config, "M_list", minimum=2),
        "sigma2_list": _float_list(config, "sigma2_list", default=[0.0]),
        "trials": _int_option(config, "trials", DEFAULT_TRIALS, minimum=1),
        "n_per_model": _int_option(config, "n_per_model", DEFAULT_N_PER_MODEL, minimum=1),
        "q": _int_option(config, "q", DEFAULT_NEIGHBORS, minimum=1),
        "window_kind": window_cfg["kind"],
        "window_std": float(std),
        "grid_factor": _int_option(config, "grid_factor", DEFAULT_GRID_FACTOR, minimum=2),
        "seed": _int_option(config, "seed", 0, minimum=0),
    }


def _trial_workers(tasks: int) -> int:
    """Threads for synth-bench trials: one per CPU this process may run on, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


def _map_trials(trial, tasks: list) -> list:
    """[trial(task) for task in tasks], run by this thread and _trial_workers - 1 more.

    Each thread takes the next task in order until none is left. Once a
    trial raises, no thread takes another; the running ones finish, and the
    failure of the earliest task is raised, the one a serial loop would
    meet first. Working on this thread, rather than waiting on a pool, keeps
    one malloc arena fewer, about 6 MB of peak RSS on a synth-mc job.
    """
    results = [None] * len(tasks)
    failures = {}
    queue = iter(enumerate(tasks))
    lock = threading.Lock()

    def next_task():
        with lock:
            return None if failures else next(queue, None)

    def work():
        while (item := next_task()) is not None:
            index, task = item
            try:
                results[index] = trial(task)
            except BaseException as exc:
                with lock:
                    failures[index] = exc

    helpers = [threading.Thread(target=work) for _ in range(_trial_workers(len(tasks)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _synth_trial(cfg: dict, windows: dict, task) -> dict:
    """The clustering error of each algorithm in one synth-bench trial; task is (M, sigma2, stream).

    The samples go chunk by chunk from the generator into the trial's one
    weighted spectra array, which both algorithms read.
    """
    obs_len, sigma2, stream = task
    n_clusters = len(cfg["models"])
    grid_size = next_pow2(cfg["grid_factor"] * obs_len)
    spectra, truth = benchmark_rows(
        cfg["models"], cfg["n_per_model"], obs_len, sigma2, RngStream(cfg["seed"], stream),
        partial(weighted_chunk_spectra, window=windows[obs_len], grid_size=grid_size),
    )
    nnpc_result = nnpc_from_spectra(spectra, cfg["q"], n_clusters, rng=RngStream(cfg["seed"], stream + 1))
    return {
        "nnpc": clustering_error(nnpc_result.labels, truth),
        "km": clustering_error(km_from_spectra(spectra, n_clusters), truth),
    }


def run_synth_bench(config: dict) -> list[dict]:
    """Monte Carlo benchmark over all (M, sigma2) combinations in the config.

    Both algorithms see the same datasets and spectra trial by trial.
    Trial t of combination c draws from stream 2 (c trials + t) of the seed
    (and its nnpc from the next stream), so the trials are independent. They
    run on one thread per CPU this process may use (_map_trials), and each
    trial holds only its spectra array and one chunk of samples. Results are
    collected in task order, so the output does not depend on the thread
    count, and a failure stops the run with the serial loop's first error.
    Returns one row per (M, sigma2, algorithm) with the mean and population
    std of the clustering error, sorted for stable output.
    """
    cfg = _parse_config(config)
    n_obs = len(cfg["models"]) * cfg["n_per_model"]
    if not 1 <= cfg["q"] <= n_obs - 1:
        raise ValueError(f"'q' must be in 1..{n_obs - 1} for {n_obs} observations, got {cfg['q']}")

    combos = sorted(set(product(cfg["M_list"], cfg["sigma2_list"])))
    trials = cfg["trials"]
    # every window is built, and a bad one fails, before any trial runs
    windows = {m: make_window(cfg["window_kind"], m, cfg["window_std"]) for m in sorted(set(cfg["M_list"]))}
    tasks = [
        (obs_len, sigma2, 2 * (combo_index * trials + trial))
        for combo_index, (obs_len, sigma2) in enumerate(combos)
        for trial in range(trials)
    ]
    errors = _map_trials(partial(_synth_trial, cfg, windows), tasks)
    rows = []
    for combo_index, (obs_len, sigma2) in enumerate(combos):
        combo_errors = errors[combo_index * trials : (combo_index + 1) * trials]
        for algorithm in ("km", "nnpc"):
            ce = np.asarray([trial_errors[algorithm] for trial_errors in combo_errors])
            rows.append(
                {
                    "M": obs_len,
                    "sigma2": sigma2,
                    "algorithm": algorithm,
                    "mean_ce": float(ce.mean()),
                    "std_ce": float(ce.std()),
                    "trials": trials,
                }
            )
    rows.sort(key=lambda row: (row["M"], row["sigma2"], row["algorithm"]))
    return rows


def cmd_synth_bench(args) -> int:
    rows = run_synth_bench(_load_config(args.config))
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["M", "sigma2", "algorithm", "mean_ce", "std_ce", "trials"])
        for row in rows:
            writer.writerow(
                [row["M"], repr(row["sigma2"]), row["algorithm"], repr(row["mean_ce"]), repr(row["std_ce"]), row["trials"]]
            )
    sys.stdout.write(f"wrote {args.out} ({len(rows)} rows)\n")
    return 0


# ---------------------------------------------------------------------------
# condition checking


def run_check_condition(config: dict) -> list[dict]:
    """ConditionReport dicts for every (M, sigma2) combination in the config."""
    cfg = _parse_config(config)
    models = cfg["models"]
    if len(models) < 2:
        raise ValueError("the clustering condition needs at least two models")
    n_obs = len(models) * cfg["n_per_model"]
    reports = []
    for obs_len, sigma2 in sorted(set(product(cfg["M_list"], cfg["sigma2_list"]))):
        window = make_window(cfg["window_kind"], obs_len, cfg["window_std"])
        reports.append(asdict(check_condition(models, window, n_obs, sigma2)))
    return reports


def cmd_check_condition(args) -> int:
    reports = run_check_condition(_load_config(args.config))
    payload = reports[0] if len(reports) == 1 else reports
    _dump_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# eigengap estimate


def cmd_estimate_l(args) -> int:
    rows = _input_spectra(args, uses_neighbors=True, uses_max_clusters=True, single_needs_no_neighbors=True)[0]
    if len(rows) == 1:
        _dump_json({"estimate": 1, "eigenvalues": [0.0]})
        return 0
    estimate, eigenvalues = estimate_count_from_spectra(rows, args.neighbors, args.max_clusters)
    _dump_json({"estimate": estimate, "eigenvalues": [float(v) for v in eigenvalues]})
    return 0


# ---------------------------------------------------------------------------
# motion-capture conversion


def _extract_column(path, column: str) -> np.ndarray:
    """Pull one marker trajectory out of a per-sequence CSV file.

    `column` is either a zero-based index or a header name; a header row is
    detected automatically in index mode and required in name mode.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = [record for record in _csv_rows(path, handle) if any(cell.strip() for cell in record)]
    if not records:
        raise ValueError(f"{path}: empty sequence file")
    try:
        index = int(column)
        named = False
    except ValueError:
        named = True
    if named:
        header = [cell.strip() for cell in records[0]]
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in the header")
        index = header.index(column)
        records = records[1:]
    else:
        if index < 0:
            raise ValueError("column index must be nonnegative")
        try:
            float(records[0][index])
        except (ValueError, IndexError):
            records = records[1:]  # header row in index mode
    values = []
    for line_no, record in enumerate(records, start=1):
        if index >= len(record):
            raise ValueError(f"{path}: row {line_no} has no column {index}")
        try:
            values.append(float(record[index]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {line_no}: non-numeric value in column {index}") from exc
    if len(values) < 2:
        raise ValueError(f"{path}: sequence needs at least 2 frames")
    return np.asarray(values)


def _load_label_map(path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for record in _csv_rows(path, handle):
            record = [cell.strip() for cell in record]
            if len(record) < 2 or not record[0]:
                continue
            labels[record[0]] = record[1]
    if not labels:
        raise ValueError(f"{path}: no (filename, label) pairs found")
    return labels


def cmd_convert_mocap(args) -> int:
    label_map = _load_label_map(args.labels_csv) if args.labels_csv else None
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for path in args.sequences:
            sequence = _extract_column(path, args.column)
            row = [repr(float(v)) for v in sequence]
            if label_map is not None:
                name = Path(path).name
                if name not in label_map:
                    raise ValueError(f"{args.labels_csv}: no label for sequence file {name!r}")
                row = [label_map[name]] + row
            writer.writerow(row)
    sys.stdout.write(f"wrote {args.out} ({len(args.sequences)} sequences)\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _clusters_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'auto'") from None
    if value < 1:
        raise argparse.ArgumentTypeError("cluster count must be positive")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a nonnegative integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _add_observation_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="CSV file, one observation per row")
    parser.add_argument("--truth", action="store_true", help="first CSV column holds the true labels")
    parser.add_argument("--pad-zeros", action="store_true", help="zero-pad ragged rows to the longest one")
    parser.add_argument("--subtract-mean", action="store_true", help="remove each observation's sample mean")
    parser.add_argument("--normalize-psd", action="store_true", help="rescale every PSD estimate to unit power")
    parser.add_argument("--window", choices=WINDOW_KINDS, default="gaussian")
    parser.add_argument("--std", type=float, default=DEFAULT_GAUSSIAN_STD, help="gaussian window std")
    parser.add_argument("--grid-factor", type=int, default=DEFAULT_GRID_FACTOR,
                        help="frequency grid size = next power of two >= factor * M")
    parser.add_argument("--neighbors", type=int, default=DEFAULT_NEIGHBORS,
                        help="nearest-neighbor count (config field 'q')")
    parser.add_argument("--max-clusters", type=int, default=10,
                        help="cap for the eigengap cluster-count estimate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdcluster",
        description="Cluster stationary time-series observations by spectral-density distance.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster the observations in a CSV file")
    _add_observation_options(cluster)
    cluster.add_argument("--algorithm", choices=("nnpc", "km"), default="nnpc")
    cluster.add_argument("--clusters", type=_clusters_arg, default="auto",
                         help="cluster count, or 'auto' for the eigengap estimate (nnpc only)")
    cluster.add_argument("--seed", type=_seed_arg, default=0)
    cluster.add_argument("--labels-out", default="labels.csv", help="output CSV of (id, label)")
    cluster.add_argument("--report-out", default=None, help="JSON report path (default: stdout)")
    cluster.set_defaults(func=cmd_cluster)

    bench = sub.add_parser("synth-bench", help="Monte Carlo benchmark on synthetic ARMA data")
    bench.add_argument("--config", required=True, help="JSON benchmark configuration")
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.set_defaults(func=cmd_synth_bench)

    condition = sub.add_parser("check-condition", help="evaluate the clustering condition for a model set")
    condition.add_argument("--config", required=True, help="JSON configuration (same schema as synth-bench)")
    condition.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    condition.set_defaults(func=cmd_check_condition)

    estimate = sub.add_parser("estimate-l", help="eigengap estimate of the cluster count")
    _add_observation_options(estimate)
    estimate.set_defaults(func=cmd_estimate_l)

    convert = sub.add_parser("convert-mocap", help="collect one marker column per sequence file into a dataset CSV")
    convert.add_argument("sequences", nargs="+", help="per-sequence CSV files of marker trajectories")
    convert.add_argument("--column", required=True, help="marker column: zero-based index or header name")
    convert.add_argument("--out", required=True, help="output CSV path (one observation per row)")
    convert.add_argument("--labels-csv", default=None,
                         help="optional CSV of (sequence file name, label) to prepend a truth column")
    convert.set_defaults(func=cmd_convert_mocap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
