"""Command-line front end: clustering runs, the synthetic benchmark,
guarantee checks, eigengap estimation, and motion-capture conversion.

Exit codes: 0 on success, 2 for parameter or validation problems and for
allocations that do not fit in memory, 1 for I/O problems. For a fixed
input, configuration, and seed every output file is byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, reader
from .generators import benchmark_models, benchmark_rows, make_model, normalize_model
from .km import km_from_spectra
from .metrics import clustering_error, confusion_entropy
from .nnpc import estimate_count_from_spectra, nnpc_from_spectra
from .numerics import RngStream, ordered_map
from .spectra import DEFAULT_GAUSSIAN_STD, DEFAULT_GRID_FACTOR, WINDOW_KINDS, make_window, next_pow2
from .spectra import weighted_chunk_spectra, weighted_spectra
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


def _input_spectra(args, single_needs_no_neighbors: bool = False):
    """The front end of cluster and estimate-l: the weighted spectra of the input, (rows, truth, M, F).

    Options are checked as args.algorithm and args.clusters use them. Those
    bad for any input are rejected before the input is parsed, and the
    counts before the PSD stage, with the usual messages. The samples are
    dropped once estimated, so clustering runs beside the spectra alone.
    """
    uses_neighbors, auto = args.algorithm == "nnpc", args.clusters == "auto"
    if uses_neighbors and args.neighbors < 1:
        n_obs = sum(1 for _ in reader.records(args.input))  # the reader's row count, no sample parsed
        raise ValueError(f"neighbor count must be in 1..{n_obs - 1}, got {args.neighbors}")
    if auto and args.max_clusters < 1:
        raise ValueError(f"the cluster-count cap must be positive, got {args.max_clusters}")
    make_window(args.window, 2, args.std)  # the window options, checked on the shortest observation's window
    if args.grid_factor < 2:
        raise ValueError("grid factor must be >= 2")
    observations, truth = reader.read_observation_csv(args.input, args.truth, args.pad_zeros, args.subtract_mean)
    n_obs, obs_len = observations.shape
    if not auto and args.clusters > n_obs:
        raise ValueError(f"cluster count {args.clusters} exceeds the {n_obs} observations")
    if uses_neighbors and args.neighbors > n_obs - 1 and not (single_needs_no_neighbors and n_obs == 1):
        raise ValueError(f"neighbor count must be in 1..{n_obs - 1}, got {args.neighbors}")
    grid = next_pow2(args.grid_factor * obs_len)
    window = make_window(args.window, obs_len, args.std)
    return weighted_spectra(observations, window, grid, args.normalize_psd), truth, obs_len, grid


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


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
    requested = None if auto else args.clusters
    rows, truth, obs_len, grid = _input_spectra(args)

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

    _write_csv(args.labels_out, [["id", "label"], *enumerate(map(int, labels))])
    _dump_json(report, args.report_out)
    return 0


# ---------------------------------------------------------------------------
# benchmark configuration


def _load_config(path) -> dict:
    # \r\n and \r read as \n, as in text mode, so a JSON error gives the same line, column and char
    text = "".join(reader.text_lines(path)).replace("\r\n", "\n").replace("\r", "\n")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    return config


def _finite_float(item):
    """A JSON number as a finite float, or None for anything else: booleans,
    strings, NaN, the infinities and integers beyond the float range."""
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        return None
    try:
        value = float(item)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _build_models(config):
    if "models" in config and "preset" in config:
        raise ValueError("config must give either 'models' or 'preset', not both")
    if "models" in config:
        entries = config["models"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("'models' must be a non-empty list of {'a': [...], 'b': [...]} objects")
        models = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"a", "b"}:
                raise ValueError(f"'models'[{index}] needs exactly the keys 'a' and 'b'")
            coefficients = []
            for key in ("a", "b"):
                values = [_finite_float(v) for v in entry[key]] if isinstance(entry[key], list) else []
                if not values or None in values:
                    raise ValueError(f"'models'[{index}] '{key}' must be a non-empty list of finite numbers")
                coefficients.append(values)
            try:
                models.append(normalize_model(make_model(*coefficients)))
            except ValueError as exc:
                raise ValueError(f"'models'[{index}]: {exc}") from exc
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
        value = _finite_float(item)
        if value is None or value < 0:
            raise ValueError(f"'{key}' entries must be finite nonnegative numbers, got {item!r}")
        values.append(value)
    return values


def _int_option(config, key, default, minimum):
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"'{key}' must be an integer >= {minimum}")
    return value


def _parse_config(config) -> dict:
    """Validate the shared benchmark config schema and fill in defaults: the sorted distinct (M, sigma2)
    combinations, and one window per M, built (and a bad one failing) once every key has been checked; an M
    whose window cannot be allocated is a ValueError naming its 'M_list' entry."""
    models = _build_models(config)
    window_cfg = config.get("window", {"kind": "gaussian", "std": DEFAULT_GAUSSIAN_STD})
    if not isinstance(window_cfg, dict) or "kind" not in window_cfg:
        raise ValueError("'window' must be an object with at least a 'kind'")
    if set(window_cfg) - {"kind", "std"}:
        raise ValueError("'window' accepts only 'kind' and 'std'")
    raw_std = window_cfg.get("std", DEFAULT_GAUSSIAN_STD)
    std = _finite_float(raw_std)
    if std is None or std <= 0:
        raise ValueError(f"'window' std must be a positive finite number, got {raw_std!r}")
    lengths = _int_list(config, "M_list", minimum=2)
    cfg = {
        "models": models,
        "combos": sorted(set(product(lengths, _float_list(config, "sigma2_list", default=[0.0])))),
        "trials": _int_option(config, "trials", DEFAULT_TRIALS, minimum=1),
        "n_per_model": _int_option(config, "n_per_model", DEFAULT_N_PER_MODEL, minimum=1),
        "q": _int_option(config, "q", DEFAULT_NEIGHBORS, minimum=1),
        "grid_factor": _int_option(config, "grid_factor", DEFAULT_GRID_FACTOR, minimum=2),
        "seed": _int_option(config, "seed", 0, minimum=0),
        "windows": {},
    }
    make_window(window_cfg["kind"], 2, std)  # the window options first, so a failure below is the length's
    for length in sorted(set(lengths)):
        try:
            cfg["windows"][length] = make_window(window_cfg["kind"], length, std)
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"'M_list' entry {length}: its window cannot be built ({exc})") from exc
    return cfg


def _map_trials(trial, count: int) -> np.ndarray:
    """The (count, 2) array whose row i is trial(i), run on one thread per CPU (numerics.ordered_map).

    The array is allocated before any trial runs, so a count whose results
    cannot be held is a ValueError naming 'trials' at once. The calling
    thread runs trials too, which keeps one malloc arena fewer, about 6 MB
    of peak RSS on a synth-mc job. Once a trial raises, no trial starts, and
    the failure of the earliest index is raised, the one a serial loop would
    meet first.
    """
    try:
        results = np.empty((count, 2))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"'trials' is too large: the results of {count} trials cannot be held ({exc})") from exc
    for index, errors in enumerate(ordered_map(trial, range(count))):
        results[index] = errors
    return results


def _synth_trial(cfg: dict, index: int) -> tuple[float, float]:
    """The (km, nnpc) clustering errors of synth-bench trial index, of combination cfg["combos"][index // trials].

    Its dataset draws from stream 2 index of the seed and its nnpc from
    stream 2 index + 1. The samples go chunk by chunk from the generator
    into the trial's one weighted spectra array, which both algorithms read.
    """
    obs_len, sigma2 = cfg["combos"][index // cfg["trials"]]
    n_clusters = len(cfg["models"])
    grid_size = next_pow2(cfg["grid_factor"] * obs_len)
    spectra, truth = benchmark_rows(
        cfg["models"], cfg["n_per_model"], obs_len, sigma2, RngStream(cfg["seed"], 2 * index),
        partial(weighted_chunk_spectra, window=cfg["windows"][obs_len], grid_size=grid_size),
    )
    nnpc_labels = nnpc_from_spectra(spectra, cfg["q"], n_clusters, rng=RngStream(cfg["seed"], 2 * index + 1)).labels
    return clustering_error(km_from_spectra(spectra, n_clusters), truth), clustering_error(nnpc_labels, truth)


def run_synth_bench(config: dict) -> list[dict]:
    """Monte Carlo benchmark over all (M, sigma2) combinations in the config.

    Both algorithms see the same datasets and spectra trial by trial. Trial
    t of combination c has index c trials + t (_synth_trial), so the
    trials draw from disjoint streams of the seed. They run on one thread
    per CPU this process may use (_map_trials), each holding only its
    spectra array and one chunk of samples, and write their errors into one
    (combinations, trials, 2) array, so the output does not depend on the
    thread count. A trial count whose results cannot be held, or a failing
    trial, stops the run with a ValueError (the serial loop's first error).
    Returns one row per (M, sigma2, algorithm) with the mean and population
    std of the clustering error, ordered by M, then sigma2, then algorithm;
    repeated list entries collapse into one combination.
    """
    cfg = _parse_config(config)
    n_obs = len(cfg["models"]) * cfg["n_per_model"]
    if not 1 <= cfg["q"] <= n_obs - 1:
        raise ValueError(f"'q' must be in 1..{n_obs - 1} for {n_obs} observations, got {cfg['q']}")

    combos, trials = cfg["combos"], cfg["trials"]
    errors = _map_trials(partial(_synth_trial, cfg), len(combos) * trials)
    return [
        {"M": obs_len, "sigma2": sigma2, "algorithm": algorithm, "mean_ce": float(ce.mean()), "std_ce": float(ce.std()),
         "trials": trials}
        for (obs_len, sigma2), combo_errors in zip(combos, errors.reshape(len(combos), trials, 2))
        for algorithm, ce in zip(("km", "nnpc"), combo_errors.T)
    ]


def cmd_synth_bench(args) -> int:
    rows = run_synth_bench(_load_config(args.config))
    _write_csv(args.out, [
        ["M", "sigma2", "algorithm", "mean_ce", "std_ce", "trials"],
        *([row["M"], repr(row["sigma2"]), row["algorithm"], repr(row["mean_ce"]), repr(row["std_ce"]), row["trials"]]
          for row in rows),
    ])
    sys.stdout.write(f"wrote {args.out} ({len(rows)} rows)\n")
    return 0


# ---------------------------------------------------------------------------
# condition checking


def run_check_condition(config: dict) -> list[dict]:
    """ConditionReport dicts for every (M, sigma2) combination in the config."""
    cfg = _parse_config(config)
    models = cfg["models"]
    n_obs = len(models) * cfg["n_per_model"]
    return [asdict(check_condition(models, cfg["windows"][obs_len], n_obs, sigma2))
            for obs_len, sigma2 in cfg["combos"]]


def cmd_check_condition(args) -> int:
    reports = run_check_condition(_load_config(args.config))
    payload = reports[0] if len(reports) == 1 else reports
    _dump_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# eigengap estimate


def cmd_estimate_l(args) -> int:
    rows = _input_spectra(args, single_needs_no_neighbors=True)[0]
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
    records = list(reader.records(path))
    if not records:
        raise ValueError(f"{path}: empty sequence file")
    try:
        index = int(column)
        named = False
    except ValueError:
        named = True
    if named:
        header = [cell.strip() for cell in records[0][1]]
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in the header")
        index = header.index(column)
        records = records[1:]
    else:
        if index < 0:
            raise ValueError("column index must be nonnegative")
        try:
            float(records[0][1][index])
        except (ValueError, IndexError):
            records = records[1:]  # header row in index mode
    values = []
    for line_no, record in records:
        if index >= len(record):
            raise ValueError(f"{path}: line {line_no} has no column {index}")
        try:
            values.append(float(record[index]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: non-numeric value in column {index}") from exc
        if not math.isfinite(values[-1]):
            raise ValueError(f"{path}: line {line_no}: non-finite value in column {index}")
    if len(values) < 2:
        raise ValueError(f"{path}: sequence needs at least 2 frames")
    return np.asarray(values)


def _load_label_map(path) -> dict[str, str]:
    labels = {}
    for line_no, record in reader.records(path):
        record = [cell.strip() for cell in record]
        if len(record) < 2 or not record[0]:
            continue
        if not record[1]:
            raise ValueError(f"{path}: line {line_no}: blank label for sequence file {record[0]!r}")
        labels[record[0]] = record[1]
    if not labels:
        raise ValueError(f"{path}: no (filename, label) pairs found")
    return labels


def cmd_convert_mocap(args) -> int:
    label_map = _load_label_map(args.labels_csv) if args.labels_csv else None
    rows = []  # every row is built before the output is opened, so a failure writes nothing
    for path in args.sequences:
        row = [repr(float(v)) for v in _extract_column(path, args.column)]
        if label_map is not None:
            name = Path(path).name
            if name not in label_map:
                raise ValueError(f"{args.labels_csv}: no label for sequence file {name!r}")
            row = [label_map[name]] + row
        rows.append(row)
    _write_csv(args.out, rows)
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
    estimate.set_defaults(func=cmd_estimate_l, algorithm="nnpc", clusters="auto")  # what _input_spectra checks

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
