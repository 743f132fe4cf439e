"""Command-line interface tests: subcommand behavior, file formats,
byte-level determinism, and exit codes (0 ok, 2 validation, 1 I/O)."""

import csv
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_make_benchmark_dataset

import psdcluster
import psdcluster.cli
import psdcluster.distances
import psdcluster.generators
import psdcluster.nnpc
import psdcluster.numerics
import psdcluster.reader
import psdcluster.spectra
from psdcluster.cli import main, run_synth_bench
from psdcluster.distances import distance_matrix
from psdcluster.generators import benchmark_models, make_benchmark_dataset
from psdcluster.km import km_from_distances, km_from_spectra
from psdcluster.metrics import clustering_error
from psdcluster.nnpc import (
    build_adjacency,
    estimate_cluster_count,
    nearest_neighbor_sets,
    nnpc_from_distances,
    nnpc_from_spectra,
    normalized_laplacian,
)
from psdcluster.numerics import PSD_CHUNK_BYTES, RngStream, eig_symmetric
from psdcluster.reader import _exact_scaling_powers, _parse_sample_lines, read_observation_csv
from psdcluster.spectra import WINDOW_KINDS, make_window, weighted_spectra


@pytest.fixture()
def dataset_csv(tmp_path):
    """Two well-separated models, 6 observations each, with a truth column."""
    models = [benchmark_models()[0], benchmark_models()[2]]
    data = make_benchmark_dataset(models, 6, 512, 0.0, RngStream(7))
    path = tmp_path / "obs.csv"
    names = ["walk", "run"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row, label in zip(data.observations, data.labels):
            writer.writerow([names[label]] + [repr(float(v)) for v in row])
    return path


def write_dataset_csv(tmp_path, data):
    """Write a labeled dataset as a cluster input with a truth column; return its path."""
    path = tmp_path / "obs.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row, label in zip(data.observations, data.labels):
            writer.writerow([f"m{label}"] + [repr(float(v)) for v in row])
    return path


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def checkout_env(**extra):
    """Environment for a fresh interpreter that imports this psdcluster."""
    src = str(Path(psdcluster.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_under_blas_threads(threads, *argv):
    """Run the command line in a fresh interpreter with the BLAS thread count pinned."""
    env = checkout_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "psdcluster", *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestCluster:
    def test_known_cluster_count(self, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        labels_path = tmp_path / "labels.csv"
        code = main(
            [
                "cluster",
                str(dataset_csv),
                "--truth",
                "--clusters",
                "2",
                "--neighbors",
                "3",
                "--labels-out",
                str(labels_path),
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["algorithm"] == "nnpc"
        assert report["n_obs"] == 12
        assert report["obs_len"] == 512
        assert report["grid_size"] == 2048
        assert report["n_clusters"] == 2
        assert report["clustering_error"] == 0.0
        assert report["confusion_entropy"] == 0.0
        with open(labels_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "label"]
        assert len(rows) == 13
        assert {row[1] for row in rows[1:]} == {"0", "1"}

    def test_auto_cluster_count(self, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "cluster",
                str(dataset_csv),
                "--truth",
                "--neighbors",
                "3",
                "--labels-out",
                str(tmp_path / "labels.csv"),
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["estimated_clusters"] == 2
        assert report["clustering_error"] == 0.0

    def test_km_algorithm(self, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "cluster",
                str(dataset_csv),
                "--truth",
                "--algorithm",
                "km",
                "--clusters",
                "2",
                "--labels-out",
                str(tmp_path / "labels.csv"),
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["clustering_error"] == 0.0
        assert "neighbors" not in report

    def test_a_core_smaller_than_the_cluster_count(self, tmp_path):
        """Two unit-variance rows and six scaled by 1e3, 1e5, ..., 1e13: one neighbor leaves the six
        isolated, the core of two takes two clusters, the first isolated row the third, and the rest
        join their nearest placed row."""
        rows = np.random.default_rng(0).standard_normal((8, 64))
        rows[2:] *= 10.0 ** np.arange(3, 15, 2)[:, None]
        path = tmp_path / "obs.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        labels_path = tmp_path / "labels.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["cluster", str(path), "--neighbors", "1", "--clusters", "3",
                         "--labels-out", str(labels_path), "--report-out", str(tmp_path / "report.json")])
        assert code == 0
        assert [str(w.message) for w in caught] == ["6 isolated node(s) in the neighborhood graph"]
        labels = [0, 1, 2, 2, 2, 2, 2, 2]
        assert labels_path.read_text() == "id,label\n" + "".join(f"{i},{label}\n" for i, label in enumerate(labels))

    @pytest.mark.parametrize("options", [["--clusters", "auto"], ["--algorithm", "km", "--clusters", "3"]],
                             ids=["nnpc", "km"])
    def test_clusters_without_a_square_matrix(self, tmp_path, monkeypatch, options):
        """Labels and report equal the dense path's, with every N x N builder made to raise.

        300 rows fill one q-NN block and part of a second. Clustering reads
        the array of PSD estimates itself, weighted in place, not a copy.
        """
        path = write_dataset_csv(tmp_path, make_benchmark_dataset(benchmark_models(), 100, 128, 0.0, RngStream(9)))

        def run(tag):
            labels_path, report_path = tmp_path / f"labels-{tag}.csv", tmp_path / f"report-{tag}.json"
            code = main(["cluster", str(path), "--truth", *options,
                         "--labels-out", str(labels_path), "--report-out", str(report_path)])
            assert code == 0
            return labels_path.read_bytes(), report_path.read_bytes()

        estimate = psdcluster.spectra.estimate_dataset_psds
        with monkeypatch.context() as patch:
            # the dense oracle: distance_matrix, then nnpc_from_distances or km_from_distances
            matrices = []

            def dense_estimate(*args, **kwargs):
                psds = estimate(*args, **kwargs)
                matrices.append(distance_matrix(psds))
                return psds

            patch.setattr(psdcluster.spectra, "estimate_dataset_psds", dense_estimate)
            patch.setattr(psdcluster.cli, "nnpc_from_spectra",
                          lambda rows, *args, **kwargs: nnpc_from_distances(matrices.pop(), *args, **kwargs))
            patch.setattr(psdcluster.cli, "km_from_spectra",
                          lambda rows, n_clusters: km_from_distances(matrices.pop(), n_clusters))
            expected = run("dense")

        def refuse(*args, **kwargs):
            raise AssertionError("an N x N distance matrix was built")

        for target in ("psdcluster.cli.distance_matrix", "psdcluster.distances.squareform",
                       "psdcluster.distances.validate_distance_matrix", "psdcluster.nnpc.validate_distance_matrix",
                       "psdcluster.km.validate_distance_matrix"):
            monkeypatch.setattr(target, refuse)
        estimates, clustered = [], []

        def recording_estimate(*args, **kwargs):
            estimates.append(estimate(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(psdcluster.spectra, "estimate_dataset_psds", recording_estimate)
        for name in ("nnpc_from_spectra", "km_from_spectra"):
            cluster = getattr(psdcluster.cli, name)

            def recording_cluster(rows, *args, cluster=cluster, **kwargs):
                clustered.append(rows)
                return cluster(rows, *args, **kwargs)

            monkeypatch.setattr(psdcluster.cli, name, recording_cluster)
        assert run("blocked") == expected
        assert len(estimates) == len(clustered) == 1
        assert clustered[0] is estimates[0]

    def test_observations_are_freed_before_clustering(self, dataset_csv, tmp_path, monkeypatch):
        refs, alive = [], []
        read = psdcluster.reader.read_observation_csv

        def recording_read(*args, **kwargs):
            observations, truth = read(*args, **kwargs)
            refs.append(weakref.ref(observations))
            return observations, truth

        cluster = psdcluster.cli.nnpc_from_spectra

        def checking_cluster(*args, **kwargs):
            gc.collect()
            alive.extend(ref for ref in refs if ref() is not None)
            return cluster(*args, **kwargs)

        monkeypatch.setattr(psdcluster.reader, "read_observation_csv", recording_read)
        monkeypatch.setattr(psdcluster.cli, "nnpc_from_spectra", checking_cluster)
        code = main(["cluster", str(dataset_csv), "--truth", "--clusters", "2",
                     "--labels-out", str(tmp_path / "labels.csv"), "--report-out", str(tmp_path / "report.json")])
        assert code == 0
        assert len(refs) == 1
        assert alive == []

    def test_km_needs_explicit_count(self, dataset_csv, tmp_path, capsys):
        code = main(
            [
                "cluster",
                str(dataset_csv),
                "--truth",
                "--algorithm",
                "km",
                "--labels-out",
                str(tmp_path / "labels.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_outputs_are_byte_deterministic(self, dataset_csv, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"report-{tag}.json"
            labels_path = tmp_path / f"labels-{tag}.csv"
            main(
                [
                    "cluster",
                    str(dataset_csv),
                    "--truth",
                    "--clusters",
                    "2",
                    "--neighbors",
                    "3",
                    "--seed",
                    "5",
                    "--labels-out",
                    str(labels_path),
                    "--report-out",
                    str(report_path),
                ]
            )
            outputs.append((report_path.read_bytes(), labels_path.read_bytes()))
        assert outputs[0] == outputs[1]

    @staticmethod
    def outputs_under_blas_threads(tmp_path, options):
        """(labels, report) bytes of `cluster` in fresh interpreters with 1 and 2 BLAS threads."""
        # 210 rows put the graph above the dense-solver cutoff, and it has two
        # connected components, so the zero eigenspace is repeated
        path = write_dataset_csv(tmp_path, make_benchmark_dataset(benchmark_models(), 70, 256, 0.0, RngStream(5)))
        outputs = []
        for threads in ("1", "2"):
            labels_path, report_path = tmp_path / f"labels-{threads}.csv", tmp_path / f"report-{threads}.json"
            run_under_blas_threads(threads, "cluster", str(path), "--truth", *options,
                                   "--labels-out", str(labels_path), "--report-out", str(report_path))
            outputs.append((labels_path.read_bytes(), report_path.read_bytes()))
        return outputs

    def test_outputs_are_identical_across_blas_thread_counts(self, tmp_path):
        outputs = self.outputs_under_blas_threads(tmp_path, ["--clusters", "auto"])
        assert outputs[0] == outputs[1]
        assert read_json(tmp_path / "report-1.json")["estimated_clusters"] == 3

    def test_km_outputs_are_identical_across_blas_thread_counts(self, tmp_path):
        outputs = self.outputs_under_blas_threads(tmp_path, ["--algorithm", "km", "--clusters", "2"])
        assert outputs[0] == outputs[1]
        assert read_json(tmp_path / "report-1.json")["n_clusters"] == 2

    def test_report_goes_to_stdout_by_default(self, dataset_csv, tmp_path, capsys):
        code = main(
            [
                "cluster",
                str(dataset_csv),
                "--truth",
                "--clusters",
                "2",
                "--neighbors",
                "3",
                "--labels-out",
                str(tmp_path / "labels.csv"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clustering_error"] == 0.0

    def test_ragged_rows_need_padding_flag(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,3.0,4.0\n5.0,6.0\n")
        code = main(["cluster", str(path), "--clusters", "2", "--neighbors", "1",
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        capsys.readouterr()

    def test_padding_flag_accepts_ragged_rows(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,3.0,4.0\n5.0,6.0\n1.0,1.0,2.0\n")
        code = main(["cluster", str(path), "--pad-zeros", "--clusters", "2", "--neighbors", "1",
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["obs_len"] == 4
        assert report["pad_zeros"] is True

    def test_non_numeric_sample_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops,3.0\n")
        code = main(["cluster", str(path), "--clusters", "1",
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "nope.csv"), "--clusters", "1",
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 1
        capsys.readouterr()

    def test_too_many_clusters_rejected(self, dataset_csv, tmp_path, capsys):
        code = main(["cluster", str(dataset_csv), "--truth", "--clusters", "13",
                     "--neighbors", "3", "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        capsys.readouterr()

    def test_bad_neighbor_count_rejected(self, dataset_csv, tmp_path, capsys):
        code = main(["cluster", str(dataset_csv), "--truth", "--clusters", "2",
                     "--neighbors", "12", "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--algorithm", "km"], "the km algorithm needs an explicit cluster count"),
            (["--clusters", "13"], "cluster count 13 exceeds the 12 observations"),
            (["--clusters", "2", "--neighbors", "12"], "neighbor count must be in 1..11, got 12"),
            (["--neighbors", "0"], "neighbor count must be in 1..11, got 0"),
            (["--max-clusters", "0"], "the cluster-count cap must be positive, got 0"),
        ],
    )
    def test_bad_options_fail_before_the_psd_stage(self, dataset_csv, tmp_path, capsys, monkeypatch, options, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("PSDs estimated before the options were checked")

        monkeypatch.setattr("psdcluster.cli.weighted_spectra", unreachable)
        code = main(["cluster", str(dataset_csv), "--truth", *options, "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err


def reference_read_observation_csv(path, with_truth, pad_zeros, subtract_mean):
    """The reader as it was before streaming: csv.reader on every record,
    np.pad per ragged row, then np.stack. The oracle for the streaming reader."""
    rows = []
    truth_cells = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader, next_line = csv.reader(handle), 1
        for record in reader:
            line_no, next_line = next_line, reader.line_num + 1  # the physical line the record starts on
            record = [cell.strip() for cell in record if cell.strip() != ""]
            if not record:
                continue
            if with_truth:
                truth_cells.append(record[0])
                record = record[1:]
            try:
                values = np.array([float(cell) for cell in record])
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: non-numeric sample value") from exc
            if values.size < 2:
                raise ValueError(f"{path}: line {line_no}: observations need at least 2 samples")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}: line {line_no}: samples must be finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no observations found")
    if subtract_mean:
        rows = [row - row.mean() for row in rows]
    lengths = {row.size for row in rows}
    if len(lengths) > 1:
        if not pad_zeros:
            raise ValueError(f"{path}: rows have different lengths; pass --pad-zeros to zero-pad them")
        longest = max(lengths)
        rows = [np.pad(row, (0, longest - row.size)) for row in rows]
    observations = np.stack(rows)
    truth = None
    if with_truth:
        seen = {}
        truth = np.array([seen.setdefault(cell, len(seen)) for cell in truth_cells])
    return observations, truth


def read_outcome(reader, path, flags):
    try:
        observations, truth = reader(path, *flags)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", observations.dtype, observations.shape, observations.tobytes(),
            None if truth is None else truth.tolist())


NUMERIC_CELLS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["", " ", " 1.5 ", "\t-2\t", "1_0", "1e3", "+.5", '"2.5"', '" 3 "']),
)
SAMPLE_CELLS = st.one_of(
    NUMERIC_CELLS,
    st.sampled_from(["\t", "nan", "inf", "-inf", "x", "a b", '"4,5"', '"', '""', ' "6"', '7"8']),
)
LABEL_CELLS = st.sampled_from(["m0", " m0", "m1", "m1\t", "3", '"m,0"'])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def csv_text(first_cells, sample_cells, min_samples):
    """CSV text: rows of a first cell and samples, some with a trailing comma."""
    lines = st.lists(
        st.tuples(first_cells, st.lists(sample_cells, min_size=min_samples, max_size=6), st.booleans(), LINE_ENDS),
        max_size=8,
    )
    return st.tuples(lines, st.booleans()).map(
        lambda drawn: "".join(
            ",".join([first, *cells]) + ("," if trailing else "") + end for first, cells, trailing, end in drawn[0]
        ).rstrip("" if drawn[1] else "\r\n")
    )


class TestObservationReader:
    """The streaming reader gives the arrays, labels and errors of the
    csv.reader-per-record reference, line numbers included."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), with_truth=st.booleans(), readable=st.booleans(), pad_zeros=st.booleans(),
           subtract_mean=st.booleans())
    def test_matches_the_reference_reader(self, tmp_path_factory, data, with_truth, readable, pad_zeros,
                                          subtract_mean):
        # readable files compare arrays and labels; the others compare errors
        # and their line numbers
        if readable:
            text = data.draw(csv_text(LABEL_CELLS if with_truth else NUMERIC_CELLS, NUMERIC_CELLS, 2))
        else:
            text = data.draw(csv_text(st.one_of(LABEL_CELLS, SAMPLE_CELLS), SAMPLE_CELLS, 0))
        path = tmp_path_factory.getbasetemp() / "reader-property.csv"
        path.write_bytes(text.encode("utf-8"))
        flags = (with_truth, pad_zeros, subtract_mean)
        assert read_outcome(read_observation_csv, path, flags) == read_outcome(
            reference_read_observation_csv, path, flags
        )

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), n_rows=st.integers(1, 45), ragged=st.booleans(), with_truth=st.booleans(),
           pad_zeros=st.booleans(), subtract_mean=st.booleans())
    def test_rows_go_into_one_growing_buffer(self, tmp_path_factory, data, n_rows, ragged, with_truth, pad_zeros,
                                              subtract_mean):
        """Enough rows to grow the buffer twice, ragged rows that widen it, and
        spellings that float() takes beyond plain numbers: the reference's
        arrays and errors."""
        cells = st.one_of(
            st.floats(-1e300, 1e300).map(repr),  # a mean of larger samples can overflow
            st.sampled_from(["1_0", " 2.5 ", "\t-3\t", "\u0661\u0662", "+.5", "-0.0", "5e-324"]),
        )
        width = data.draw(st.integers(2, 9))
        lengths = data.draw(st.lists(st.integers(2, 9) if ragged else st.just(width), min_size=n_rows,
                                     max_size=n_rows))
        lines = [[f"m{index % 3}"] * with_truth + data.draw(st.lists(cells, min_size=n, max_size=n))
                 for index, n in enumerate(lengths)]
        if data.draw(st.booleans()):  # a spelling of infinity, which the reader refuses
            line = lines[data.draw(st.integers(0, n_rows - 1))]
            line[data.draw(st.integers(with_truth, len(line) - 1))] = data.draw(st.sampled_from(["inf", "1e400"]))
        path = tmp_path_factory.getbasetemp() / "reader-buffer-property.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        flags = (with_truth, pad_zeros, subtract_mean)
        assert read_outcome(read_observation_csv, path, flags) == read_outcome(
            reference_read_observation_csv, path, flags
        )

    def test_rows_that_grow_longer_widen_the_buffer_a_few_times(self, tmp_path, monkeypatch):
        """400 rows, each one sample longer than the last, widen the buffer by
        a quarter at a time, not once a row, and it is cut to the longest row
        once at the end; longest-first rows set its width once."""
        rows = [np.arange(1.0, n + 1) for n in range(2, 402)]
        expected = np.zeros((400, 401))
        for index, row in enumerate(rows):
            expected[index, : row.size] = row
        set_width = psdcluster.reader._set_width
        for order in (1, -1):
            widths = []

            def counting_set_width(buffer, count, width):
                widths.append(width)
                set_width(buffer, count, width)

            path = write_repr_csv(tmp_path / "ragged.csv", rows[::order])
            with monkeypatch.context() as patch:
                patch.setattr(psdcluster.reader, "_set_width", counting_set_width)
                observations, _ = read_observation_csv(path, False, True, False)
            np.testing.assert_array_equal(observations, expected[::order])
            assert observations.flags.c_contiguous and observations.flags.owndata
            assert widths == ([2, 18, 38, 63, 94, 133, 182, 243, 319, 414, 401] if order == 1 else [401])

    @pytest.mark.parametrize("flags", [(True, False, False), (True, True, True), (False, True, False)])
    def test_matches_the_reference_on_generated_data(self, dataset_csv, tmp_path, flags):
        ragged = tmp_path / "ragged.csv"
        lines = dataset_csv.read_text().splitlines()
        ragged.write_text("\r\n".join(line.rsplit(",", k)[0] for k, line in enumerate(lines)) + "\r\n")
        for path in (dataset_csv, ragged):
            outcome = read_outcome(read_observation_csv, path, flags)
            assert outcome == read_outcome(reference_read_observation_csv, path, flags)
        # the ragged file needs --pad-zeros, and its label column needs --truth
        assert outcome[0] == ("ok" if flags[:2] == (True, True) else "error")


EXACT_POWERS = _exact_scaling_powers()
needs_x87 = pytest.mark.skipif(EXACT_POWERS is None, reason="np.longdouble is not the x87 format, so no byte route")


def route_bits(cells):
    """The bits the byte route reads from one line of cells."""
    rows = _parse_sample_lines((",".join(cells) + "\n").encode(), EXACT_POWERS)
    assert rows is not None and len(rows) == 1
    return rows[0].view(np.uint64).tolist()


def float_bits(cells):
    return np.array([float(cell) for cell in cells]).view(np.uint64).tolist()


@st.composite
def decimal_cells(draw):
    """Up to 19 digits, the dot anywhere or absent, an exponent in -40..40 or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    dot = draw(st.none() | st.integers(0, len(digits)))
    exponent = draw(st.none() | st.integers(-40, 40))
    mantissa = digits if dot is None else digits[:dot] + "." + digits[dot:]
    return "-" * draw(st.booleans()) + mantissa + ("" if exponent is None else f"e{exponent}")


def write_repr_csv(path, rows, labels=None):
    with open(path, "w", encoding="utf-8") as handle:
        for index, row in enumerate(rows):
            label = [] if labels is None else [labels[index]]
            handle.write(",".join(label + [repr(float(v)) for v in row]) + "\n")
    return path


@needs_x87
class TestByteRouteNumbers:
    """The byte route reads every cell of its grammar to the bits of float()."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 123456789012345678.0])
    def test_repr_of_any_double(self, values):
        cells = [repr(v).replace("e+", "e") for v in values]  # the exponent without its plus sign
        assert route_bits(cells) == float_bits(cells)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(values=st.lists(st.floats(-1e308, 1e308).filter(lambda v: "e+" in repr(v)), min_size=1, max_size=20))
    @example(values=[1e16, -1e16, 1.7976931348623157e308, -1e308, 2.5e300, 9.999999999999999e22, 1e23])
    def test_repr_with_plus_exponents(self, values):
        """repr writes e+16 and up, and the byte route reads it as float() does."""
        cells = [repr(v) for v in values]
        assert route_bits(cells) == float_bits(cells)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(cells=st.lists(decimal_cells(), min_size=1, max_size=20))
    def test_decimal_strings(self, cells):
        assert route_bits(cells) == float_bits(cells)

    @pytest.mark.parametrize("cell", [
        "67.4185598945439537",  # rounded once more from the extended tie: 67.41855989454396
        "89.9688301807817723",
        "-67.4185598945439537",
        "9007199254740993",  # exactly halfway between two doubles
        "999999999999999999", "1000000000000000000", "99999999999999999999999", "-9223372036854775808",
        "1e27", "1e28", "1e-27", "1e-28", "0.000000000000000000000000001", "1e-9223372036854775808",
        "-0", "-0.0e-5", "00000000000000000000000000000000000012.5",
    ])
    def test_cells_that_could_round_twice(self, cell):
        assert route_bits([cell, "1.0"]) == float_bits([cell, "1.0"])

    @pytest.mark.parametrize("cell", ["1e+5", "-2.5e+16", "1e+0", "1.e+05", "-.5e+27", "1e+28", "1e+309"])
    def test_cells_with_a_plus_exponent(self, cell):
        assert route_bits([cell, "1e+1"]) == float_bits([cell, "1e+1"])

    @pytest.mark.parametrize("cell", [
        "", " 1", "1 ", "+1", "1_0", "1.2.3", "1e5e5", "1e5.5", "1e", "1e-", "-", ".", "-.", ".e5", "e5",
        "--1", "1-", "1e--5", "1E5", "inf", "nan", "\u0661", '"1"', "1\r", "12e5.5", "12e-5.5",
        "+1e5", "1+e5", "1e5+", "1e++5", "1e+-5", "1e-+5", "1e+", "+e5", "1.+5", "1e+5.5", "1E+5",
    ])
    def test_cells_outside_the_grammar(self, cell):
        assert _parse_sample_lines(f"1.0,{cell},2.0\n".encode(), EXACT_POWERS) is None


@needs_x87
class TestByteRoute:
    """Files on the byte route's grammar are read there, and every file gives
    the arrays, labels and errors of the reference reader."""

    @pytest.fixture()
    def per_record_unreachable(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a record went through the per-record code")

        monkeypatch.setattr(psdcluster.reader, "_record_samples", unreachable)
        monkeypatch.setattr(psdcluster.reader, "_csv_rows", unreachable)

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("flags", [(True, True, True), (True, True, False), (True, False, False),
                                       (False, True, True), (False, False, True)])
    def test_repr_files_take_the_byte_route(self, tmp_path, per_record_unreachable, final_newline, ragged, flags):
        gen = np.random.default_rng(11)
        rows = [gen.standard_normal(gen.integers(300, 700) if ragged else 500) * 10.0 ** gen.integers(-8, 8)
                for _ in range(40)]
        rows[3][:5] = [0.0, -0.0, 1e-5, -2.5e-7, 1e15]
        labels = [f" m{index % 3}" for index in range(40)] if flags[0] else None
        path = write_repr_csv(tmp_path / "repr.csv", rows, labels)
        if not final_newline:
            path.write_bytes(path.read_bytes()[:-1])
        outcome = read_outcome(read_observation_csv, path, flags)
        assert outcome == read_outcome(reference_read_observation_csv, path, flags)
        assert outcome[0] == ("error" if ragged and not flags[1] else "ok")

    @pytest.mark.parametrize("flags", [(True, False, False), (False, False, True)])
    def test_plus_exponents_take_the_byte_route(self, tmp_path, per_record_unreachable, flags):
        rows = np.random.default_rng(15).standard_normal((20, 64)) * 10.0 ** np.arange(-20, 300, 16)[:, None]
        path = write_repr_csv(tmp_path / "large.csv", rows, ["m0"] * 20 if flags[0] else None)
        assert path.read_bytes().count(b"e+") > 64 * 15
        outcome = read_outcome(read_observation_csv, path, flags)
        assert outcome == read_outcome(reference_read_observation_csv, path, flags)
        assert outcome[0] == "ok"

    @pytest.mark.parametrize("batch_bytes", [1, 7, 4096])
    @pytest.mark.parametrize("flags", [(True, True, True), (False, False, False)])
    def test_lines_straddle_small_batches(self, dataset_csv, tmp_path, monkeypatch, batch_bytes, flags):
        monkeypatch.setattr(psdcluster.reader, "CSV_BATCH_BYTES", batch_bytes)
        ragged = tmp_path / "ragged.csv"
        lines = dataset_csv.read_text().splitlines()
        ragged.write_text("\n".join(line.rsplit(",", k)[0] for k, line in enumerate(lines)))  # no final newline
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("".join(line.split(",", 1)[1] + "\n" for line in lines))
        quoted = tmp_path / "quoted.csv"  # csv.reader reads a quoted line break across batches
        quoted.write_text("".join(f'"{line[:2]}\n",{line.split(",", 1)[1]}\n' if k == 2 else line + "\n"
                                  for k, line in enumerate(lines)))
        for path in (dataset_csv, ragged, unlabeled, quoted):
            assert read_outcome(read_observation_csv, path, flags) == read_outcome(
                reference_read_observation_csv, path, flags
            )

    def test_only_batches_outside_the_grammar_take_the_per_record_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(psdcluster.reader, "CSV_BATCH_BYTES", 1024)
        rows = np.random.default_rng(12).standard_normal((200, 8))
        path = write_repr_csv(tmp_path / "obs.csv", rows, ["m0"] * 200)
        lines = path.read_text().splitlines(keepends=True)
        lines[150] = lines[150].replace(",", ", ", 1)  # a space before a sample: outside the grammar, same value
        path.write_text("".join(lines))
        records = []
        record_samples = psdcluster.reader._record_samples

        def recording(path, line_no, *rest):
            records.append(line_no)
            return record_samples(path, line_no, *rest)

        monkeypatch.setattr(psdcluster.reader, "_record_samples", recording)
        flags = (True, False, True)
        assert read_outcome(read_observation_csv, path, flags) == read_outcome(
            reference_read_observation_csv, path, flags
        )
        assert 151 in records and len(records) <= 1024 // 100  # one batch of lines over 100 bytes long

    def test_error_after_a_quoted_cell_names_its_line(self, tmp_path):
        rows = np.random.default_rng(13).standard_normal((1000, 8))
        path = write_repr_csv(tmp_path / "obs.csv", rows, ["m0"] * 1000)
        lines = path.read_text().splitlines(keepends=True)
        lines[499] = lines[499].replace(",", ',"', 1).replace(",", '",', 2)  # line 500: "m0,"<sample>",..."
        lines[899] = lines[899].replace(",", ",x", 1)  # line 900: a non-numeric cell
        path.write_text("".join(lines))
        for flags in [(True, False, False), (True, True, True)]:
            outcome = read_outcome(read_observation_csv, path, flags)
            assert outcome == read_outcome(reference_read_observation_csv, path, flags)
            assert outcome == ("error", f"{path}: line 900: non-numeric sample value")

    def test_cells_beyond_the_csv_field_limit_are_csv_errors(self, tmp_path):
        path = tmp_path / "long-cell.csv"
        long_label, long_sample = "m" * (csv.field_size_limit() + 1), "1" + "0" * csv.field_size_limit()
        for with_truth, line in [(True, long_label + ",1.0,2.0"), (True, "m0,1.0," + long_sample),
                                 (False, "1.0," + long_sample)]:
            path.write_text(("m0," * with_truth) + "1.0,2.0\n" + line + "\n")
            with pytest.raises(ValueError, match=f"^{path}: line 2: field larger than field limit"):
                read_observation_csv(path, with_truth, False, False)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), with_truth=st.booleans(), pad_zeros=st.booleans(), subtract_mean=st.booleans())
    def test_without_x87_every_batch_takes_the_per_record_code(self, tmp_path_factory, data, with_truth, pad_zeros,
                                                               subtract_mean):
        text = data.draw(csv_text(LABEL_CELLS if with_truth else NUMERIC_CELLS, NUMERIC_CELLS, 2))
        path = tmp_path_factory.getbasetemp() / "reader-no-x87.csv"
        path.write_bytes(text.encode("utf-8"))
        flags = (with_truth, pad_zeros, subtract_mean)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(psdcluster.reader, "_EXACT_POWERS", None)
            outcome = read_outcome(read_observation_csv, path, flags)
        assert outcome == read_outcome(reference_read_observation_csv, path, flags)

    @pytest.mark.parametrize("workers", [None, 1, 2, 3, 4, 8], ids=lambda workers: f"{workers or 'host'}-workers")
    def test_traced_peak_is_the_buffer_and_one_line(self, tmp_path, monkeypatch, workers):
        """48 rows of 16384 samples peak at the sample buffer's capacity plus
        the transient arrays of one group of parsed lines, on the host's
        thread count or any forced one, not at every parsed row or one line
        per thread."""
        if workers is not None:
            monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
        path = write_repr_csv(tmp_path / "long.csv", np.random.default_rng(14).standard_normal((48, 16384)),
                              [f"m{index % 3}" for index in range(48)])
        flags = (True, True, True)
        read_observation_csv(path, *flags)
        tracemalloc.start()
        try:
            observations, _ = read_observation_csv(path, *flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert observations.shape == (48, 16384)
        capacity = 61 * 16384 * 8  # the buffer grows from 16 to 36 to 61 rows
        assert peak <= capacity + 24 * 16384 * 8


class TestByteOrderMark:
    """A leading UTF-8 byte order mark, as Excel writes, is not part of the first cell."""

    @pytest.mark.parametrize("exact", [True, False])
    def test_observation_reader(self, tmp_path, monkeypatch, exact):
        if not exact:
            monkeypatch.setattr(psdcluster.reader, "_EXACT_POWERS", None)
        rows = np.random.default_rng(15).standard_normal((4, 16))
        labeled = write_repr_csv(tmp_path / "labeled.csv", rows, ["m0", "m0", "m1", "m1"])
        labeled.write_bytes(b"\xef\xbb\xbf" + labeled.read_bytes())
        observations, truth = read_observation_csv(labeled, True, False, False)
        assert truth.tolist() == [0, 0, 1, 1]
        np.testing.assert_array_equal(observations, rows)
        unlabeled = write_repr_csv(tmp_path / "unlabeled.csv", rows)
        unlabeled.write_bytes(b"\xef\xbb\xbf" + unlabeled.read_bytes())
        np.testing.assert_array_equal(read_observation_csv(unlabeled, False, False, False)[0], rows)

    def test_sequence_header(self, tmp_path, capsys):
        sequence = tmp_path / "seq.csv"
        sequence.write_bytes(b"\xef\xbb\xbftime,foot_r\n0,1.5\n1,2.5\n")
        out = tmp_path / "dataset.csv"
        assert main(["convert-mocap", str(sequence), "--column", "time", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == "0.0,1.0\n"

    def test_label_map(self, tmp_path, capsys):
        sequence = tmp_path / "walk1.csv"
        sequence.write_text("0,1.5\n1,2.5\n")
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_bytes(b"\xef\xbb\xbfwalk1.csv,walk\n")
        out = tmp_path / "dataset.csv"
        assert main(["convert-mocap", str(sequence), "--column", "1", "--out", str(out),
                     "--labels-csv", str(labels_csv)]) == 0
        capsys.readouterr()
        assert out.read_text() == "walk,1.5,2.5\n"

    def test_neighbor_count_prelude(self, tmp_path, capsys):
        path = write_repr_csv(tmp_path / "obs.csv", np.random.default_rng(17).standard_normal((3, 16)))
        path.write_bytes(b"\xef\xbb\xbf\n" + path.read_bytes())  # a line that is blank once the mark is dropped
        for neighbors in ["0", "3"]:
            assert main(["estimate-l", str(path), "--neighbors", neighbors]) == 2
            assert capsys.readouterr().err == f"error: neighbor count must be in 1..2, got {neighbors}\n"

    @pytest.mark.parametrize("command", ["check-condition", "synth-bench"])
    def test_config(self, tmp_path, capsys, command):
        payload = json.dumps({"preset": "arma3", "M_list": [256], "trials": 1, "n_per_model": 3, "q": 2})
        outputs = []
        for name, prefix in [("plain.json", b""), ("bom.json", b"\xef\xbb\xbf")]:
            config = tmp_path / name
            config.write_bytes(prefix + payload.encode())
            out = tmp_path / f"{name}.out"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestInvalidUtf8:
    """A byte that is not UTF-8 is an input error naming the file and the
    physical line, whichever route its batch takes."""

    def write_bad_byte_csv(self, path, line_end, with_truth, quoted_line=None):
        rows = np.random.default_rng(16).standard_normal((3000, 8))
        lines = [("m0," * with_truth + ",".join(repr(float(v)) for v in row)).encode() for row in rows]
        lines[2500] = lines[2500].replace(b",", b",\xff", 1)  # line 2501
        if quoted_line is not None:  # a quoted label holding a line break: two physical lines, one record
            lines[quoted_line - 1] = b'"m\n0"' + lines[quoted_line - 1][2:]
        path.write_bytes(b"".join(line + line_end for line in lines))

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_cluster(self, tmp_path, capsys, line_end, with_truth):
        path = tmp_path / "bad.csv"
        self.write_bad_byte_csv(path, line_end, with_truth)
        code = main(["cluster", str(path), *["--truth"] * with_truth, "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 2501: invalid UTF-8 byte 0xff\n"

    def test_after_a_quoted_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        self.write_bad_byte_csv(path, b"\n", True, quoted_line=500)
        code = main(["estimate-l", str(path), "--truth"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 2502: invalid UTF-8 byte 0xff\n"

    def test_neighbor_count_prelude(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        self.write_bad_byte_csv(path, b"\r\n", True)
        code = main(["cluster", str(path), "--truth", "--neighbors", "0", "--labels-out", str(tmp_path / "l.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 2501: invalid UTF-8 byte 0xff\n"

    def test_sequence_file(self, tmp_path, capsys):
        sequence = tmp_path / "seq.csv"
        sequence.write_bytes(b"\xef\xbb\xbftime,foot_r\r\n0,1.5\r\n1,2.5\xfe\r\n")
        out = tmp_path / "o.csv"
        assert main(["convert-mocap", str(sequence), "--column", "foot_r", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {sequence}: line 3: invalid UTF-8 byte 0xfe\n"
        assert not out.exists()

    def test_label_map(self, tmp_path, capsys):
        sequence = tmp_path / "walk1.csv"
        sequence.write_text("0,1.5\n1,2.5\n")
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_bytes(b"walk1.csv,walk\nrun1.csv,r\xffun\n")
        out = tmp_path / "o.csv"
        assert main(["convert-mocap", str(sequence), "--column", "1", "--out", str(out),
                     "--labels-csv", str(labels_csv)]) == 2
        assert capsys.readouterr().err == f"error: {labels_csv}: line 2: invalid UTF-8 byte 0xff\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check-condition", "synth-bench"])
    def test_config(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"preset": "arma3",\r\n "M_list": [64],\r "trials": 1, "n_per_model": 3, "q": 2}\xc3\n')
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {config}: line 3: invalid UTF-8 byte 0xc3\n"
        assert not out.exists()


class TestPhysicalLineNumbers:
    """After a quoted cell that holds a line break, every message names the
    physical line on which the faulty record starts, as an invalid byte's does."""

    def test_observation_file(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text('"m\n0",1,2,3,4\nm1,1,2,x,4\n')
        code = main(["cluster", str(path), "--truth", "--neighbors", "1", "--clusters", "1",
                     "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: non-numeric sample value\n"
        path.write_text('"m\n0",1,2,3,4\nm1,1,2,3,4\n\nm2,1,\n')
        for reader in (read_observation_csv, reference_read_observation_csv):
            assert read_outcome(reader, path, (True, False, False)) == (
                "error", f"{path}: line 5: observations need at least 2 samples")

    def test_a_csv_error(self, tmp_path, capsys):
        path = tmp_path / "stray.csv"
        rows = np.random.default_rng(4).standard_normal((40, 512))
        lines = ["m0," + ",".join(repr(float(v)) for v in row) + "\n" for row in rows]
        lines[0] = '"m\n0"' + lines[0][2:]
        lines[3] = '"' + lines[3]  # an unmatched quote on physical line 5 swallows the rest of the file
        path.write_text("".join(lines))
        assert main(["estimate-l", str(path), "--truth"]) == 2
        assert f"error: {path}: line 5: field larger than field limit" in capsys.readouterr().err

    def test_sequence_file(self, tmp_path, capsys):
        sequence = tmp_path / "seq.csv"
        sequence.write_text('x,y\n"a\nb",1.0\n2.0,abc\n')
        assert main(["convert-mocap", str(sequence), "--column", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: {sequence}: line 4: non-numeric value in column 1\n"

    def test_label_map(self, tmp_path, capsys):
        sequence = tmp_path / "run1.csv"
        sequence.write_text("0,1.5\n1,2.5\n")
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text('"walk\n1.csv",walk\nrun1.csv,\n')
        assert main(["convert-mocap", str(sequence), "--column", "1", "--out", str(tmp_path / "o.csv"),
                     "--labels-csv", str(labels_csv)]) == 2
        assert capsys.readouterr().err == f"error: {labels_csv}: line 3: blank label for sequence file 'run1.csv'\n"


class TestStrayQuote:
    """An unmatched quote in a file over csv's 128 KiB field limit is a
    validation error naming the file and the line its record starts on, not a traceback."""

    def write_stray_quote_csv(self, path, first_cell):
        rows = np.random.default_rng(4).standard_normal((40, 512))
        with open(path, "w", newline="") as handle:
            for index, row in enumerate(rows):
                cell = first_cell if index == 0 else "m0"
                handle.write(cell + "," + ",".join(repr(float(v)) for v in row) + "\n")
        assert path.stat().st_size > 131072

    def test_cluster_input(self, tmp_path, capsys):
        path = tmp_path / "stray.csv"
        self.write_stray_quote_csv(path, '"m0')
        code = main(["cluster", str(path), "--truth", "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert f"error: {path}: line 1: field larger than field limit" in capsys.readouterr().err

    def test_quote_after_unquoted_lines(self, tmp_path, capsys):
        path = tmp_path / "stray.csv"
        self.write_stray_quote_csv(path, "m0")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = '"' + lines[3]
        path.write_text("".join(lines))
        code = main(["estimate-l", str(path), "--truth"])
        assert code == 2
        assert f"error: {path}: line 4: field larger than field limit" in capsys.readouterr().err

    def test_mocap_sequence_and_label_files(self, tmp_path, capsys):
        sequence = tmp_path / "seq.csv"
        self.write_stray_quote_csv(sequence, '"0')
        code = main(["convert-mocap", str(sequence), "--column", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"error: {sequence}: line 1: field larger than field limit" in capsys.readouterr().err
        good = tmp_path / "good.csv"
        good.write_text("0,1.0\n1,2.0\n")
        labels_csv = tmp_path / "labels.csv"
        self.write_stray_quote_csv(labels_csv, '"good.csv')
        code = main(["convert-mocap", str(good), "--column", "1", "--out", str(tmp_path / "o.csv"),
                     "--labels-csv", str(labels_csv)])
        assert code == 2
        assert f"error: {labels_csv}: line 1: field larger than field limit" in capsys.readouterr().err


class TestBoundaryValidation:
    """Bad numbers fail where they enter, with exit 2 and the culprit named."""

    def test_nan_window_std_is_rejected(self, dataset_csv, tmp_path, capsys):
        code = main(["cluster", str(dataset_csv), "--truth", "--clusters", "2", "--neighbors", "3",
                     "--std", "nan", "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert "window std" in capsys.readouterr().err

    def test_huge_samples_fail_at_the_psd_stage(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = 1e307 * np.random.default_rng(3).standard_normal((4, 64))
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["cluster", str(path), "--clusters", "2", "--neighbors", "1",
                         "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert "PSD estimation overflowed" in capsys.readouterr().err

    def test_mean_subtraction_of_samples_near_the_float_maximum(self, tmp_path, capsys):
        path = tmp_path / "near-max.csv"
        path.write_text("1.7e308,1.7e308,1.7e308,1.6e308\n1.0,2.0,3.0,5.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            observations, _ = read_observation_csv(path, False, False, True)
        # the plain mean overflows; the mean of the samples over their count does not
        np.testing.assert_allclose(observations[0], [2.5e306, 2.5e306, 2.5e306, -7.5e306], rtol=1e-12)
        np.testing.assert_array_equal(observations[1], [-1.75, -0.75, 0.25, 2.25])
        # the samples are finite after the subtraction, so the PSD stage names its own overflow
        assert main(["cluster", str(path), "--subtract-mean", "--clusters", "1", "--neighbors", "1",
                     "--labels-out", str(tmp_path / "labels.csv")]) == 2
        assert "PSD estimation overflowed" in capsys.readouterr().err
        path.write_text("1.0,2.0\n-1.7e308,1.7e308,1.7e308\n")  # a finite mean, a difference that overflows
        with pytest.raises(ValueError, match=r"line 2: samples overflow when the mean is subtracted"):
            read_observation_csv(path, False, True, True)

    @pytest.mark.parametrize("command", ["cluster", "estimate-l"])
    def test_a_zero_power_row_is_named(self, tmp_path, capsys, command):
        path = tmp_path / "constant.csv"
        rows = np.random.default_rng(4).standard_normal((6, 32))
        rows[3] = 2.5  # all zeros once the mean is subtracted
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        argv = [command, str(path), "--subtract-mean", "--normalize-psd", "--neighbors", "2"]
        if command == "cluster":
            argv += ["--clusters", "2", "--labels-out", str(tmp_path / "labels.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cannot normalize a PSD with nonpositive power: observation 3 (0-based)\n"
        assert not (tmp_path / "labels.csv").exists()

    def test_oversized_grid_is_an_out_of_memory_error(self, dataset_csv, tmp_path, capsys):
        # 12 rows x 2^50 grid bins is about 1e17 bytes, beyond any address
        # space, so the allocation is refused before any memory is touched
        code = main(["cluster", str(dataset_csv), "--truth", "--clusters", "2", "--neighbors", "3",
                     "--grid-factor", "4000000000000", "--labels-out", str(tmp_path / "labels.csv")])
        assert code == 2
        assert "error: out of memory" in capsys.readouterr().err


def dense_estimate_l(psds, n_neighbors, max_clusters):
    """The matrix reference for estimate-l: the estimate from the full dense spectrum, and the head it prints."""
    dist = distance_matrix(psds)
    adjacency = build_adjacency(dist, nearest_neighbor_sets(dist, n_neighbors))
    values = eig_symmetric(normalized_laplacian(adjacency)).eigenvalues
    return estimate_cluster_count(values, min(max_clusters, len(psds))), values[: max_clusters + 1]


def recorded_psds(monkeypatch):
    """Patch the PSD stage to record a copy of each array of estimates it returns, before the weighting."""
    recorded = []
    estimate = psdcluster.spectra.estimate_dataset_psds

    def recording(*args, **kwargs):
        psds = estimate(*args, **kwargs)
        recorded.append(psds.copy())
        return psds

    monkeypatch.setattr(psdcluster.spectra, "estimate_dataset_psds", recording)
    return recorded


class TestEstimateL:
    def test_estimates_two_groups(self, dataset_csv, capsys, monkeypatch):
        psds = recorded_psds(monkeypatch)
        code = main(["estimate-l", str(dataset_csv), "--truth", "--neighbors", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == 2
        # min(max_clusters, N) + 1 = 11 of the 12 eigenvalues, the leading zeros exact
        estimate, head = dense_estimate_l(psds[0], 3, 10)
        assert payload["estimate"] == estimate
        assert len(payload["eigenvalues"]) == 11
        assert payload["eigenvalues"][:2] == [0.0, 0.0]
        np.testing.assert_allclose(payload["eigenvalues"], head, rtol=0, atol=1e-12)

    def test_estimates_without_a_square_matrix(self, tmp_path, monkeypatch, capsys):
        """The dense estimate and spectrum head, with every N x N builder and full eigensolve made to raise.

        300 rows fill one q-NN block and part of a second. The samples are
        gone by the time the graph is built, and the scan reads the array of
        PSD estimates itself, weighted in place.
        """
        path = write_dataset_csv(tmp_path, make_benchmark_dataset(benchmark_models(), 100, 128, 0.0, RngStream(9)))
        with monkeypatch.context() as patch:
            psds = recorded_psds(patch)
            assert main(["estimate-l", str(path), "--truth"]) == 0
        capsys.readouterr()
        estimate, head = dense_estimate_l(psds.pop(), 10, 10)

        def refuse(*args, **kwargs):
            raise AssertionError("an N x N distance matrix was built")

        for target in ("psdcluster.cli.distance_matrix", "psdcluster.distances.squareform",
                       "psdcluster.distances.validate_distance_matrix", "psdcluster.nnpc.validate_distance_matrix",
                       "psdcluster.km.validate_distance_matrix"):
            monkeypatch.setattr(target, refuse)

        def partial_eigensolve(matrix, count=None):
            if count is None:
                raise AssertionError("a full eigensolve ran")
            return eig_symmetric(matrix, count)

        monkeypatch.setattr("psdcluster.nnpc.eig_symmetric", partial_eigensolve)
        refs, alive, estimates, scanned = [], [], [], []
        read, estimate_psds = psdcluster.reader.read_observation_csv, psdcluster.spectra.estimate_dataset_psds

        def recording_read(*args, **kwargs):
            observations, truth = read(*args, **kwargs)
            refs.append(weakref.ref(observations))
            return observations, truth

        def recording_estimate(*args, **kwargs):
            estimates.append(estimate_psds(*args, **kwargs))
            return estimates[-1]

        scan = psdcluster.nnpc.nearest_neighbors

        def checking_scan(rows, *args, **kwargs):
            gc.collect()
            alive.extend(ref for ref in refs if ref() is not None)
            scanned.append(rows)
            return scan(rows, *args, **kwargs)

        monkeypatch.setattr(psdcluster.reader, "read_observation_csv", recording_read)
        monkeypatch.setattr(psdcluster.spectra, "estimate_dataset_psds", recording_estimate)
        monkeypatch.setattr(psdcluster.nnpc, "nearest_neighbors", checking_scan)
        assert main(["estimate-l", str(path), "--truth"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == estimate
        assert len(payload["eigenvalues"]) == 11
        np.testing.assert_allclose(payload["eigenvalues"], head, rtol=0, atol=1e-12)
        # the samples are gone, and the scan reads the (300, F/2 + 1) estimates themselves
        assert len(refs) == len(estimates) == len(scanned) == 1
        assert alive == []
        assert scanned[0] is estimates[0]

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4), amplitude=st.sampled_from([1.0, 40.0]),
           seed=st.integers(0, 2**16), neighbors=st.integers(1, 23), max_clusters=st.integers(1, 26))
    @example(sizes=[5, 4, 1, 3], amplitude=40.0, seed=0, neighbors=3, max_clusters=10)  # isolated node
    @example(sizes=[4, 4, 4], amplitude=40.0, seed=1, neighbors=2, max_clusters=5)  # three components
    def test_estimate_equals_cluster_auto(self, tmp_path_factory, sizes, amplitude, seed, neighbors, max_clusters):
        """estimate-l's estimate is cluster --clusters auto's, and its eigenvalues head the dense spectrum.

        Each group is a sinusoid of its own frequency with random phase and a
        little noise. At amplitude 40 groups lie too far apart to share an
        edge, so the graph has several components, and a group of one is an
        isolated node.
        """
        n_obs, length = sum(sizes), 64
        n_neighbors, max_clusters = min(neighbors, n_obs - 1), min(max_clusters, n_obs + 2)
        gen = np.random.default_rng(seed)
        t = np.arange(length)
        observations = [
            amplitude * np.sin(2 * np.pi * frequency * t + gen.uniform(0, 2 * np.pi)) + 0.1 * gen.standard_normal(length)
            for frequency, size in zip([0.05, 0.15, 0.3, 0.42], sizes)
            for _ in range(size)
        ]
        base = tmp_path_factory.getbasetemp()
        path = base / "estimate-property.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in observations))
        options = ["--neighbors", str(n_neighbors), "--max-clusters", str(max_clusters)]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out):
            psds = recorded_psds(patch)
            assert main(["estimate-l", str(path), *options]) == 0
        payload = json.loads(out.getvalue())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # isolated nodes
            assert main(["cluster", str(path), *options, "--labels-out", str(base / "estimate-property-labels.csv"),
                         "--report-out", str(base / "estimate-property-report.json")]) == 0
        assert payload["estimate"] == read_json(base / "estimate-property-report.json")["estimated_clusters"]
        _, head = dense_estimate_l(psds[0], n_neighbors, max_clusters)
        assert len(payload["eigenvalues"]) == min(max_clusters + 1, n_obs)
        np.testing.assert_allclose(payload["eigenvalues"], head, rtol=0, atol=1e-12)

    def test_single_observation_short_circuits(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0,1.5,0.5\n")
        code = main(["estimate-l", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"estimate": 1, "eigenvalues": [0.0]}

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--std", "nan"], "gaussian window std must be a positive finite number, got nan"),
            (["--grid-factor", "1"], "grid factor must be >= 2"),
            (["--max-clusters", "-3"], "the cluster-count cap must be positive, got -3"),
            (["--neighbors", "0"], "neighbor count must be in 1..0, got 0"),
        ],
    )
    def test_single_observation_still_checks_options(self, tmp_path, capsys, options, message):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0,1.5,0.5\n")
        code = main(["estimate-l", str(path), *options])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--max-clusters", "0"], "the cluster-count cap must be positive, got 0"),
            (["--neighbors", "12"], "neighbor count must be in 1..11, got 12"),
            (["--neighbors", "-1"], "neighbor count must be in 1..11, got -1"),
        ],
    )
    def test_bad_options_fail_before_the_psd_stage(self, dataset_csv, capsys, monkeypatch, options, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("PSDs estimated before the options were checked")

        monkeypatch.setattr("psdcluster.cli.weighted_spectra", unreachable)
        code = main(["estimate-l", str(dataset_csv), "--truth", *options])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestSynthBench:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def tiny_config(self, tmp_path):
        return self.write_config(
            tmp_path,
            {
                "preset": "arma3",
                "M_list": [128],
                "sigma2_list": [0.0],
                "trials": 2,
                "n_per_model": 4,
                "q": 3,
                "seed": 0,
            },
        )

    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["synth-bench", "--config", str(self.tiny_config(tmp_path)), "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["M", "sigma2", "algorithm", "mean_ce", "std_ce", "trials"]
        assert [row[2] for row in rows[1:]] == ["km", "nnpc"]
        for row in rows[1:]:
            assert row[0] == "128"
            assert 0.0 <= float(row[3]) <= 1.0
            assert row[5] == "2"

    def test_byte_deterministic(self, tmp_path, capsys):
        config = self.tiny_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["synth-bench", "--config", str(config), "--out", str(first)])
        main(["synth-bench", "--config", str(config), "--out", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_outputs_are_identical_across_blas_thread_counts(self, tmp_path):
        # 210 rows per trial put each graph above the dense-solver cutoff
        config = self.write_config(tmp_path, {"preset": "arma3", "M_list": [256], "sigma2_list": [0.0, 1.0],
                                              "trials": 2, "n_per_model": 70, "q": 10, "seed": 3})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"bench-{threads}.csv"
            run_under_blas_threads(threads, "synth-bench", "--config", str(config), "--out", str(out))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @staticmethod
    def traced_peak(m_list, trials):
        """Peak traced memory of a synth-bench run at M in m_list, sigma2 0, 75 rows per trial."""
        run = {"preset": "arma3", "sigma2_list": [0.0], "n_per_model": 25, "q": 10, "seed": 0,
               "M_list": m_list, "trials": trials}
        run_synth_bench(run)  # warm the FFT plan caches outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_synth_bench(run)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_trials_free_their_spectra(self, monkeypatch):
        """Two trials at each of M = 1024 and 4096 peak within 64 KiB of one M = 4096 trial alone.

        That trial holds its one spectra array and a few chunks of samples
        and PSD temporaries; each trial's array is freed before the next
        trial estimates its own.
        """
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: 1)
        alone = self.traced_peak([4096], 1)
        assert alone <= 75 * (4096 + 8193) * 8 + 6 * PSD_CHUNK_BYTES
        assert self.traced_peak([1024, 4096], 2) <= alone + 64 * 1024

    def test_two_workers_hold_two_trials(self, monkeypatch):
        """With two threads, at most two trials hold their arrays at once."""
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: 1)
        alone = self.traced_peak([4096], 1)
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: 2)
        assert self.traced_peak([1024, 4096], 2) <= 2 * alone + 64 * 1024

    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch):
        """1, 2 and 3 threads give the rows of the serial loop over the unchunked dataset.

        210 rows per trial put each graph above the dense-solver cutoff, and
        70 rows per model are not a multiple of a chunk's rows (52 at
        sigma2 0, 43 with noise).
        """
        config = {"preset": "arma3", "M_list": [256], "sigma2_list": [0.0, 1.0], "trials": 3, "n_per_model": 70,
                  "q": 10, "seed": 4}
        models, window = benchmark_models(), make_window("gaussian", 256)
        expected = []
        for combo, sigma2 in enumerate(config["sigma2_list"]):
            errors = {"nnpc": [], "km": []}
            for trial in range(config["trials"]):
                stream = 2 * (combo * config["trials"] + trial)
                observations, truth = reference_make_benchmark_dataset(models, 70, 256, sigma2, RngStream(4, stream))
                spectra = weighted_spectra(observations, window, 1024)
                labels = nnpc_from_spectra(spectra, 10, 3, rng=RngStream(4, stream + 1)).labels
                errors["nnpc"].append(clustering_error(labels, truth))
                errors["km"].append(clustering_error(km_from_spectra(spectra, 3), truth))
            for algorithm in ("km", "nnpc"):
                ce = np.asarray(errors[algorithm])
                expected.append({"M": 256, "sigma2": sigma2, "algorithm": algorithm, "mean_ce": float(ce.mean()),
                                 "std_ce": float(ce.std()), "trials": 3})
        for workers in (1, 2, 3):
            monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
            assert run_synth_bench(config) == expected

    def failing_run(self, tmp_path, monkeypatch, capsys, failures):
        """Exit code, stderr and the trials that ran, of 6 trials on 2 threads where
        failures maps a trial's index to the seconds it waits before raising."""
        config = self.write_config(tmp_path, {"preset": "arma3", "M_list": [128, 256], "sigma2_list": [0.0],
                                              "trials": 3, "n_per_model": 4, "q": 3, "seed": 0})
        trial, ran = psdcluster.cli._synth_trial, []

        def failing(cfg, index):
            ran.append(index)
            if index in failures:
                time.sleep(failures[index])
                raise ValueError(f"trial {index} failed")
            time.sleep(0.2 if index > 1 else 0.0)  # the queued trials are slow, so cancelling them shows
            return trial(cfg, index)

        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: 2)
        monkeypatch.setattr(psdcluster.cli, "_synth_trial", failing)
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "bench.csv")])
        return code, capsys.readouterr().err, ran

    def test_a_failing_trial_stops_the_run(self, tmp_path, monkeypatch, capsys):
        code, err, ran = self.failing_run(tmp_path, monkeypatch, capsys, {1: 0.0})
        assert (code, err) == (2, "error: trial 1 failed\n")
        assert len(ran) < 6
        assert not (tmp_path / "bench.csv").exists()

    def test_the_first_failure_in_task_order_wins(self, tmp_path, monkeypatch, capsys):
        code, err, ran = self.failing_run(tmp_path, monkeypatch, capsys, {1: 0.3, 2: 0.0})
        assert (code, err) == (2, "error: trial 1 failed\n")

    def test_a_bad_window_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        config = self.write_config(tmp_path, {"preset": "arma3", "M_list": [128, 256], "sigma2_list": [0.0],
                                              "trials": 2, "n_per_model": 4, "q": 3, "window": {"kind": "hann"}})

        def unreachable(*args):
            raise AssertionError("a trial ran before every window was built")

        monkeypatch.setattr(psdcluster.cli, "_synth_trial", unreachable)
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "bench.csv")])
        assert code == 2
        assert "error: unknown window kind 'hann'" in capsys.readouterr().err

    def test_the_preset_is_built_once_per_process(self, monkeypatch):
        built, make_model = [], psdcluster.generators.make_model
        monkeypatch.setattr(psdcluster.generators, "make_model", lambda ar, ma: built.append(ar) or make_model(ar, ma))
        psdcluster.generators._arma3_models.cache_clear()
        config = {"preset": "arma3", "M_list": [128], "trials": 2, "n_per_model": 4, "q": 3, "seed": 0}
        first = run_synth_bench(config)
        assert run_synth_bench(config) == first
        assert len(built) == 3

    def test_unsorted_repeated_lists_give_sorted_distinct_rows(self):
        config = {"preset": "arma3", "trials": 2, "n_per_model": 4, "q": 3, "seed": 0}
        rows = run_synth_bench({**config, "M_list": [1024, 256, 256], "sigma2_list": [0.25, 0, 0.0]})
        assert [(row["M"], row["sigma2"], row["algorithm"]) for row in rows] == [
            (m, sigma2, algorithm) for m in (256, 1024) for sigma2 in (0.0, 0.25) for algorithm in ("km", "nnpc")
        ]
        assert rows == run_synth_bench({**config, "M_list": [256, 1024], "sigma2_list": [0.0, 0.25]})

    @pytest.mark.parametrize("trials", [10**21, 10**12])
    def test_an_enormous_trial_count_exits_2_at_once(self, tmp_path, trials):
        config = self.write_config(tmp_path, {"preset": "arma3", "M_list": [64], "trials": trials, "n_per_model": 4,
                                              "q": 3})
        out = tmp_path / "bench.csv"

        def cap_address_space():  # in the child: a run that grows with the trial count fails there at 4 GiB
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run([sys.executable, "-m", "psdcluster", "synth-bench", "--config", str(config), "--out",
                               str(out)], env=checkout_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: 'trials' is too large")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth-bench", "check-condition"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("b", {"x": 1}),
            ("b", "12"),
            ("b", [True]),
            ("a", 1.0),
            ("a", []),
            ("b", ["1"]),
            ("b", [1.0, None]),
            ("b", [[1.0, 2.0]]),
            ("b", [float("nan")]),
            ("a", [1.0, float("inf")]),
            ("b", [10**400]),
        ],
    )
    def test_model_entries_must_be_lists_of_finite_numbers(self, tmp_path, capsys, command, key, value):
        bad = {"a": [1.0], "b": [1.0], key: value}
        config = self.write_config(tmp_path, {"models": [{"a": [1.0], "b": [1.0]}, bad], "M_list": [64], "trials": 1,
                                              "n_per_model": 3, "q": 2})
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: 'models'[1] '{key}' must be a non-empty list of finite numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth-bench", "check-condition"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"a": [1.0], "b": [1e200]}, "the model's PSD overflows: its power is inf\n"),
            ({"a": [1.0, -1.5], "b": [1.0]}, "unstable AR polynomial"),
        ],
    )
    def test_a_model_that_cannot_be_built_is_refused(self, tmp_path, capsys, command, entry, message):
        config = self.write_config(tmp_path, {"models": [{"a": [1.0], "b": [1.0]}, entry], "M_list": [64],
                                              "trials": 1, "n_per_model": 3, "q": 2})
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: 'models'[1]: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth-bench", "check-condition"])
    def test_an_m_list_entry_without_a_window_is_refused(self, tmp_path, capsys, command):
        # 2**60 samples fail numpy's size check before anything is allocated
        config = self.write_config(tmp_path, {"preset": "arma3", "M_list": [64, 2**60], "trials": 1,
                                              "n_per_model": 3, "q": 2})
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: 'M_list' entry {2**60}: its window cannot be built (") and err.count("\n") == 1
        assert not out.exists()

    def test_explicit_models(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {
                "models": [{"a": [1.0], "b": [1.0]}, {"a": [1.0, -0.8], "b": [1.0]}],
                "M_list": [64],
                "trials": 1,
                "n_per_model": 3,
                "q": 2,
            },
        )
        out = tmp_path / "bench.csv"
        assert main(["synth-bench", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out) as handle:
            assert len(list(csv.reader(handle))) == 3

    @pytest.mark.parametrize(
        "payload",
        [
            {"preset": "arma3", "M_list": [64], "bogus": 1},
            {"preset": "arma3", "models": [{"a": [1.0], "b": [1.0]}], "M_list": [64]},
            {"preset": "unknown", "M_list": [64]},
            {"preset": "arma3"},
            {"preset": "arma3", "M_list": [1]},
            {"preset": "arma3", "M_list": [64], "q": 0},
            {"preset": "arma3", "M_list": [64], "trials": True},
            {"preset": "arma3", "M_list": [64], "window": {"kind": "gaussian", "extra": 1}},
            {"models": [{"a": [1.0]}], "M_list": [64]},
            {"preset": "arma3", "M_list": [64], "sigma2_list": [10**400]},  # an integer beyond the float range
            {"preset": "arma3", "M_list": [64], "window": {"kind": "gaussian", "std": 10**400}},
        ],
    )
    def test_config_validation(self, tmp_path, capsys, payload):
        config = self.write_config(tmp_path, payload)
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        capsys.readouterr()

    def test_nan_window_std_in_config_is_rejected(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, {"preset": "arma3", "M_list": [64], "window": {"kind": "gaussian", "std": float("nan")}}
        )
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "'window' std" in capsys.readouterr().err

    def test_nan_noise_variance_in_config_is_rejected(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, {"preset": "arma3", "M_list": [64], "sigma2_list": [float("nan")], "trials": 1}
        )
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "'sigma2_list'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_invalid_json_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["synth-bench", "check-condition"])
    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("lines", [
        ['{"preset": "arma3",', '  "M_list": [64,],', '  "trials": 1}'],  # a fault inside the document
        ['{"preset": "arma3",', '  "M_list": [64]'],  # a fault at its end
        ['\ufeff{"preset": "arma3",', '  "M_list": [64]}'],  # a second byte order mark
    ])
    def test_json_errors_give_the_line_and_column_of_text_mode(self, tmp_path, capsys, command, final_newline,
                                                               line_end, lines):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + (line_end.join(lines) + line_end * final_newline).encode())
        with open(config, encoding="utf-8-sig") as handle:  # text mode translates every line end to \n
            with pytest.raises(json.JSONDecodeError) as info:
                json.load(handle)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {config}: invalid JSON: {info.value}\n"

    def test_q_must_fit_dataset(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {"preset": "arma3", "M_list": [64], "trials": 1, "n_per_model": 2, "q": 6},
        )
        code = main(["synth-bench", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        capsys.readouterr()


class TestCheckCondition:
    def test_single_combination_is_a_flat_report(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "arma3", "M_list": [512]}))
        code = main(["check-condition", "--config", str(config)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is False
        assert payload["obs_len"] == 512
        assert payload["noise_term"] > payload["min_model_distance"]

    def test_acceptance_benchmark_config(self, tmp_path, capsys):
        # the criterion-5 config: M=256 with the default gaussian std of 50
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "arma3", "M_list": [256, 1024, 4096], "sigma2_list": [0, 0.25]}))
        assert main(["check-condition", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["obs_len"] for r in payload] == [256, 256, 1024, 1024, 4096, 4096]

    def test_multiple_combinations_make_a_list(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"preset": "arma3", "M_list": [512, 1024], "sigma2_list": [0.0, 0.25]})
        )
        code = main(["check-condition", "--config", str(config), "--out", str(tmp_path / "out.json")])
        assert code == 0
        capsys.readouterr()
        payload = read_json(tmp_path / "out.json")
        assert isinstance(payload, list)
        assert len(payload) == 4
        assert [r["obs_len"] for r in payload] == [512, 512, 1024, 1024]

    def test_a_single_model_is_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [{"a": [1.0, -0.5], "b": [1.0]}], "M_list": [64]}))
        out = tmp_path / "out.json"
        assert main(["check-condition", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the clustering condition needs at least two models\n"
        assert not out.exists()

    def test_a_model_with_a_long_ma_part_is_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [{"a": [1.0], "b": [1.0] * 40000}, {"a": [1.0, -0.5], "b": [1.0]}],
                                      "M_list": [64]}))
        out = tmp_path / "out.json"
        assert main(["check-condition", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the model's MA part has 40000 coefficients; the window-bias moment takes at most 32766\n"
        )
        assert not out.exists()


class TestConvertMocap:
    def write_sequence(self, path, column_values, header=True):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            if header:
                writer.writerow(["time", "hip_x", "foot_r"])
            for t, v in enumerate(column_values):
                writer.writerow([t, 0.5 * t, v])

    def test_collects_named_column(self, tmp_path, capsys):
        first = tmp_path / "seq1.csv"
        second = tmp_path / "seq2.csv"
        self.write_sequence(first, [1.0, 2.0, 3.0])
        self.write_sequence(second, [4.0, 5.0])
        out = tmp_path / "dataset.csv"
        code = main(["convert-mocap", str(first), str(second), "--column", "foot_r", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert [float(v) for v in rows[0]] == [1.0, 2.0, 3.0]
        assert [float(v) for v in rows[1]] == [4.0, 5.0]

    def test_index_mode_skips_detected_header(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        self.write_sequence(path, [7.0, 8.0, 9.0])
        out = tmp_path / "dataset.csv"
        assert main(["convert-mocap", str(path), "--column", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert [float(v) for v in rows[0]] == [7.0, 8.0, 9.0]

    def test_label_prefix_and_cluster_roundtrip(self, tmp_path, capsys):
        first = tmp_path / "walk1.csv"
        second = tmp_path / "run1.csv"
        self.write_sequence(first, list(np.sin(0.3 * np.arange(40))))
        self.write_sequence(second, list(np.sin(2.2 * np.arange(30))))
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text("walk1.csv,walk\nrun1.csv,run\n")
        out = tmp_path / "dataset.csv"
        code = main(
            ["convert-mocap", str(first), str(second), "--column", "foot_r",
             "--out", str(out), "--labels-csv", str(labels_csv)]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "walk"
        assert rows[1][0] == "run"
        # the emitted dataset feeds straight back into the cluster subcommand
        code = main(["cluster", str(out), "--truth", "--pad-zeros", "--clusters", "2",
                     "--neighbors", "1", "--labels-out", str(tmp_path / "out-labels.csv"),
                     "--report-out", str(tmp_path / "report.json")])
        assert code == 0
        capsys.readouterr()
        assert read_json(tmp_path / "report.json")["n_obs"] == 2

    def test_missing_label_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        self.write_sequence(path, [1.0, 2.0])
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text("other.csv,walk\n")
        code = main(["convert-mocap", str(path), "--column", "foot_r",
                     "--out", str(tmp_path / "o.csv"), "--labels-csv", str(labels_csv)])
        assert code == 2
        capsys.readouterr()
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        self.write_sequence(path, [1.0, 2.0])
        code = main(["convert-mocap", str(path), "--column", "elbow", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        code = main(["convert-mocap", str(path), "--column", "9", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        capsys.readouterr()
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_a_non_finite_value_is_refused(self, tmp_path, capsys, value):
        path = tmp_path / "seq.csv"
        path.write_text(f"0,1.5\n1,{value}\n2,2.5\n")
        out = tmp_path / "o.csv"
        assert main(["convert-mocap", str(path), "--column", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: non-finite value in column 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("label", ["", " "])
    def test_a_blank_label_is_refused(self, tmp_path, capsys, label):
        path = tmp_path / "run1.csv"
        self.write_sequence(path, [1.0, 2.0])
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text(f"walk1.csv,walk\nrun1.csv,{label}\n")
        out = tmp_path / "o.csv"
        assert main(["convert-mocap", str(path), "--column", "foot_r", "--out", str(out),
                     "--labels-csv", str(labels_csv)]) == 2
        assert capsys.readouterr().err == f"error: {labels_csv}: line 2: blank label for sequence file 'run1.csv'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "last, message",
        [("3.0,abc", "line 5: non-numeric value in column 1"), ("3.0", "line 5 has no column 1"),
         ("3.0,inf", "line 5: non-finite value in column 1")],
    )
    def test_a_fault_names_its_line_of_the_file(self, tmp_path, capsys, last, message):
        path = tmp_path / "s.csv"
        path.write_text(f"x,y\n\n1.0,2.0\n\n{last}\n")
        out = tmp_path / "o.csv"
        assert main(["convert-mocap", str(path), "--column", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "second, labels, code, message",
        [
            ("x\n", None, 2, "b.csv: sequence needs at least 2 frames"),
            ("0,3.5\n1,4.5\n", "a.csv,walk\n", 2, "no label for sequence file 'b.csv'"),
            (None, None, 1, "b.csv"),
        ],
        ids=["short-sequence", "missing-label", "missing-file"],
    )
    def test_a_bad_later_sequence_writes_nothing(self, tmp_path, capsys, second, labels, code, message):
        (tmp_path / "a.csv").write_text("0,1.5\n1,2.5\n")
        if second is not None:
            (tmp_path / "b.csv").write_text(second)
        argv = ["convert-mocap", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--column", "1",
                "--out", str(tmp_path / "out.csv")]
        if labels is not None:
            (tmp_path / "labels.csv").write_text(labels)
            argv += ["--labels-csv", str(tmp_path / "labels.csv")]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "psdcluster" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["cluster", "estimate-l"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--grid-factor", "1"], "grid factor must be >= 2"),
            (["--std", "nan"], "gaussian window std must be a positive finite number, got nan"),
            (["--max-clusters", "0"], "the cluster-count cap must be positive, got 0"),
            (["--neighbors", "0"], "neighbor count must be in 1..11, got 0"),
            (["--std", "1e-200"], "gaussian window std 1e-200 is too small: its window is not finite"),
        ],
    )
    def test_input_independent_options_fail_before_the_input_is_parsed(self, dataset_csv, capsys, monkeypatch,
                                                                       command, options, message):
        """The usual message and exit 2; the range of neighbor counts comes from counting the 12 rows."""
        def unreachable(*args, **kwargs):
            raise AssertionError("the input was parsed before the options were checked")

        monkeypatch.setattr(psdcluster.reader, "read_observation_csv", unreachable)
        assert main([command, str(dataset_csv), "--truth", *options]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["nnpc", "km"])
    def test_negative_seed_is_rejected_before_the_input_is_read(self, dataset_csv, tmp_path, capsys, monkeypatch,
                                                                algorithm):
        def unreachable(*args, **kwargs):
            raise AssertionError("the input was read before --seed was checked")

        monkeypatch.setattr(psdcluster.reader, "read_observation_csv", unreachable)
        with pytest.raises(SystemExit) as info:
            main(["cluster", str(dataset_csv), "--truth", "--algorithm", algorithm, "--clusters", "2", "--seed", "-1",
                  "--labels-out", str(tmp_path / "labels.csv"), "--report-out", str(tmp_path / "report.json")])
        assert info.value.code == 2
        assert "argument --seed: seed must be nonnegative, got -1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["cluster", str(dataset_csv), "--seed", "1.5"])
        assert info.value.code == 2
        assert "argument --seed: expected a nonnegative integer" in capsys.readouterr().err

    def test_clusters_argument_validation(self, dataset_csv, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", str(dataset_csv), "--clusters", "zero"])
        with pytest.raises(SystemExit):
            main(["cluster", str(dataset_csv), "--clusters", "0"])
        capsys.readouterr()


def tone_csv_bytes(n_rows=18, length=24):
    """A valid cluster input with a truth column: noisy sinusoids at three frequencies."""
    gen = np.random.default_rng(5)
    t = np.arange(length)
    lines = []
    for i in range(n_rows):
        row = np.sin(2 * np.pi * (0.05, 0.2, 0.4)[i % 3] * t + gen.uniform(0, 6)) + 0.2 * gen.standard_normal(length)
        lines.append(f"m{i % 3}," + ",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines).encode()


TONE_CSV = tone_csv_bytes()
# Byte strings that the mutations splice into a valid CSV.
DAMAGE = [b'"', b"\xef\xbb\xbf", b"\xff", b"\x00", b"\r", b"\r\n", b"\n", b",", b"nan", b"-inf", b"inf",
          b"1e308", b"-1e308", b"1e-320", b"e+16", b"e+150", b"x"]
# TONE_CSV with its first sample times 1e150: nnpc's graph leaves that row an isolated node.
HUGE_FIRST_SAMPLE = b"%s,%se+150,%s" % tuple(TONE_CSV.split(b",", 2))


@st.composite
def damaged_csv(draw):
    """TONE_CSV after a few insertions, replacements and deletions at drawn positions."""
    text = bytearray(TONE_CSV)
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "delete":
            del text[position : position + draw(st.integers(1, 40))]
        else:
            text[position : position + (action == "replace")] = draw(st.sampled_from(DAMAGE))
    return bytes(text)


@st.composite
def command_options(draw):
    """A command with options that argparse accepts; about one draw in five sets one invalid value."""
    command = draw(st.sampled_from(["cluster", "estimate-l"]))
    flags = [flag for flag in ("--truth", "--pad-zeros", "--subtract-mean", "--normalize-psd")
             if flag == "--truth" or draw(st.booleans())]
    values = {"--window": draw(st.sampled_from(WINDOW_KINDS)), "--neighbors": draw(st.integers(1, 8)),
              "--grid-factor": draw(st.integers(2, 4)), "--max-clusters": draw(st.integers(1, 6))}
    invalid = [("--neighbors", 0), ("--neighbors", 20), ("--grid-factor", 1), ("--max-clusters", 0)]
    if command == "cluster":
        values.update({"--algorithm": draw(st.sampled_from(["nnpc", "km"])),
                       "--clusters": draw(st.sampled_from(["1", "2", "3", "5"])), "--seed": draw(st.integers(0, 3))})
        invalid.append(("--clusters", "auto"))  # an error with km
    if draw(st.integers(0, 4)) == 0:
        option, value = draw(st.sampled_from([("--truth", None), *invalid]))
        if option == "--truth":
            flags.remove("--truth")  # the labels are read as samples
        else:
            values[option] = value
    return command, [*flags, *(str(item) for pair in values.items() for item in pair)]


class TestErrorContract:
    """Damaged input under random options: exit 0, 1 or 2, one error line on failure, repeatable success."""

    @staticmethod
    def run(command, path, options, outputs):
        argv = [command, str(path), *options]
        if command == "cluster":
            argv += ["--labels-out", str(outputs / "labels.csv"), "--report-out", str(outputs / "report.json")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            # any other warning is an error; the pattern matches from the start of "<count> isolated node(s) ..."
            warnings.filterwarnings("ignore", r"\d+ isolated node", RuntimeWarning)
            code = main(argv)
        files = {name: (outputs / name).read_bytes() for name in ("labels.csv", "report.json")
                 if (outputs / name).exists()}
        return code, out.getvalue(), err.getvalue(), files

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(content=damaged_csv(), command=command_options())
    @example(content=TONE_CSV.replace(b"m1,", b"m1,1e200,", 1), command=("cluster", ["--truth", "--pad-zeros"]))
    @example(content=TONE_CSV.replace(b"m2,", b"m2,1e-320,", 1), command=("estimate-l", ["--truth", "--pad-zeros"]))
    @example(content=HUGE_FIRST_SAMPLE, command=("cluster", ["--truth"]))  # warns of the isolated node, exit 0
    def test_damaged_input(self, tmp_path_factory, content, command):
        command, options = command
        base = tmp_path_factory.mktemp("contract")
        path = base / "input.csv"
        path.write_bytes(content)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(psdcluster.distances, "NEIGHBOR_BLOCK_ROWS", 4)  # the multi-block scan
            first = self.run(command, path, options, base)
            code, _, err, _ = first
            assert code in (0, 1, 2)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert err == ""
                for name in first[3]:
                    (base / name).unlink()
                assert self.run(command, path, options, base) == first


class TestFileOrder:
    """The first bad line in file order is the one reported, over later lines and later stages."""

    @staticmethod
    def write(path, quoted, faults):
        """Eight labelled rows of 16 samples with the faults named in faults; a quoted first label sends
        every line to csv.reader, and otherwise each batch on the byte route's grammar is read there."""
        rows = [[f"m{index % 2}", *(repr(float(v)) for v in row)]
                for index, row in enumerate(np.random.default_rng(21).standard_normal((8, 16)))]
        if quoted:
            rows[0][0] = '"m0"'
        edits = {"overflow": (1, "1e200"), "nan": (2, "nan"), "ragged": (3, None), "text": (5, "abc")}
        for fault in faults:
            line, cell = edits[fault]
            rows[line][4:5] = [cell] if cell else []
        path.write_text("".join(",".join(row) + "\n" for row in rows))

    @pytest.mark.parametrize("batch_bytes", [None, 1])
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("command", ["cluster", "estimate-l"])
    def test_the_first_bad_line_wins(self, tmp_path, capsys, monkeypatch, command, quoted, batch_bytes):
        if batch_bytes is not None:  # every line its own batch
            monkeypatch.setattr(psdcluster.reader, "CSV_BATCH_BYTES", batch_bytes)
        path = tmp_path / "obs.csv"
        argv = [command, str(path), "--truth", "--neighbors", "2"]
        if command == "cluster":
            argv += ["--labels-out", str(tmp_path / "labels.csv"), "--report-out", str(tmp_path / "report.json")]
        cases = [
            (["overflow", "ragged", "text"], f"{path}: line 6: non-numeric sample value"),
            (["overflow", "nan", "ragged", "text"], f"{path}: line 3: samples must be finite"),
            # each fault is live once the ones before it in this list are gone
            (["overflow", "ragged"], f"{path}: rows have different lengths; pass --pad-zeros to zero-pad them"),
            (["overflow"], "PSD estimation overflowed"),
        ]
        for faults, message in cases:
            self.write(path, quoted, faults)
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, (faults, err)
        assert not (tmp_path / "labels.csv").exists()


class TestThreadCount:
    """The reader's batches and the PSD chunks run on one thread per CPU; the outputs and the first
    error are those of one thread."""

    @staticmethod
    def noisy_tones(n_rows, length, seed):
        """Labelled rows of three noisy sinusoids."""
        gen = np.random.default_rng(seed)
        t = np.arange(length)
        rows = [np.sin(2 * np.pi * (0.05, 0.2, 0.4)[i % 3] * t + gen.uniform(0, 6)) + 0.3 * gen.standard_normal(length)
                for i in range(n_rows)]
        return rows, [f"m{i % 3}" for i in range(n_rows)]

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, capsys):
        # 700 rows of 256 samples: 27 reader batches, PSD chunks of 256 rows on one thread (128 on two, 85 on
        # three) and 3 q-NN blocks
        path = write_repr_csv(tmp_path / "obs.csv", *self.noisy_tones(700, 256, 31))
        assert path.stat().st_size // psdcluster.reader.CSV_BATCH_BYTES == 26
        runs = {"nnpc": ["cluster", "--clusters", "auto"], "km": ["cluster", "--algorithm", "km", "--clusters", "3"],
                "estimate": ["estimate-l"]}
        outputs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
            for name, (command, *options) in runs.items():
                files = [] if command == "estimate-l" else [
                    "--labels-out", str(tmp_path / f"{name}-labels.csv"), "--report-out", str(tmp_path / "report.json")]
                assert main([command, str(path), "--truth", *options, *files]) == 0
                outputs[workers, name] = capsys.readouterr().out if not files else (
                    (tmp_path / f"{name}-labels.csv").read_bytes(), (tmp_path / "report.json").read_bytes())
        for name in runs:
            assert outputs[1, name] == outputs[2, name] == outputs[3, name]

    def test_the_first_bad_line_wins_on_two_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: 2)
        monkeypatch.setattr(psdcluster.reader, "CSV_BATCH_BYTES", 1)  # every line its own batch
        rows, labels = self.noisy_tones(8, 16, 32)
        lines = write_repr_csv(tmp_path / "obs.csv", rows, labels).read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace(",", ",x", 2)  # batch 1: csv.reader reads a non-numeric cell
        lines[2] = lines[2].replace(",", ",1e400,", 1)  # batch 3: the byte route reads an infinite sample
        (tmp_path / "obs.csv").write_text("".join(lines))
        assert main(["estimate-l", str(tmp_path / "obs.csv"), "--truth"]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'obs.csv'}: line 1: non-numeric sample value\n"

    def test_an_overflow_in_chunks_2_and_3_gives_the_serial_message(self, tmp_path, monkeypatch, capsys):
        rows, labels = self.noisy_tones(12, 64, 33)
        rows[5] = rows[5] * 1e300  # chunk 2 of 4 rows on one thread, chunk 3 of 2 rows on two
        rows[9] = rows[9] * 1e300  # chunk 3 on one thread, chunk 5 on two
        path = write_repr_csv(tmp_path / "obs.csv", rows, labels)
        monkeypatch.setattr(psdcluster.numerics, "PSD_CHUNK_BYTES", 4 * 8 * 128)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(psdcluster.numerics, "worker_count", lambda: workers)
            assert main(["estimate-l", str(path), "--truth"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("error: PSD estimation overflowed")


# Runs in a fresh interpreter: argv[1] is a JSON list of (stage, argv) pairs.
# It prints, per stage, which of the simulation-only modules are loaded.
IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return [name for name in ("scipy.signal", "scipy.stats") if name in sys.modules]

seen = {}
import psdcluster
seen["import psdcluster"] = loaded()
from psdcluster.cli import main
seen["import psdcluster.cli"] = loaded()
for stage, argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        seen[stage] = [main(argv), loaded()]
print(json.dumps(seen))
"""


class TestEntryPoints:
    def test_only_simulation_loads_scipy_signal(self, dataset_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "arma3", "M_list": [512], "trials": 1, "n_per_model": 4, "q": 3}))
        stages = [
            ("cluster", ["cluster", str(dataset_csv), "--truth", "--neighbors", "3", "--labels-out",
                         str(tmp_path / "labels.csv"), "--report-out", str(tmp_path / "report.json")]),
            ("estimate-l", ["estimate-l", str(dataset_csv), "--truth", "--neighbors", "3"]),
            ("check-condition", ["check-condition", "--config", str(config)]),
            ("synth-bench", ["synth-bench", "--config", str(config), "--out", str(tmp_path / "bench.csv")]),
        ]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(stages)], env=checkout_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["import psdcluster"] == []
        assert seen["import psdcluster.cli"] == []
        assert seen["cluster"] == [0, []]
        assert seen["estimate-l"] == [0, []]
        assert seen["check-condition"] == [0, []]
        assert seen["synth-bench"][0] == 0
        assert "scipy.signal" in seen["synth-bench"][1]

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "psdcluster", "--version"], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"psdcluster {psdcluster.__version__}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "arma3", "M_list": [64], "q": 0}))
        proc = subprocess.run([sys.executable, "-m", "psdcluster", "synth-bench", "--config", str(config), "--out",
                               str(tmp_path / "bench.csv")], env=checkout_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""
