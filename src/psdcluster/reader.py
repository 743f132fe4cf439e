"""Input files as text, records and observation rows.

Every file the command-line front end reads (observation CSV, JSON config,
sequence file, label map) comes through here, and each entry takes a path:

- read_observation_csv: the observations of a CSV file, one per row, and
  optionally their truth labels;
- text_lines: the lines of a file as text;
- records: the csv.reader records of a file that hold a nonblank cell, each
  with the line it starts on.

A file is read in batches of whole lines, a leading UTF-8 byte order mark
dropped. The observation reader parses its batches on one thread per CPU
(numerics.ordered_map) and reads their rows in file order, so its rows and
its first error are those of one thread. Every message that names a line
names a physical line, split where csv.reader splits lines (\n, \r\n or
\r): the line an invalid UTF-8 byte is on, or the line on which the faulty
record starts.
"""

from __future__ import annotations

import codecs
import csv
from functools import partial
from itertools import chain

import numpy as np

from .numerics import ordered_map

# The reader takes whole lines in batches of about this many bytes.
CSV_BATCH_BYTES = 1 << 17
_EXACT_POWER = 27  # the largest k with 10**k exact in the x87 significand
_EXACT_MANTISSA = 10**18  # mantissas below this are exact there, and np.fromstring reads them unsaturated
_TOKEN_BYTES = bytes.maketrans(b"e\n", b",,")
# ordered_map counts a batch of lines as this many times its bytes, for its parse's transients. A
# 16 384-sample line's parse holds about 4.3 times its bytes, but 3 lets two such lines share a group:
# read serially, cluster-long's obs_per_s fell 7.4% (benchmarks/run.py, 8 pairs, 2-vCPU Xeon).
_PARSE_FACTOR = 3
_SCALE_CELLS = 2048  # cells scaled at once in np.longdouble, so the extended values of a batch are never all held


def _exact_scaling_powers():
    """10**0 .. 10**27 as np.longdouble where that is the x87 format, else None.

    Each power is exact in the x87 64-bit significand (5**27 < 2**63), so a
    mantissa below 10**18 times or over one of them is rounded once. The
    significand is the low 8 bytes of each 16-byte item.
    """
    if np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16:
        return None
    return np.cumprod(np.r_[1, np.full(_EXACT_POWER, 10)].astype(np.longdouble))


# The byte route's scaling powers, or None where it is off and csv.reader reads every batch.
_EXACT_POWERS = _exact_scaling_powers()


def _csv_rows(path, lines, start: int = 0):
    """(line number, record) of each record of csv.reader(lines): the physical
    line the record starts on, counting the first of lines as start + 1.

    A csv.Error (say, a stray quote that swallows the rest of a large file)
    becomes a ValueError naming the file and the line its record starts on.
    """
    reader = csv.reader(lines)
    line_no = start + 1
    try:
        for record in reader:
            yield line_no, record
            line_no = start + reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from exc


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


def _parse_sample_lines(region: bytes, powers):
    """The samples of each line of a region of sample cells whose lines all
    end in \\n, or None if a cell is outside the byte route's grammar.

    A cell is an optional minus sign, digits with at most one dot among them
    and at least one digit, and an optional exponent e[-|+]digits (repr
    writes e+16 and up); its value has the bits float() gives. The dots and
    plus signs go, the exponent markers and newlines become commas, and one
    np.fromstring reads every mantissa and exponent as an integer. A region
    without a plus sign skips the plus-sign scan. Each mantissa is scaled by
    a power of ten in np.longdouble, _SCALE_CELLS cells at a time, and cast
    to float64. float() reads the cells where that could round twice: a
    mantissa of 10**18 or more (fromstring saturates at 2**63 - 1), a power
    beyond 10**27, or an extended result that lies exactly halfway between
    two doubles. Every CPU may be parsing a region at once, so each array
    goes once used, and those as long as the region are made while little
    else is held: one line of 16384 cells peaks at about 0.75 MB beside it.
    """
    if region.translate(None, b"0123456789.-+e,\n"):
        return None
    data = np.frombuffer(region, np.uint8)
    # numpy counts without the GIL, bytes.count holds it
    plus_signs = np.count_nonzero(data == ord("+")) if b"+" in region else 0
    minus_signs = np.count_nonzero(data == ord("-"))
    cut = data <= ord(",")  # the grammar's bytes up to "," are "\n", "+" and ","
    if plus_signs:
        cut &= data != ord("+")
    ends = np.flatnonzero(cut)
    del cut
    marks = np.flatnonzero(data == ord("e"))
    dots = np.flatnonzero(data == ord("."))
    dot_cells, mark_cells = np.searchsorted(ends, dots), np.searchsorted(ends, marks)
    if np.any(np.diff(dot_cells) < 1) or np.any(np.diff(mark_cells) < 1):
        return None  # two dots or two exponents in one cell
    dots -= ends[dot_cells]
    dots += 1
    scale = np.zeros(len(ends), dtype=np.int64)
    scale[dot_cells] = dots  # minus the count of bytes after the dot
    del dots
    negative = np.empty(len(ends), dtype=bool)
    negative[0] = data[0] == ord("-")
    negative[1:] = data[ends[:-1] + 1] == ord("-")
    digits = np.empty_like(ends)  # each cell's width, then the digits of its mantissa
    digits[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=digits[1:])
    digits[1:] -= 1
    if digits.max() > csv.field_size_limit():  # csv.reader refuses such a cell
        return None
    negative_exponent = data[marks + 1] == ord("-")
    if minus_signs != np.count_nonzero(negative) + np.count_nonzero(negative_exponent):
        return None  # a minus sign neither first in a cell nor right after its e
    exponent_sign = negative_exponent
    if plus_signs:
        positive_exponent = data[marks + 1] == ord("+")
        if plus_signs != np.count_nonzero(positive_exponent):
            return None  # a plus sign anywhere but right after an e
        exponent_sign = negative_exponent | positive_exponent
    exponent_width = ends[mark_cells] - marks  # the e and the bytes after it
    dotted = np.zeros(len(ends), dtype=bool)
    dotted[dot_cells] = True
    dotted = dotted[mark_cells]
    scale[mark_cells[dotted]] += exponent_width[dotted]  # a dot's scale counts the mantissa's bytes alone
    if np.any(scale[mark_cells] > 0):
        return None  # a dot in the exponent
    digits -= negative
    digits[dot_cells] -= 1
    digits[mark_cells] -= exponent_width
    if digits.min() < 1 or np.any(exponent_width - exponent_sign < 2):
        return None  # a mantissa or an exponent without digits
    del digits, dot_cells
    tokens = np.fromstring(region.translate(_TOKEN_BYTES, b".+"), dtype=np.int64, sep=",")
    if len(marks):
        exponents = mark_cells + np.arange(1, len(marks) + 1)
        scale[mark_cells] += tokens[exponents]
        tokens = np.delete(tokens, exponents)
    inexact = (scale > _EXACT_POWER) | (scale < -_EXACT_POWER)
    inexact |= (tokens >= _EXACT_MANTISSA) | (tokens <= -_EXACT_MANTISSA)
    np.clip(scale, -_EXACT_POWER, _EXACT_POWER, out=scale)
    samples = np.empty(len(ends))
    for start in range(0, len(ends), _SCALE_CELLS):
        part = slice(start, start + _SCALE_CELLS)
        extended = np.abs(tokens[part]).astype(np.longdouble)
        extended *= powers[np.maximum(scale[part], 0)]
        extended /= powers[np.maximum(-scale[part], 0)]
        inexact[part] |= (extended.view(np.uint64)[::2] & 0x7FF) == 0x400  # a tie in the cast that the decimal may not be
        samples[part] = extended
    np.negative(samples, out=samples, where=negative)  # the sign of -0.0 too
    for cell in np.flatnonzero(inexact):
        samples[cell] = float(region[ends[cell - 1] + 1 if cell else 0 : ends[cell]])
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


def _line_batches(path):
    """Whole lines of a file in batches of about CSV_BATCH_BYTES, a leading UTF-8 BOM dropped.

    The one place a file is opened. A line longer than a batch is a batch of its own, read once.
    """
    with open(path, "rb") as handle:
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


def text_lines(path):
    """The lines of a file as text, line ends kept."""
    return _decoded_lines(path, _line_batches(path))


def records(path):
    """(line it starts on, cells) of each csv.reader record of a file that holds a nonblank cell."""
    return ((line_no, cells) for line_no, cells in _csv_rows(path, text_lines(path))
            if any(cell.strip() for cell in cells))


def _observation_rows(path, with_truth: bool):
    """(line number, label or None, samples) of each nonblank record of a CSV file.

    A batch of lines on the byte route's grammar is parsed there, on one
    thread per CPU (numerics.ordered_map), and its rows come back in file
    order; csv.reader reads any other batch, and the rest of the file too if
    the batch holds a double quote. Both give the same samples, labels,
    errors and line numbers.
    """
    batches = _line_batches(path)
    line_no = 0
    for batch, rows in ordered_map(partial(_parsed_batch, with_truth=with_truth), _to_first_quote(batches),
                                   size=lambda batch: _PARSE_FACTOR * len(batch)):
        if rows is not None:
            for line_no, (label, values) in enumerate(rows, start=line_no + 1):
                yield line_no, label, values
            continue
        # Without a double quote every record is one line, so line_no ends as the count of lines read.
        lines = _decoded_lines(path, chain([batch], batches) if b'"' in batch else [batch], line_no)
        for line_no, cells in _csv_rows(path, lines, start=line_no):
            record = _record_samples(path, line_no, cells, with_truth)
            if record is not None:
                yield line_no, *record


def _to_first_quote(batches):
    """The batches up to the first that holds a double quote, which ends the byte route's part of a file."""
    for batch in batches:
        yield batch
        if b'"' in batch:
            return


def _parsed_batch(batch: bytes, with_truth: bool):
    """(None, rows) of a batch on the byte route (_parse_batch), else (batch, None)."""
    rows = None if _EXACT_POWERS is None else _parse_batch(batch, with_truth, _EXACT_POWERS)
    return (batch, None) if rows is None else (None, rows)


def read_observation_csv(path, with_truth: bool, pad_zeros: bool, subtract_mean: bool):
    """Load observations (one per row); optionally a leading truth-label column.

    Returns (observations, truth) with truth None unless requested. Ragged
    rows are zero-padded to the longest row when pad_zeros is set and are an
    error otherwise. Mean subtraction happens before padding. The file is
    read in batches of whole lines (_observation_rows), and each row goes
    straight into one buffer that grows in place, in rows and in width
    alike, and is cut to the longest row at the end.
    """
    observations = np.zeros((0, 0))
    count, longest, ragged = 0, 0, False
    truth_cells: list[str] = []
    for line_no, label, values in _observation_rows(path, with_truth):
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
        ragged = ragged or (count > 0 and values.size != longest)
        if ragged and not pad_zeros:
            continue  # an error, once every line has had its own checks
        longest = max(longest, values.size)
        if longest > observations.shape[1]:  # the first row, or a longer one to pad the rest to
            width = observations.shape[1]
            _set_width(observations, count, max(longest, width + width // 4 + 16) if count else longest)
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
    if observations.shape[1] > longest:
        _set_width(observations, count, longest)
    truth = None
    if with_truth:
        seen: dict[str, int] = {}
        truth = np.array([seen.setdefault(cell, len(seen)) for cell in truth_cells])
    return observations, truth


def _set_width(buffer: np.ndarray, count: int, width: int) -> None:
    """Give a C-ordered (rows, w) buffer `width` columns in place.

    Rows 0..count-1 keep their first min(w, width) samples, zero-padded.
    Zero rows past count stay zero when the buffer widens; a cut leaves
    them undefined. The rows move within the buffer's own memory, back to
    front when it widens, so it is never held twice.
    """
    rows, old = buffer.shape
    keep = min(old, width)
    if width > old:
        buffer.resize((rows, width), refcheck=False)  # the old rows lie packed at the front, the new memory is zero
    flat = buffer.reshape(-1)
    for i in range(count - 1, -1, -1) if width > old else range(count):
        flat[i * width : i * width + keep] = flat[i * old : i * old + keep]
        flat[i * width + keep : (i + 1) * width] = 0.0
    del flat
    if width < old:
        buffer.resize((rows, width), refcheck=False)
