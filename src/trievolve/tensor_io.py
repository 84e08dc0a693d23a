"""Loading, normalizing and generating 3D expression tensors.

The canonical input is a long-format CSV with header exactly
``gene,condition,time,value`` (UTF-8, with or without a byte-order mark;
``.`` decimal separator).  An empty value field marks a missing measurement;
so does an absent (gene, condition, time) triple.  Per-condition matrix
layouts must be converted to this format upstream.

The loader reads the input in one pass of line chunks, so it may be a pipe.
A chunk with no quote whose every line splits into a clean row is split on
commas and line ends in one ``str.split``; the first other chunk, and every
chunk after it, go through ``csv.reader``, and faults are sought only there.

All operations are pure given their inputs and seed, and tensors are
immutable after construction, so they are safe to share across threads.
"""

import csv
import io
import math
import os
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, count, islice, product

import numpy as np

from .quality import TriclusterCoords, jaccard_cells
from .quality import _check_bounds, _choice, _integer, _nonnegative

CSV_HEADER = ("gene", "condition", "time", "value")

# Rows parsed (or written) per step of the CSV reader and writer.
_CHUNK_ROWS = 32768
# Missing time points named in a ragged-grid error; the rest are counted.
_SHOWN_GAPS = 10

PATTERN_CONSTANT = "constant"
PATTERN_ADDITIVE = "additive"
PATTERN_MULTIPLICATIVE = "multiplicative"
PATTERNS = (PATTERN_CONSTANT, PATTERN_ADDITIVE, PATTERN_MULTIPLICATIVE)

BACKGROUND_UNIFORM01 = "uniform01"
BACKGROUND_GAUSSIAN = "gaussian"
BACKGROUNDS = (BACKGROUND_UNIFORM01, BACKGROUND_GAUSSIAN)
# The most cells a synthetic tensor may hold (800 MB of values); specs are
# checked against it before anything is allocated.
_MAX_SYNTHETIC_CELLS = 10**8


class DatasetFormatError(ValueError):
    """The input file violates the long-format CSV contract."""


class RegionOverlapError(ValueError):
    """Two planted regions share at least one cell."""


@dataclass(frozen=True)
class ExpressionTensor:
    """Dense (gene, condition, time) expression tensor.

    ``missing_mask`` is True where the source value was absent before
    imputation; it is preserved across normalization and imputation for
    provenance.
    """

    values: np.ndarray
    gene_ids: tuple[str, ...]
    condition_ids: tuple[str, ...]
    time_labels: tuple[str, ...]
    missing_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.missing_mask, dtype=bool)
        gene_ids = tuple(self.gene_ids)
        condition_ids = tuple(self.condition_ids)
        time_labels = tuple(self.time_labels)
        shape = (len(gene_ids), len(condition_ids), len(time_labels))
        if min(shape) < 1:
            raise ValueError("every axis needs at least one label")
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != labels shape {shape}")
        if mask.shape != shape:
            raise ValueError(f"missing_mask shape {mask.shape} != {shape}")
        for name, ids in (
            ("gene_ids", gene_ids),
            ("condition_ids", condition_ids),
            ("time_labels", time_labels),
        ):
            if len(set(ids)) != len(ids):
                raise ValueError(f"{name} contains duplicates")
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing_mask", mask)
        object.__setattr__(self, "gene_ids", gene_ids)
        object.__setattr__(self, "condition_ids", condition_ids)
        object.__setattr__(self, "time_labels", time_labels)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def n_missing(self) -> int:
        return int(self.missing_mask.sum())


def _sorted_time_labels(labels) -> list[str]:
    # Numeric sort when every label parses as a number other than nan, else
    # lexical; the time axis must be monotone for the time-position
    # regressions, and nan compares false with everything.
    try:
        if not any(math.isnan(float(s)) for s in labels):
            return sorted(labels, key=lambda s: (float(s), s))
    except ValueError:
        pass
    return sorted(labels)


def load_dataset(path) -> ExpressionTensor:
    """Read a long-format CSV into a tensor; no imputation is performed.

    Genes and conditions are ordered by first appearance, time labels by
    numeric (fallback lexical) sort.  Raises DatasetFormatError with a line
    number for malformed or duplicate rows, for values that are not finite
    numbers (``nan``/``inf`` included; an empty field marks a missing cell),
    and for ragged time grids where a condition has no rows at all for some
    time point.  The reported line is the first offending one in the file;
    on a line with several faults the field count is reported first, then an
    empty label, then the value, then a duplicate.  An input that cannot be
    read twice to count lines, such as a pipe, names the data row instead.

    Rows are read in chunks of a fixed number of rows, each turned into
    numpy columns before the next is read, so memory is bounded by one chunk
    plus the columns and the tensor, for a rejected ragged file too.

    A chunk is read as raw lines and joined into one text; the lines are
    dropped then.  While a chunk holds no quote and no line longer than the
    csv field limit, each line is one row whose fields are the line less its
    line end, split on commas, which is what ``csv.reader`` yields for it;
    the whole text is split with one ``str.split``, and the chunk is taken
    when every line has 4 fields and every row is clean.  The first chunk
    that fails that test (a blank, short or faulty line included), or whose
    read fails, goes through ``csv.reader`` as its text followed by the
    rest of the file, so a quoted field reads as csv reads it, across lines
    and chunks too, and every fault is found in csv's rows.  Reading stops
    at the first faulty row, and the columns stop before it, so a duplicate
    among them lies earlier in the file than that row; a read failure lies
    after both.  A leading UTF-8 byte-order mark is skipped.
    """
    axes = (_Index(), _Index(), _Index())
    parts = []
    fault = failure = reader = None
    n_rows = 0

    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        if tuple(header) != CSV_HEADER:
            raise DatasetFormatError(
                f"{path}: line 1: header must be exactly "
                f"{','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        while True:
            columns = None
            if reader is None:
                lines: list[str] = []
                try:
                    lines.extend(islice(fh, _CHUNK_ROWS))
                except (ValueError, OSError) as exc:  # decoding included
                    failure = exc
                n = len(lines)
                longest = max(map(len, lines), default=0)
                text = "".join(lines)
                del lines
                # A quote, and a field past csv's limit, read only as csv reads them.
                if (
                    failure is None
                    and longest <= csv.field_size_limit()
                    and '"' not in text
                ):
                    if "\r" in text:
                        # Unquoted, a CR, LF or CRLF ends a row alike, for
                        # csv too; rebinding text frees the original.
                        text = text.replace("\r\n", "\n").replace("\r", "\n")
                    columns = _split_columns(text, n, axes)
                if columns is None:
                    # This chunk's text, then the rest of the file (or the
                    # read failure), go through csv from here on.
                    rest = fh if failure is None else _raising(failure)
                    reader = csv.reader(chain(io.StringIO(text, newline=""), rest))
                    failure = None
                del text
            if columns is None:
                # Each row's fields, then the row's number in the chunk, go
                # into one flat list: no per-row list outlives its row (32k
                # live lists would set off full garbage collections).  extend
                # keeps the rows read before a failing one, whose faults are
                # reported first.
                flat: list = []
                try:
                    flat.extend(chain.from_iterable(chain.from_iterable(
                        zip(islice(reader, _CHUNK_ROWS), zip(count()))
                    )))
                except (csv.Error, ValueError, OSError) as exc:  # decoding included
                    failure = exc
                columns, fault = _parse_chunk(flat, n_rows, axes)
            parts.append(columns)
            n_rows += len(columns[0])
            if fault or failure is not None or len(columns[0]) < _CHUNK_ROWS:
                break

    gi, ci, ti, present, present_values = (np.concatenate(c) for c in zip(*parts))
    genes, conditions, first_times = (list(pos) for pos in axes)
    times = _sorted_time_labels(first_times)
    rank = np.empty(len(times), dtype=np.intp)
    rank[[axes[2][t] for t in times]] = np.arange(len(times))
    ti = rank[ti]
    shape = (len(genes), len(conditions), len(times))

    cells, pairs = _cell_index(gi, ci, ti, shape[2])
    dup = _first_repeat(cells)
    if dup is not None:
        fault = (
            dup,
            f"duplicate entry for gene={genes[gi[dup]]!r} "
            f"condition={conditions[ci[dup]]!r} time={times[ti[dup]]!r}",
        )
    if fault:
        row, detail = fault
        raise DatasetFormatError(f"{path}: {_row_place(path, row)}: {detail}")
    if failure is not None:
        raise failure
    if not n_rows:
        raise DatasetFormatError(f"{path}: no data rows")

    n_c, n_t = shape[1:]
    if len(pairs) < n_c * n_t:
        # The first condition with fewer pairs than time points has a gap.
        pair_conditions = pairs // n_t
        c = int(np.argmax(np.bincount(pair_conditions) < n_t))
        have = pairs[pair_conditions == c] % n_t
        gaps = [times[t] for t in np.setdiff1d(np.arange(n_t), have)]
        raise _ragged_grid_error(path, conditions[c], gaps)

    values = np.full(shape, np.nan)
    mask = np.ones(shape, dtype=bool)
    filled = cells[present]
    values.reshape(-1)[filled] = present_values
    mask.reshape(-1)[filled] = False
    return ExpressionTensor(values, tuple(genes), tuple(conditions), tuple(times), mask)


def _ragged_grid_error(path, condition: str, gaps) -> DatasetFormatError:
    """The error for a condition with no rows for the time points ``gaps``;
    it names the first _SHOWN_GAPS of them and counts the rest."""
    shown = [repr(t) for t in gaps[:_SHOWN_GAPS]]
    if len(gaps) > _SHOWN_GAPS:
        shown.append(f"… and {len(gaps) - _SHOWN_GAPS} more")
    return DatasetFormatError(
        f"{path}: ragged time grid: condition {condition!r} has no rows "
        f"for time point(s) {', '.join(shown)}"
    )


class _Index(dict):
    """Label -> axis index in order of first appearance; looking up a new
    label gives it the next index."""

    def __missing__(self, label):
        self[label] = index = len(self)
        return index


def _raising(exc):
    """An iterator that raises ``exc`` when first advanced."""
    raise exc
    yield  # unreachable; makes this a generator


def _split_columns(text, n, axes):
    """``_clean_columns`` of a chunk's text of ``n`` lines split on commas
    and line ends, or None when a line does not hold 4 fields or a row is
    faulty.

    ``text`` holds no quote, the one character csv reads specially here,
    and ends its lines with LF, the last one maybe with none, so each line
    reads in ``csv.reader`` as its text less its line end, split on commas.
    """
    if text and not text.endswith("\n"):
        text += "\n"
    fields = text.replace("\n", ",\n,").split(",")
    fields.pop()  # the empty field after the last line end
    # The n line ends are the only "\n" fields, and the last one ends the
    # list, so every line has 4 fields exactly when they sit at every 5th
    # place; a blank or short line does not.
    if fields[4::5] != ["\n"] * n:
        return None
    return _clean_columns(fields, axes)


def _clean_columns(flat, axes):
    """Columns ``(gene, condition, first-seen time, present, value)`` of the
    rows in ``flat``, each 4 fields and an end marker, or None if a row has
    an empty label or a value that is not empty and not a finite float.
    ``axes`` get the rows' new labels either way.
    """
    labels = (flat[0::5], flat[1::5], flat[2::5])
    raws = flat[3::5]
    n = len(raws)
    indices = [
        np.fromiter(map(pos.__getitem__, column), np.intp, n)
        for column, pos in zip(labels, axes)
    ]
    # A faulty chunk's first pass leaves its labels, "" too, in axes, so
    # the rows before its faulty row test their own columns.
    if any("" in pos and "" in column for column, pos in zip(labels, axes)):
        return None
    try:
        values = np.fromiter(
            map(float, filter(None, raws)), np.float64, n - raws.count("")
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return (*indices, np.fromiter(map(bool, raws), bool, n), values)


def _parse_chunk(flat, offset, axes):
    """Columns ``(gene, condition, first-seen time, present, value)`` of a
    chunk's rows before its first faulty row, and that row's fault as
    ``(row, detail)``, or None.

    ``flat`` holds each row's fields followed by the row's number in the
    chunk (an int); ``offset`` is the index of the chunk's first row; ``axes``
    get the chunk's new labels.  A clean chunk is parsed in one pass; a
    faulty one is parsed again up to its first faulty row.
    """
    n = flat[-1] + 1 if flat else 0
    # Every row has 4 fields exactly when the numbers sit at every 5th place.
    if len(flat) == 5 * n and flat[4::5] == list(range(n)):
        columns = _clean_columns(flat, axes)
        if columns is not None:
            return columns, None
    # _first_row_fault checks rows in order, so the rows before its fault
    # are clean 4-field rows, whose columns cannot be None.
    row, start, detail = _first_row_fault(flat)
    return _clean_columns(flat[:start], axes), (offset + row, detail)


def _first_row_fault(flat) -> tuple[int, int, str]:
    """``(row, start, detail)`` of the first faulty row in a flat list of
    fields and row numbers: the row's number, the index of its first field
    and its fault.  A row is checked for its field count, then for an empty
    label, then for a value that is not empty and not a finite float.
    """
    start = 0
    for row in range(flat[-1] + 1):
        end = flat.index(row, start)  # fields are str, so only a number matches
        fields = flat[start:end]
        if len(fields) != 4:
            return row, start, f"expected 4 fields, got {len(fields)}"
        if not all(fields[:3]):
            return row, start, "empty gene/condition/time label"
        raw = fields[3]
        try:
            finite = not raw or math.isfinite(float(raw))
        except ValueError:
            finite = False
        if not finite:
            return row, start, f"bad value {raw!r}"
        start = end + 1
    raise AssertionError("no faulty row in the chunk")


def _cell_index(gi, ci, ti, n_t) -> tuple[np.ndarray, np.ndarray]:
    """Cell number of each row, and the sorted distinct (condition, time)
    pair numbers ``ci * n_t + ti``; equal rows get equal cell numbers.

    A row's cell number is ``gi * n_pairs + k``, where ``k`` ranks its pair
    among the distinct ones: on a full grid that is the row-major number, and
    on any file it stays below the square of the row count, so it cannot wrap.
    """
    keys = ci * n_t + ti
    # A sort and a run-start mask: np.unique takes a slower hash path.
    ordered = np.sort(keys)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    pairs = ordered[first]
    return gi * len(pairs) + np.searchsorted(pairs, keys), pairs


def _first_repeat(keys) -> int | None:
    """Index of the first element equal to an earlier one, or None."""
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min()) if later.size else None


def _row_place(path, row: int) -> str:
    """``line N`` as ``csv.reader`` counts it after data row ``row`` (0-based),
    or ``data row N`` for an input that cannot be read twice, such as a pipe."""
    if not os.path.isfile(path):
        return f"data row {row + 1}"
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        deque(islice(reader, row + 2), maxlen=0)  # the header, then the rows
        return f"line {reader.line_num}"


def export_csv(tensor: ExpressionTensor, path) -> None:
    """Write every cell in long format; missing cells get an empty value.

    Each label is quoted once, as ``csv.writer`` quotes it, and every
    ``condition,time`` pair is joined once into the tail of its lines.
    Cells are then written in row-major order, a block of whole genes at a
    time (one chunk's worth of rows): each line is its gene's field, its
    tail and the value's ``repr``, and the block goes out as one string, so
    memory is bounded by one block's lines plus the tensor.
    """
    n_g, n_c, n_t = tensor.shape
    block = max(1, _CHUNK_ROWS // (n_c * n_t))
    genes = _csv_fields(tensor.gene_ids)
    tails = [
        f",{c},{t},"
        for c, t in product(_csv_fields(tensor.condition_ids), _csv_fields(tensor.time_labels))
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for g0 in range(0, n_g, block):
            fields = list(map(repr, tensor.values[g0:g0 + block].ravel().tolist()))
            for i in np.flatnonzero(tensor.missing_mask[g0:g0 + block]).tolist():
                fields[i] = ""
            heads = [gene + tail for gene in genes[g0:g0 + block] for tail in tails]
            fh.write("\r\n".join(map(str.__add__, heads, fields)) + "\r\n")


def _csv_fields(labels) -> list[str]:
    """Each label as a default ``csv.writer`` writes it inside a row.

    A label goes out with an empty field after it, and the ``,\\r\\n`` is
    cut off: ``csv`` writes a lone empty field as ``""``, and it quotes a
    field holding CR or LF because the default line terminator holds them.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow((label, ""))
        fields.append(buf.getvalue()[:-3])
    return fields


def limit_genes(tensor: ExpressionTensor, n: int) -> ExpressionTensor:
    """Keep the first ``n`` genes in file order.  ``n`` must be an integer
    (TypeError otherwise, whatever the tensor's size) of at least 2, the
    fewest genes a tricluster can hold (ValueError)."""
    _integer(n, "gene limit", 2)
    if n >= tensor.shape[0]:
        return tensor
    # Copies, not views, so the full arrays can be freed.
    return replace(
        tensor,
        values=tensor.values[:n].copy(),
        gene_ids=tensor.gene_ids[:n],
        missing_mask=tensor.missing_mask[:n].copy(),
    )


def normalize_minmax(tensor: ExpressionTensor) -> ExpressionTensor:
    """Min-max rescale each (condition, time) column of gene values to [0, 1].

    Missing cells are excluded from the column min/max and left untouched.
    A constant column maps to all zeros rather than erroring; flat control
    columns are common in real exports.
    """
    present = ~tensor.missing_mask
    # Halved, so that a range past the float maximum does not overflow.
    work = np.where(present, tensor.values, np.nan) / 2
    # nanmin and nanmax without their All-NaN warning: an all-missing
    # column gets a nan span, which fails the span test as a 0 span does.
    col_min = np.fmin.reduce(work, axis=0)  # (C, T)
    col_max = np.fmax.reduce(work, axis=0)
    span = col_max - col_min
    safe_span = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (work - col_min) / safe_span, 0.0)
    return replace(tensor, values=np.where(present, scaled, tensor.values))


def impute_missing(tensor: ExpressionTensor, seed: int) -> ExpressionTensor:
    """Fill missing cells with seeded uniform draws in [0, 1).

    The mask is preserved for provenance.  Cells are filled in row-major
    order, so the result is bit-identical for a given seed.  ``seed`` must
    be a non-negative integer (TypeError for a bool or a float, ValueError
    below 0), checked even when no cell is missing.
    """
    _integer(seed, "seed", 0)
    if tensor.n_missing() == 0:
        return tensor
    rng = np.random.default_rng(seed)
    values = tensor.values.copy()
    values[tensor.missing_mask] = rng.random(tensor.n_missing())
    return replace(tensor, values=values)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic tensor with planted coherent regions.

    ``planted`` holds (coords, pattern) pairs; pattern is one of
    ``constant`` (single value), ``additive`` (base + per-gene + per-condition
    + per-time offsets) or ``multiplicative`` (base times per-axis factors).
    Gaussian noise of ``noise_sigma`` is added inside planted regions only.
    """

    dims: tuple[int, int, int]
    planted: tuple[tuple[TriclusterCoords, str], ...] = ()
    noise_sigma: float = 0.0
    background: str = BACKGROUND_UNIFORM01
    seed: int = 0

    def __post_init__(self):
        dims = tuple(_integer(d, "dims", 1) for d in self.dims)
        if len(dims) != 3:
            raise ValueError(f"dims must be three positive sizes, got {self.dims}")
        if math.prod(dims) > _MAX_SYNTHETIC_CELLS:
            raise ValueError(
                f"dims {dims} hold {math.prod(dims)} cells; "
                f"at most {_MAX_SYNTHETIC_CELLS} are generated"
            )
        planted = tuple((coords, pattern) for coords, pattern in self.planted)
        for coords, pattern in planted:
            _choice(pattern, PATTERNS, "pattern")
            _check_bounds(dims, coords)
        noise_sigma = _nonnegative(self.noise_sigma, "noise_sigma")
        _choice(self.background, BACKGROUNDS, "background")
        seed = _integer(self.seed, "seed", 0)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "planted", planted)
        object.__setattr__(self, "noise_sigma", noise_sigma)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def from_dict(cls, raw) -> "SyntheticSpec":
        """Spec of a parsed JSON document; KeyError, TypeError or ValueError
        for a malformed one, IndexError for a plant outside its dims."""
        if not isinstance(raw, dict):
            raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
        planted = tuple(
            (TriclusterCoords.from_dict(p), p["pattern"])
            for p in raw.get("planted", [])
        )
        return cls(
            dims=tuple(raw["dims"]),
            planted=planted,
            noise_sigma=raw.get("noise_sigma", 0.0),
            background=raw.get("background", BACKGROUND_UNIFORM01),
            seed=raw.get("seed", 0),
        )


def _check_disjoint(planted) -> None:
    for i in range(len(planted)):
        for j in range(i + 1, len(planted)):
            if jaccard_cells(planted[i][0], planted[j][0]) > 0:
                raise RegionOverlapError(
                    f"planted regions {i} and {j} overlap; ground truth would "
                    "be ambiguous"
                )


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[ExpressionTensor, list[TriclusterCoords]]:
    """Build a tensor from the spec and return it with the ground truth.

    Deterministic given the spec seed.  Raises RegionOverlapError when two
    planted regions share a cell.
    """
    _check_disjoint(spec.planted)
    rng = np.random.default_rng(spec.seed)
    n_g, n_c, n_t = spec.dims
    if spec.background == BACKGROUND_UNIFORM01:
        values = rng.random(spec.dims)
    else:
        values = rng.normal(0.5, 0.15, spec.dims)

    for coords, pattern in spec.planted:
        shape = (coords.n_genes, coords.n_conditions, coords.n_times)
        if pattern == PATTERN_CONSTANT:
            region = np.full(shape, rng.uniform(0.25, 0.75))
        else:
            # A base, then a factor per gene, condition and time, left to right.
            add = pattern == PATTERN_ADDITIVE
            combine, low, high = (np.add, -0.1, 0.1) if add else (np.multiply, 0.85, 1.15)
            region = rng.uniform(0.4, 0.6)
            for axis_shape in ((shape[0], 1, 1), (shape[1], 1), (shape[2],)):
                region = combine(region, rng.uniform(low, high, axis_shape))
        if spec.noise_sigma > 0:
            region = region + rng.normal(0.0, spec.noise_sigma, shape)
        values[np.ix_(coords.genes, coords.conditions, coords.times)] = region

    tensor = ExpressionTensor(
        values,
        tuple(f"g{i}" for i in range(n_g)),
        tuple(f"c{i}" for i in range(n_c)),
        tuple(str(i) for i in range(n_t)),
        np.zeros(spec.dims, dtype=bool),
    )
    return tensor, [coords for coords, _ in spec.planted]
