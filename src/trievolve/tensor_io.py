"""Loading, normalizing and generating 3D expression tensors.

The canonical input is a long-format CSV with header exactly
``gene,condition,time,value`` (UTF-8, with or without a byte-order mark;
``.`` decimal separator).  An empty value field marks a missing measurement;
so does an absent (gene, condition, time) triple.  Per-condition matrix
layouts must be converted to this format upstream.

The loader reads the input in one pass of blocks of text, so it may be a
pipe.  The header is read as a chunk's row is.  While a chunk of rows holds
no quote and every row is clean, its line ends become marker fields and it
is split on commas in one ``str.split``.  csv runs only on the fallback:
from the first other chunk (or a header that does not read so) to the end
of the file, ``csv.reader`` reads every row, and faults are sought only
there.  The writer fills a flat list of field slots per block of whole genes
and sends each block with one join and one write.

All operations are pure given their inputs and seed, and tensors are
immutable after construction, so they are safe to share across threads.
"""

import codecs
import csv
import io
import math
import os
import re
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, count, islice, product

import numpy as np

from .quality import TriclusterCoords, jaccard_cells
from .quality import _check_bounds, _choice, _integer, _nonnegative

CSV_HEADER = ("gene", "condition", "time", "value")

# Rows parsed (or written) per step of the CSV reader and writer.
_CHUNK_ROWS = 32768
# Bytes a text file reads and decodes at a time (io.TextIOWrapper's).
_BLOCK_BYTES = 8192
# The header row as _Text.rows marks it.
_HEADER_ROW = ",".join(CSV_HEADER) + ",\n,"
# A row's end outside quotes, for csv and a text file's lines alike.
_LINE_END = re.compile(r"\r\n?|\n")
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

    The file is decoded in blocks, as a text file decodes it for its lines,
    and a chunk's rows are cut from them as one text; no row is made a
    string of its own.  Rows end at a CR, an LF or a CR LF, as csv ends them
    outside quotes.  While a chunk holds no quote and no field longer than
    the csv field limit, each row's fields are its text less its line end,
    split on commas, which is what ``csv.reader`` yields for it: each CR LF
    and lone CR becomes an LF, each LF the marker field ``",\\n,"``, the text
    is split with one ``str.split``, and the chunk is taken when every row
    has 4 fields and is clean.  The header is read as a one-row chunk and
    taken when it is exactly the header and its line end.  The first chunk
    that fails that test (a blank, short or faulty row included), or whose
    read fails, and a header that is not taken (quoted, wrong, missing or
    cut off by a read failure) go through ``csv.reader`` as their text
    followed by the rest of the file, so a quoted field reads as csv reads
    it, across lines and chunks too, and every fault is found in csv's
    rows.  A clean file builds no ``csv.reader``.  Reading stops at the first
    faulty row, and the columns stop before it, so a duplicate among them
    lies earlier in the file than that row; a read failure lies after both,
    and the rows before it are the whole lines a text file reads before
    it.  A leading UTF-8 byte-order mark is skipped.
    """
    axes = (_Index(), _Index(), _Index())
    parts = []
    fault = failure = reader = None
    n_rows = 0

    with open(path, "rb") as raw:
        src = _Text(raw)
        # A header that is not exactly _HEADER_ROW, or that csv's field limit
        # rejects, goes through csv with every row after it.
        if src.rows(1) != (_HEADER_ROW, 1) or not _fields_within(
            _HEADER_ROW, csv.field_size_limit()
        ):
            reader = src.to_csv()
            try:
                header = next(reader)
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
                chunk = src.rows(_CHUNK_ROWS)
                if chunk is not None:
                    columns = _split_columns(*chunk, axes)
                del chunk
                if columns is None:
                    # This chunk's rows, then the rest of the file (or the
                    # read failure), go through csv from here on.
                    reader = src.to_csv()
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
    del parts  # the chunks' columns, as large as the joined ones
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


class _Text:
    """The text of a UTF-8 file opened in binary, less a leading byte-order
    mark, decoded as ``open(path, newline="", encoding="utf-8-sig")`` decodes
    it for its lines: blocks of _BLOCK_BYTES, each decoded once, so a
    decoding error reads the same and keeps the same text before it.

    ``text`` is the text decoded and not yet taken.  ``rows`` takes rows from
    it, the header's too, and ``to_csv`` hands what ``rows`` last took, the
    untaken text and the rest of the file over to csv.  No decoded block but
    the last ends in a CR: the decoder holds it back, as it may start a CR
    LF.  A read failure is kept in ``failure`` and raised again by every
    later read.
    """

    def __init__(self, raw):
        self._raw = raw
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8-sig")(), translate=False
        )
        self.text = ""
        self.failure = None
        self._taken = []  # the rows' text that rows() last took

    def _block(self) -> str:
        """The next decoded block, or "" at the end of the file."""
        if self.failure is not None:
            raise self.failure
        while True:
            try:
                data = self._raw.read1(_BLOCK_BYTES)
                text = self._decoder.decode(data, final=not data)
            except (ValueError, OSError) as exc:  # decoding included
                self.failure = exc
                raise
            if text or not data:
                return text

    def rows(self, k) -> tuple[str, int] | None:
        """The next ``k`` rows (fewer at the end of the file), taken, as
        ``(marked, n)``: their text with each line end made an LF and then
        the marker field ",\\n,", the last row's too, and their number.  Rows
        end as csv ends them outside quotes: at a CR, an LF or a CR LF.  None
        when the rows hold a quote, which reads only as csv reads it, or a
        read fails; ``to_csv`` then reads what was taken.  A block is marked
        only up to its first quote."""
        self._taken = [self.text]
        marked = []
        n = 0
        while True:
            text = self._taken[-1]
            quote = text.find('"')
            piece, ends = _marked(text if quote < 0 else text[:quote])
            if n + ends >= k:
                # The k-th row ends in this piece, before any quote: the
                # rest is left.
                cut = _past_line_end(text, k - n)
                self._taken[-1], self.text = text[:cut], text[cut:]
                marked.append(piece[:_past_line_end(piece, k - n) + 1])
                return "".join(marked), k
            if quote >= 0:
                break
            marked.append(piece)
            n += ends
            try:
                piece = self._block()
            except (ValueError, OSError):
                break
            if not piece:  # the end of the file
                if self._taken[-1][-1:] not in ("", "\r", "\n"):
                    marked.append(",\n,")
                    n += 1
                self.text = ""
                return "".join(marked), n
            self._taken.append(piece)
        self.text = ""
        return None

    def to_csv(self):
        """A ``csv.reader`` of the rows ``rows`` last took, then of the
        untaken text and the rest of the file; a read failure is raised after
        the rows of the whole lines before it."""
        text = "".join((*self._taken, self.text))
        self._taken, self.text = [], ""
        return csv.reader(chain.from_iterable(self._whole_lines(text)))

    def _whole_lines(self, text):
        """Yield text files (``io.StringIO``) of ``text``'s whole lines, then
        of the rest of the file's, a block or so at a time: csv.reader needs
        whole lines, as a text file yields them."""
        while True:
            end = max(text.rfind("\n"), text.rfind("\r")) + 1
            yield io.StringIO(text[:end], newline="")
            # Blocks up to the next line end, joined once.
            blocks = [text[end:], self._block()]
            while blocks[-1] and "\n" not in blocks[-1] and "\r" not in blocks[-1]:
                blocks.append(self._block())
            text = "".join(blocks)
            if not blocks[-1]:  # the end of the file, maybe in a line
                yield io.StringIO(text, newline="")
                return


def _marked(text) -> tuple[str, int]:
    """``text`` with each line end (CR, LF or CR LF) made the marker field
    ",\\n,", and the number of line ends: every CR LF and lone CR becomes
    an LF first, and each marked LF adds 2 characters."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    marked = text.replace("\n", ",\n,")
    return marked, (len(marked) - len(text)) // 2


def _past_line_end(text, k) -> int:
    """The index just past the ``k``-th line end in ``text``, a block or
    the untaken text: neither ends in a CR that starts a CR LF."""
    return next(islice(_LINE_END.finditer(text), k - 1, None)).end()


def _fields_within(text, limit) -> bool:
    """Whether no comma-separated field of ``text`` is longer than ``limit``."""
    start = 0
    while len(text) - start > limit:
        # Fields starting before the last comma of the next limit + 1
        # characters end by it; with no comma there, the field at start is
        # longer than limit.
        comma = text.rfind(",", start, start + limit + 1)
        if comma < 0:
            return False
        start = comma + 1
    return True


def _split_columns(marked, n, axes):
    """``_clean_columns`` of a chunk's ``n`` rows split on commas, or None
    when a row does not hold 4 fields, a field is past csv's limit or a row
    is faulty.

    ``marked`` holds no quote, the one character csv reads specially here,
    so each row reads in ``csv.reader`` as its text less its line end, split
    on commas; its rows end in the marker field ",\\n,".
    """
    if not _fields_within(marked, csv.field_size_limit()):
        return None
    fields = marked.split(",")
    fields.pop()  # the empty field after the last marker
    # The n markers are the only "\n" fields, and the last one ends the
    # list, so every row has 4 fields exactly when they sit at every 5th
    # place; a blank or short row does not.
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
    blanks = raws.count("")
    try:
        if blanks:
            values = np.fromiter(map(float, filter(None, raws)), np.float64, n - blanks)
        else:
            values = np.fromiter(map(float, raws), np.float64, n)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    present = np.fromiter(map(bool, raws), bool, n) if blanks else np.ones(n, bool)
    return (*indices, present, values)


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
    ``,condition,time,`` tail is built once.  Cells are then written in
    row-major order, a block of whole genes at a time (one chunk's worth of
    rows).  A block is a flat list of four slots a line, filled by slice
    assignment: the gene's field, the line's tail, the value's ``repr`` (empty
    for a missing cell) and ``\\r\\n``.  One ``"".join`` makes the block's
    text and one ``write`` sends it, so no string per line is made and memory
    is bounded by one block's slots and text plus the tensor.
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
            part = genes[g0:g0 + block]
            slots = ["\r\n"] * (4 * len(tails) * len(part))
            slots[0::4] = [gene for gene in part for _ in tails]
            slots[1::4] = tails * len(part)
            slots[2::4] = map(repr, tensor.values[g0:g0 + block].ravel().tolist())
            for i in np.flatnonzero(tensor.missing_mask[g0:g0 + block]).tolist():
                slots[4 * i + 2] = ""
            fh.write("".join(slots))


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
