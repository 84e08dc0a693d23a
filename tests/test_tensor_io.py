import csv
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import cycle, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trievolve import (
    DatasetFormatError,
    ExpressionTensor,
    RegionOverlapError,
    SyntheticSpec,
    TriclusterCoords,
    export_csv,
    generate_synthetic,
    impute_missing,
    limit_genes,
    load_dataset,
    msr3d,
    naive,
    normalize_minmax,
    tensor_io,
)

from conftest import make_tensor, pipe_path


def write_csv(path, rows, header="gene,condition,time,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestLoadDataset:
    def test_direct_readback(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,x,1,0.1", "a,x,2,0.2", "a,x,3,0.3"])
        t = load_dataset(p)
        assert t.shape == (1, 1, 3)
        assert t.gene_ids == ("a",)
        assert t.condition_ids == ("x",)
        assert t.time_labels == ("1", "2", "3")
        assert t.values[0, 0].tolist() == [0.1, 0.2, 0.3]
        assert t.n_missing() == 0

    def test_empty_value_marks_missing(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,x,1,0.1", "a,x,2,", "a,x,3,0.3"])
        t = load_dataset(p)
        assert t.missing_mask[0, 0].tolist() == [False, True, False]

    def test_absent_triple_marks_missing(self, tmp_path):
        rows = ["a,x,1,0.1", "a,x,2,0.2", "b,x,2,0.4"]
        t = load_dataset(write_csv(tmp_path / "d.csv", rows))
        assert t.shape == (2, 1, 2)
        assert bool(t.missing_mask[1, 0, 0]) is True  # b,x,1 never appeared

    def test_yeast_scale_shape(self, tmp_path):
        rows = [
            f"g{g},c{c},{t},{0.001 * (g + c + t)}"
            for g in range(200)
            for c in range(4)
            for t in range(14)
        ]
        t = load_dataset(write_csv(tmp_path / "big.csv", rows))
        assert t.shape == (200, 4, 14)

    def test_axis_order_first_appearance_and_time_sort(self, tmp_path):
        rows = [
            "b,y,10,1.0", "b,y,2,2.0",
            "a,y,10,3.0", "a,y,2,4.0",
            "b,x,10,5.0", "b,x,2,6.0",
            "a,x,10,7.0", "a,x,2,8.0",
        ]
        t = load_dataset(write_csv(tmp_path / "d.csv", rows))
        assert t.gene_ids == ("b", "a")
        assert t.condition_ids == ("y", "x")
        # numeric, not lexical: 2 before 10
        assert t.time_labels == ("2", "10")

    def test_lexical_time_sort_when_not_numeric(self, tmp_path):
        rows = ["a,x,t2,1.0", "a,x,t10,2.0"]
        t = load_dataset(write_csv(tmp_path / "d.csv", rows))
        assert t.time_labels == ("t10", "t2")

    def test_nan_time_label_falls_back_to_lexical_sort(self):
        # nan compares false with every number, so a numeric sort would
        # leave this order as it came.
        labels = ["2", "nan", "0", "1", "3"]
        assert tensor_io._sorted_time_labels(labels) == ["0", "1", "2", "3", "nan"]

    def test_nan_time_label_csv_loads_lexically_sorted(self, tmp_path):
        times = ["2", "nan", "0", "10", "1"]
        rows = [f"a,x,{t},{i}.0" for i, t in enumerate(times)]
        p = write_csv(tmp_path / "d.csv", rows)
        t = load_dataset(p)
        assert t.time_labels == ("0", "1", "10", "2", "nan")
        assert t.values[0, 0].tolist() == [2.0, 4.0, 3.0, 0.0, 1.0]
        assert naive.load_dataset_naive(p).time_labels == t.time_labels

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,x,1,0.5"], header="gene,cond,time,value")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,x,1,0.5", "a,x,2"])
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(p)

    def test_bad_value_reports_line(self, tmp_path):
        # Non-finite values would turn every fitness into nan.
        for raw in ("abc", "nan", "inf", "-inf"):
            p = write_csv(tmp_path / "d.csv", ["a,x,1,0.5", f"a,x,2,{raw}"])
            with pytest.raises(DatasetFormatError, match=f"line 3.*{raw}"):
                load_dataset(p)

    def test_duplicate_triple(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a,x,1,0.5", "a,x,1,0.6"])
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_dataset(p)

    def test_ragged_grid_names_gap(self, tmp_path):
        rows = ["a,x,1,0.1", "a,x,2,0.2", "a,y,1,0.3"]
        with pytest.raises(DatasetFormatError, match="'y'.*'2'"):
            load_dataset(write_csv(tmp_path / "d.csv", rows))

    def test_duplicate_reported_before_ragged_grid(self, tmp_path):
        # Condition y has no row for time 2, and line 5 repeats line 4.
        rows = ["a,x,1,0.1", "a,x,2,0.2", "a,y,1,0.3", "a,y,1,0.4"]
        path = write_csv(tmp_path / "d.csv", rows)
        want = "line 5: duplicate entry for gene='a' condition='y' time='1'"
        for load in (load_dataset, naive.load_dataset_naive):
            with pytest.raises(DatasetFormatError, match=want):
                load(path)

    def test_ragged_rejection_memory_follows_rows(self, tmp_path):
        # Every row has its own condition and time: 20k rows span a 20k x 20k
        # (condition, time) grid, 400 MB as bools.
        rows = [f"a,c{i},{i},0.5" for i in range(20_000)]
        path = write_csv(tmp_path / "d.csv", rows)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError) as got:
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        with pytest.raises(DatasetFormatError) as want:
            naive.load_dataset_naive(path)
        assert str(got.value) == str(want.value)
        # Condition c0 has time 0 only: 19999 time points are missing.
        message = str(got.value)
        assert len(message.encode()) < 1024
        assert "condition 'c0' has no rows for time point(s) '1', '2'," in message
        assert message.endswith("… and 19989 more")

    def test_ragged_message_names_ten_gaps_and_counts_the_rest(self, tmp_path):
        rows = [f"a,x,{t},0.5" for t in range(13)] + ["a,y,0,0.5", "a,y,12,0.5"]
        path = write_csv(tmp_path / "d.csv", rows)
        want = (
            f"{path}: ragged time grid: condition 'y' has no rows for time "
            "point(s) '1', '2', '3', '4', '5', '6', '7', '8', '9', '10', … and 1 more"
        )
        for load in (load_dataset, naive.load_dataset_naive):
            with pytest.raises(DatasetFormatError) as got:
                load(path)
            assert str(got.value) == want

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DatasetFormatError):
            load_dataset(p)

    def test_roundtrip_multiset(self, tmp_path, rng):
        tensor = make_tensor(rng.random((4, 3, 5)))
        out = tmp_path / "out.csv"
        export_csv(tensor, out)
        back = load_dataset(out)
        assert back.gene_ids == tensor.gene_ids
        assert back.condition_ids == tensor.condition_ids
        assert back.time_labels == tensor.time_labels
        np.testing.assert_array_equal(back.values, tensor.values)
        assert back.n_missing() == 0

    def test_export_reproduces_row_multiset(self, tmp_path, rng):
        # export(load(f)) carries the same (g,c,t,value) multiset as f,
        # including missing cells, regardless of input row order
        rows = ["a,x,2,0.25", "b,x,1,", "a,x,1,0.5", "b,x,2,1.75"]
        rng.shuffle(rows)
        src = write_csv(tmp_path / "src.csv", rows)
        out = tmp_path / "out.csv"
        export_csv(load_dataset(src), out)

        def multiset(path):
            lines = path.read_text().splitlines()[1:]
            cells = []
            for line in lines:
                g, c, t, v = line.split(",")
                cells.append((g, c, t, float(v) if v else None))
            return sorted(cells, key=repr)

        assert multiset(src) == multiset(out)


# Labels that need quoting (commas, quotes, line breaks) beside plain ones.
GENE_LABELS = ("g1", "g2", "g10", 'q"uote', "com,ma", "new\nline", "cr\r\nlf", " pad ")
CONDITION_LABELS = ("x", "y", "z,w", 'c"')
NUMERIC_TIMES = ("1", "2", "10", "0.5", "1e1", "-3")
LEXICAL_TIMES = ("t1", "t10", "t2", "b", "a,b")
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
VALUES = st.one_of(
    FINITE, FINITE, st.just(""),
    st.sampled_from([" 2.5 ", "1_0", "+3", "-0", "1E-5"]),
)
BAD_VALUES = ("nan", "inf", "-inf", "NaN", "abc", "1e400", "0x1", "1,5")
RAW_TAILS = ('g1,x,1,"open', "g1,x,1,0.5\x00", '"q"x,y,1,2', "\n\n", "g1,x")
# Small chunks put every fault next to, or across, a chunk boundary.
CHUNK_ROWS = st.sampled_from([2, 3, tensor_io._CHUNK_ROWS])


def draw_lines(draw, gene_pool, condition_pool, time_pool):
    """A header (or None) and the rows of a shuffled full grid over labels
    from the pools, then up to four faults."""
    genes = draw(st.lists(st.sampled_from(gene_pool), min_size=1, max_size=4, unique=True))
    conds = draw(st.lists(st.sampled_from(condition_pool), min_size=1, max_size=3, unique=True))
    pool = draw(st.sampled_from([NUMERIC_TIMES, time_pool, NUMERIC_TIMES + ("t1",)]))
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    rows = [[g, c, t, draw(VALUES)] for g, c, t in product(genes, conds, times)]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from([
            "duplicate", "duplicate", "drop", "drop",
            "blank", "short", "long", "empty_label", "bad_value",
        ]))
        i = draw(st.integers(0, max(0, len(rows) - 1)))
        if fault == "blank":
            rows.insert(i, [])
        elif not rows or not rows[i][:1]:
            continue
        elif fault == "duplicate":
            rows.insert(draw(st.integers(i + 1, len(rows))), rows[i][:3] + [draw(VALUES)])
        elif fault == "short":
            rows[i] = rows[i][:draw(st.integers(0, 3))]
        elif fault == "long":
            rows[i] = rows[i] + ["extra"] * draw(st.integers(1, 2))
        elif fault == "empty_label" and len(rows[i]) >= 3:
            rows[i][draw(st.integers(0, 2))] = ""
        elif fault == "bad_value" and len(rows[i]) == 4:
            rows[i][3] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "drop":
            del rows[i]
    header = draw(st.sampled_from(
        [list(tensor_io.CSV_HEADER)] * 8 + [["gene", "cond", "time", "value"], None]
    ))
    return header, rows


@st.composite
def csv_texts(draw):
    """A long-format CSV text: a shuffled full grid, then up to four faults;
    each row ends in a line terminator of its own."""
    header, rows = draw_lines(draw, GENE_LABELS, CONDITION_LABELS, LEXICAL_TIMES)
    buf = io.StringIO(newline="")
    ends = st.sampled_from(["\r\n", "\n", "\r"])
    if header is not None:
        # A quoted header, valid or not, is read by csv from the first row.
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL]))
        csv.writer(buf, lineterminator=draw(ends), quoting=quoting).writerow(header)
    for row in rows:
        csv.writer(buf, lineterminator=draw(ends)).writerow(row)
    return buf.getvalue() + draw(st.sampled_from(("",) * 6 + RAW_TAILS))


def _load_outcome(load, path):
    """The loaded tensor's bits and labels, or the error it raised."""
    try:
        t = load(path)
    except Exception as exc:  # compared against the oracle's, whatever it is
        return type(exc), str(exc)
    return (
        t.shape, t.values.tobytes(), t.missing_mask.tobytes(),
        t.gene_ids, t.condition_ids, t.time_labels,
    )


class TestCsvOracle:
    """The chunked, columnar reader and writer against the row-by-row ones."""

    @settings(max_examples=600, deadline=None)
    @given(csv_texts(), CHUNK_ROWS)
    def test_load_matches_row_by_row_oracle(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
                got = _load_outcome(load_dataset, path)
            assert got == _load_outcome(naive.load_dataset_naive, path)

    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @pytest.mark.parametrize("rows, want", [
        # a duplicate in the second chunk before a bad value in the third
        (["a,x,1,0.5", "a,x,2,0.6", "a,x,1,0.7", "a,x,3,abc"], "line 4: duplicate"),
        (["a,x,1,0.5", "a,x,2,abc", "a,x,1,0.7", "a,x,3"], "line 3: bad value"),
        (["a,x,1,0.5", "a,x,2,0.6", "a,x,3,0.7", "a,x", "a,x,1,0.8"], "line 5: expected 4"),
        (["a,x,1,0.5", "a,x,2,0.6", "a,x,1,0.7,9", "a,x,1,0.8"], "line 4: expected 4"),
        (["a,x,1,0.5", "a,x,2,0.6", ",x,1,nan", "a,x,3,0.1"], "line 4: empty"),
        (["a,x,1,0.5", "a,x,2,0.6", "a,x,1,nan", "a,x,3,0.1"], "line 4: bad value"),
        # an empty label in the second chunk, after a clean first chunk
        (["a,x,1,0.5", "a,x,2,0.6", ",x,1,0.7"], "line 4: empty"),
        # a duplicate in the rows before a bad value
        (["a,x,1,0.5", "a,x,1,0.6", "a,x,2,abc"], "line 3: duplicate"),
        # a duplicate in the rows before a short row
        (["a,x,1,0.5", "a,x,2,0.6", "a,x,1,0.7", "a,x"], "line 4: duplicate"),
    ])
    def test_first_fault_in_file_order_across_chunks(self, tmp_path, chunk_rows, rows, want):
        path = write_csv(tmp_path / "d.csv", rows)
        with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
            with pytest.raises(DatasetFormatError, match=want):
                load_dataset(path)
        with pytest.raises(DatasetFormatError, match=want):
            naive.load_dataset_naive(path)

    @pytest.mark.parametrize("bad_row", [None, 1])
    def test_read_failure_after_a_fault_reports_the_fault(self, tmp_path, bad_row):
        # The undecodable byte sits well past the first decoded block, so the
        # reader fails in the middle of a chunk; a fault in the rows it read
        # first is what the row-by-row reader reports.
        rows = [f"g{i},x,1,{i}" for i in range(2000)]
        if bad_row is not None:
            rows[bad_row] = "g1,x,1,abc"
        path = tmp_path / "d.csv"
        text = "gene,condition,time,value\n" + "\n".join(rows) + "\n"
        path.write_bytes(text.encode() + b"g\xff,x,1,0\n")
        got = _load_outcome(load_dataset, path)
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] is (UnicodeDecodeError if bad_row is None else DatasetFormatError)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), CHUNK_ROWS)
    def test_export_matches_cell_by_cell_oracle(self, data, chunk_rows):
        def labels(pool, most):
            return data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique=True)
            )

        genes = labels(GENE_LABELS + ("",), 5)
        conds = labels(CONDITION_LABELS, 3)
        times = labels(NUMERIC_TIMES + LEXICAL_TIMES, 4)
        shape = (len(genes), len(conds), len(times))
        n = int(np.prod(shape))
        values = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        tensor = ExpressionTensor(
            values.reshape(shape), genes, conds, times, mask.reshape(shape)
        )
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
                export_csv(tensor, got)
            naive.export_csv_naive(tensor, want)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, tensor_io._CHUNK_ROWS])
    @pytest.mark.parametrize("conds, times, blank", [
        # The first label set has one line per gene: blocks of 1, 2, 3 and
        # all genes.  "edges" blanks the first and last lines of blocks;
        # "all" and "none" fill whole blocks with empty or real values.
        pytest.param(conds, times, blank, id=f"conds{i}-times{i}" + suffix)
        for blank, suffix in (("edges", ""), ("all", "-all"), ("none", "-none"))
        for i, (conds, times) in enumerate([(("c,1",), (" t\r",)), (("x", 'y"'), ("1", "a\nb"))])
    ])
    def test_export_quotes_named_labels(self, tmp_path, chunk_rows, conds, times, blank):
        genes = ("plain", "com,ma", 'q"uote', "l\nf", "cr\r\nlf", "lone\rcr", " pad ", "")
        shape = (len(genes), len(conds), len(times))
        spellings = [0.1, -0.0, 1e-05, 1e16, 123.456, -7.0, 2.5e-300, 1 / 3]
        values = np.resize(spellings, shape)
        mask = np.full(shape, blank == "all")
        lines = mask.reshape(-1)
        per_gene = len(conds) * len(times)
        if blank == "edges":
            for g in (0, 2, 5, 7):  # first lines of blocks, and of the file
                lines[g * per_gene] = True
            for g in (2, 5, 7):  # last lines of blocks, and of the file
                lines[(g + 1) * per_gene - 1] = True

        def export(n_genes):
            tensor = ExpressionTensor(
                values[:n_genes], genes[:n_genes], conds, times, mask[:n_genes]
            )
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
                export_csv(tensor, got)
            naive.export_csv_naive(tensor, want)
            assert got.read_bytes() == want.read_bytes()
            return tensor, got

        _, path = export(len(genes))
        with pytest.raises(DatasetFormatError, match="empty gene/condition/time label"):
            load_dataset(path)
        # The loader rejects an empty label, so read back the file without it.
        tensor, path = export(len(genes) - 1)
        back = load_dataset(path)
        assert (back.gene_ids, back.condition_ids, back.time_labels) == (
            tensor.gene_ids, tensor.condition_ids, tensor.time_labels
        )
        assert np.array_equal(back.missing_mask, tensor.missing_mask)
        assert back.values[~back.missing_mask].tobytes() == (
            tensor.values[~tensor.missing_mask].tobytes()
        )

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, tensor_io._CHUNK_ROWS])
    @pytest.mark.parametrize("shape", [(7, 1, 1), (7, 2, 3)])
    def test_export_writes_the_header_then_one_string_per_block(
        self, tmp_path, rng, chunk_rows, shape
    ):
        # Memory stays bounded by one block: the header goes out alone, then
        # each block of whole genes in one write, never the file at once.
        values = rng.random(shape)
        tensor = replace(make_tensor(values), missing_mask=values < 0.3)
        writes = []
        real_open = open

        class RecordingFile:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                writes.append(text)
                return self.fh.write(text)

        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(tensor_io, "open", RecordingFile, create=True):
            export_csv(tensor, got)
        naive.export_csv_naive(tensor, want)
        assert got.read_bytes() == want.read_bytes()

        n_g, n_c, n_t = shape
        block = max(1, chunk_rows // (n_c * n_t))
        assert len(writes) == 1 + math.ceil(n_g / block)
        assert writes[0] == "gene,condition,time,value\r\n"
        lines = [text.count("\r\n") for text in writes[1:]]
        assert lines == [min(block, n_g - g0) * n_c * n_t for g0 in range(0, n_g, block)]

    def test_cell_index_cannot_wrap(self):
        # Row 1's plain row-major number, 2**21 * 2**21 * 2**22 + 5, is
        # 2**64 + 5: in int64 it would wrap onto row 0's, 5.
        gi = np.array([0, 2**21, 0])
        ci = np.array([0, 0, 0])
        ti = np.array([5, 5, 5])
        cells, _ = tensor_io._cell_index(gi, ci, ti, 2**22)
        assert cells[0] == cells[2] != cells[1]


# Quote-free labels, with characters that break lines for str.splitlines
# (form feed, LINE SEPARATOR) but not for the file iterator or csv.
PLAIN_GENES = ("g1", "g2", "g10", " pad ", "tab\tx", "nul\x00", "ff\x0c", "ls\u2028")
PLAIN_CONDITIONS = ("x", "y", "z;w", "\x0c")
PLAIN_TIMES = tuple(t for t in LEXICAL_TIMES if "," not in t)
PLAIN_TAILS = ("g1,x,1,0.5\x00", "\n\n", "g1,x", "\r", "g1,x,1,")
LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def plain_csv_texts(draw):
    """A quote-free long-format CSV text with mixed line ends: a shuffled
    full grid, up to four faults, and maybe no final line end."""
    header, rows = draw_lines(draw, PLAIN_GENES, PLAIN_CONDITIONS, PLAIN_TIMES)
    lines = ([header] if header is not None else []) + rows
    text = "".join(",".join(fields) + draw(LINE_ENDS) for fields in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text + draw(st.sampled_from(("",) * 6 + PLAIN_TAILS))


def csv_rows_read(path, chunk_rows):
    """The outcome of load_dataset at ``chunk_rows``, and the rows that
    ``csv.reader`` yielded while it ran."""
    rows = []
    real = csv.reader

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self.reader = real(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            rows.append(next(self.reader))
            return rows[-1]

        @property
        def line_num(self):
            return self.reader.line_num

    with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(tensor_io.csv, "reader", CountingReader):
        outcome = _load_outcome(load_dataset, path)
    return outcome, rows


def readers_built(path, chunk_rows):
    """The outcome of load_dataset at ``chunk_rows``, and the number of
    ``csv.reader`` objects it built."""
    built = []
    real = csv.reader

    def counting_reader(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(tensor_io.csv, "reader", counting_reader):
        outcome = _load_outcome(load_dataset, path)
    return outcome, len(built)


def matches_oracle(path, chunk_rows):
    """The outcome of load_dataset at ``chunk_rows``, checked against the
    row-by-row oracle's."""
    with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
        got = _load_outcome(load_dataset, path)
    assert got == _load_outcome(naive.load_dataset_naive, path)
    return got


@pytest.mark.parametrize("chunk_rows", [2, 3])
class TestSplitPath:
    """Chunks of quote-free lines split on commas, at their edges."""

    def test_quoted_line_break_across_a_later_chunk_boundary(self, tmp_path, chunk_rows):
        # The quoted label opens on the last line of the second chunk and
        # closes on the first line of the third.
        rows = [f"g{i},x,1,{i}" for i in range(2 * chunk_rows - 1)]
        rows += ['"b\nq",x,1,0.5'] + [f"h{i},x,1,{i}" for i in range(4)]
        path = write_csv(tmp_path / "d.csv", rows)
        got = matches_oracle(path, chunk_rows)
        assert got[3][2 * chunk_rows - 1] == "b\nq"
        assert len(got[3]) == 2 * chunk_rows + 4

    def test_field_past_the_csv_limit_fails_as_csv_does(self, tmp_path, chunk_rows):
        rows = [f"g{i},x,1,{i}" for i in range(5)]
        rows[3] = "g" + "n" * 40 + ",x,1,3"
        path = write_csv(tmp_path / "d.csv", rows)
        limit = csv.field_size_limit(20)
        try:
            got = matches_oracle(path, chunk_rows)
        finally:
            csv.field_size_limit(limit)
        assert got[0] is csv.Error and "field larger than field limit (20)" in got[1]

    def test_line_past_the_csv_limit_with_short_fields_loads(self, tmp_path, chunk_rows):
        rows = [f"g{i},x,1,{i}" for i in range(5)]
        rows[3] = "g" + "n" * 15 + ",x" + "x" * 15 + ",1,3"
        path = write_csv(tmp_path / "d.csv", rows)
        limit = csv.field_size_limit(20)
        try:
            got = matches_oracle(path, chunk_rows)
        finally:
            csv.field_size_limit(limit)
        assert got[0] == (5, 2, 1)

    def test_mixed_line_ends_and_no_final_line_end(self, tmp_path, chunk_rows):
        ends = ["\r\n", "\n", "\r", "\n", "\r", "\r\n", "\r", ""]
        text = "gene,condition,time,value\r"
        text += "".join(f"g{i // 2},x,{i % 2},{i}{end}" for i, end in enumerate(ends))
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, csv_rows = csv_rows_read(path, chunk_rows)
        assert csv_rows == []
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] == (4, 1, 2)
        assert np.frombuffer(got[1]).tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_blank_line_mid_chunk(self, tmp_path, chunk_rows):
        rows = ["a,x,1,0.5", "a,x,2,0.6", "a,x,3,0.7", "", "a,x,4,0.8", "a,x,5,0.9"]
        path = write_csv(tmp_path / "d.csv", rows)
        got = matches_oracle(path, chunk_rows)
        assert got == (DatasetFormatError, f"{path}: line 5: expected 4 fields, got 0")

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_labels_that_str_splitlines_would_break(self, tmp_path, chunk_rows, end):
        genes = ["nul\x00", "ff\x0c", "ls\u2028", "ps\u2029", "vt\x0b"]
        rows = [f"{g},x\x1c,1,{i}" for i, g in enumerate(genes)]
        path = tmp_path / "d.csv"
        text = end.join(["gene,condition,time,value"] + rows) + end
        path.write_text(text, encoding="utf-8", newline="")
        got, csv_rows = csv_rows_read(path, chunk_rows)
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[3] == tuple(genes) and got[4] == ("x\x1c",)
        assert csv_rows == []


class TestPipeInput:
    """An input that cannot be read twice, such as a pipe, names a faulty
    row by its number among the data rows: the file is not re-read for a
    line number."""

    def test_clean_pipe_loads(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a,x,1,0.5", "a,x,2,", "b,x,1,0.7"])
        with pipe_path(path.read_text()) as fd_path:
            got = _load_outcome(load_dataset, fd_path)
        assert got == _load_outcome(load_dataset, path)

    @pytest.mark.parametrize("rows, detail", [
        (["a,x,1,0.5", "a,x,2,abc", "a,x,3,0.7"], "data row 2: bad value 'abc'"),
        (
            ["a,x,1,0.5", "a,x,2,0.6", "a,x,1,0.7"],
            "data row 3: duplicate entry for gene='a' condition='x' time='1'",
        ),
        (['"a\nb",x,1,0.5', "a,x,2,0.6", "a,x,2,nan"], "data row 3: bad value 'nan'"),
    ])
    def test_fault_named_by_data_row(self, tmp_path, rows, detail):
        text = write_csv(tmp_path / "d.csv", rows).read_text()
        with pipe_path(text) as fd_path:
            with pytest.raises(DatasetFormatError) as err:
                load_dataset(fd_path)
        assert str(err.value) == f"{fd_path}: {detail}"


class TestSplitPathGuard:
    """A quote-free file must not fall back to csv: that costs a quarter of
    the load time and fails no result."""

    def test_clean_file_sends_nothing_through_csv(self, tmp_path):
        rows = [f"g{i // 10},c{i % 10 // 5},{i % 5},{i / 7!r}" for i in range(1000)]
        path = write_csv(tmp_path / "d.csv", rows)
        got, csv_rows = csv_rows_read(path, 3)
        assert csv_rows == []
        assert got[0] == (100, 2, 5)
        assert got == _load_outcome(naive.load_dataset_naive, path)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_first_quote_in_chunk_k_switches_at_chunk_k(self, tmp_path, k):
        rows = [f"g{i},x,1,{i}" for i in range(30)]
        rows[3 * (k - 1) + 1] = f'"g{3 * (k - 1) + 1}",x,1,0'
        path = write_csv(tmp_path / "d.csv", rows)
        got, csv_rows = csv_rows_read(path, 3)
        assert len(csv_rows) == 30 - 3 * (k - 1)
        assert csv_rows[0] == rows[3 * (k - 1)].split(",")
        assert got == _load_outcome(naive.load_dataset_naive, path)

    @pytest.mark.parametrize("fault", ["a,x,1,abc", "", "a,x,1"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_faulty_line_in_chunk_k_sends_chunk_k_through_csv(self, tmp_path, k, fault):
        # A bad value, a blank line or a short line as the middle row of
        # chunk k: the chunks before it are split, and its fault is found in
        # the rows csv reads.  The fault's line number is then counted by a
        # second reader from the top of the file, header included.
        rows = [f"g{i},x,1,{i}" for i in range(15)]
        rows[3 * (k - 1) + 1] = fault
        path = write_csv(tmp_path / "d.csv", rows)
        got, csv_rows = csv_rows_read(path, 3)
        header = [list(tensor_io.CSV_HEADER)]
        split = [r.split(",") if r else [] for r in rows]
        assert csv_rows == split[3 * (k - 1):3 * k] + header + split[:3 * k - 1]
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] is DatasetFormatError and f"line {3 * k}: " in got[1]

    @pytest.mark.parametrize("quoted", [0, 50, 2000])
    def test_text_past_the_first_quote_is_not_marked(self, tmp_path, quoted):
        # The quote sends the first chunk through csv, so marking its line
        # ends past the quote would be wasted.  The header and the chunk
        # before the quote are marked, each only up to the quote.
        rows = [f"g{i},x,1,{i}" for i in range(3000)]
        rows[quoted] = f'"g{quoted}",x,1,0'
        path = write_csv(tmp_path / "d.csv", rows)
        text = path.read_text()
        seen = []
        real = tensor_io._marked

        def recording(text):
            seen.append(text)
            return real(text)

        with mock.patch.object(tensor_io, "_marked", recording):
            got = _load_outcome(load_dataset, path)
        before = text[:text.index('"')]
        assert seen and all(piece in before for piece in seen)
        assert got == _load_outcome(naive.load_dataset_naive, path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("chunk_rows", [3, tensor_io._CHUNK_ROWS])
    def test_clean_file_builds_no_reader(self, tmp_path, end, chunk_rows):
        # An exported CSV (CR LF) and its LF copy: if the split path switched
        # off, each chunk would build a reader of its own.
        tensor, _ = generate_synthetic(SyntheticSpec((200, 4, 14), seed=3))
        path = tmp_path / "d.csv"
        export_csv(tensor, path)
        text = path.read_text(encoding="utf-8").replace("\r\n", end)
        path.write_text(text, encoding="utf-8", newline="")
        got, built = readers_built(path, chunk_rows)
        assert built == 0
        assert got[1] == tensor.values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(plain_csv_texts(), CHUNK_ROWS)
    def test_quote_free_load_matches_row_by_row_oracle(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(tensor_io, "_CHUNK_ROWS", chunk_rows):
                got = _load_outcome(load_dataset, path)
            assert got == _load_outcome(naive.load_dataset_naive, path)


def rows_text(n_rows, end, straddle=()):
    """A header and ``n_rows`` clean rows ``g<i>,x,1,<i>``, each ending in
    ``end``, or in the ends of the tuple ``end`` in turn from the header on.
    Each data row (0-based) in ``straddle`` gets its gene label padded so
    that its line end starts at the last byte of a decoded block: a CR LF is
    split between two blocks.  The text is ASCII."""
    block = tensor_io._BLOCK_BYTES
    ends = cycle((end,) if isinstance(end, str) else end)
    parts = [",".join(tensor_io.CSV_HEADER) + next(ends)]
    size = len(parts[0])
    for i, end in zip(range(n_rows), ends):
        row = f"g{i},x,1,{i}"
        if i in straddle:
            pad = -(size + len(row) + 1) % block
            row = f"g{i}{'_' * pad},x,1,{i}"
            assert (size + len(row)) % block == block - 1
        parts.append(row + end)
        size += len(row) + len(end)
    return "".join(parts)


def write_text(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, tensor_io._CHUNK_ROWS])
class TestLineEnds:
    """Rows end where csv ends them, at chunk cuts and block edges too."""

    def test_crlf_split_across_blocks_and_chunk_cuts(self, tmp_path, chunk_rows):
        # The CR LF ending the last row of the first and second chunks, and
        # of one more row, each straddles two decoded blocks.
        straddle = {chunk_rows - 1, 2 * chunk_rows - 1, 40}
        n_rows = 2 * chunk_rows + 50
        path = write_text(tmp_path / "d.csv", rows_text(n_rows, "\r\n", straddle))
        got, csv_rows = csv_rows_read(path, chunk_rows)
        assert csv_rows == []
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] == (n_rows, 1, 1)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_last_row_without_line_end_at_exactly_chunk_rows(self, tmp_path, chunk_rows, end):
        text = rows_text(chunk_rows, end)[:-len(end)]
        got, csv_rows = csv_rows_read(write_text(tmp_path / "d.csv", text), chunk_rows)
        assert csv_rows == []
        assert got == _load_outcome(naive.load_dataset_naive, tmp_path / "d.csv")
        assert got[0] == (chunk_rows, 1, 1)

    def test_cycled_line_ends_across_blocks_and_chunk_cuts(self, tmp_path, chunk_rows):
        # Rows end in LF, CR LF and lone CR in turn.  Each kind of end starts
        # at the last byte of a decoded block twice, as do the ends of the
        # first two chunks' last rows.
        straddle = {0, 1, 2, 3, 4, 5, chunk_rows - 1, 2 * chunk_rows - 1}
        n_rows = 2 * chunk_rows + 50
        text = rows_text(n_rows, ("\n", "\r\n", "\r"), straddle)
        path = write_text(tmp_path / "d.csv", text)
        got, csv_rows = csv_rows_read(path, chunk_rows)
        assert csv_rows == []
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] == (n_rows, 1, 1)

    def test_cr_cr_lf_ends_a_row_and_a_blank_row(self, tmp_path, chunk_rows):
        text = rows_text(10, "\r\n").replace("g4,x,1,4\r\n", "g4,x,1,4\r\r\n")
        path = write_text(tmp_path / "d.csv", text)
        got = matches_oracle(path, chunk_rows)
        assert got == (DatasetFormatError, f"{path}: line 7: expected 4 fields, got 0")

    def test_lone_cr_inside_a_label_ends_a_row(self, tmp_path, chunk_rows):
        text = rows_text(10, "\r\n").replace("g4,x,1,4\r\n", "g4\rg5,x,1,4\r\n")
        path = write_text(tmp_path / "d.csv", text)
        got = matches_oracle(path, chunk_rows)
        assert got == (DatasetFormatError, f"{path}: line 6: expected 4 fields, got 1")


class TestMarked:
    """``_marked`` makes every line end one marker field and counts them."""

    @pytest.mark.parametrize("text, marked, ends", [
        ("", "", 0),
        ("a,b", "a,b", 0),
        ("a,b\nc,d\n", "a,b,\n,c,d,\n,", 2),
        ("a,b\r\nc,d\r\n", "a,b,\n,c,d,\n,", 2),
        ("a,b\rc,d\r", "a,b,\n,c,d,\n,", 2),
        ("a\nb\r\nc\rd", "a,\n,b,\n,c,\n,d", 3),
        ("a\r\r\nb\n\rc", "a,\n,,\n,b,\n,,\n,c", 4),
        ("a\nb\r", "a,\n,b,\n,", 2),
        ("\r", ",\n,", 1),
    ], ids=["empty", "no-end", "lf", "crlf", "cr", "mixed", "cr-crlf-lf-cr", "ends-in-cr",
            "lone-cr"])
    def test_marks_and_counts_line_ends(self, text, marked, ends):
        assert tensor_io._marked(text) == (marked, ends)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='a,\r\n"', max_size=40))
    @example("a\r")
    @example("\r\r\n")
    @example("\n\r")
    @example('"a\r\n\r\r"\n\r')
    def test_matches_the_replace_chain(self, text):
        # The line-end translation as two str.replace calls, CR LF first.
        lf = text.replace("\r\n", "\n").replace("\r", "\n")
        marked = lf.replace("\n", ",\n,")
        assert tensor_io._marked(text) == (marked, lf.count("\n"))


class TestReadFailure:
    """An undecodable byte: the rows before it are the whole lines a text
    file reads before it, and a fault among them is reported first."""

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 500, tensor_io._CHUNK_ROWS])
    @pytest.mark.parametrize("offset", [8191, 8192, 8193, 8200, 16383, 16384, 16385])
    @pytest.mark.parametrize("fault", [False, True])
    def test_undecodable_byte_matches_oracle(self, tmp_path, chunk_rows, offset, fault):
        # With fault, the last row that ends before the bad byte's block has
        # a bad value: a text file has read it whole, so it is reported.  At
        # 500-row chunks it lies in the tail carried past the first chunk's
        # cut, and so does the row that the bad byte breaks at 8192-8200.
        data = rows_text(3000, "\n").encode()
        start = offset - offset % tensor_io._BLOCK_BYTES
        if fault and start:
            end = data.rindex(b"\n", 0, start)
            row = data[data.rindex(b"\n", 0, end) + 1:end]
            gene, cond, time, value = row.split(b",")
            data = data.replace(row + b"\n", b",".join([gene, cond, time, b"x" * len(value)]) + b"\n")
        path = tmp_path / "d.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        got = matches_oracle(path, chunk_rows)
        assert got[0] is (DatasetFormatError if fault and start else UnicodeDecodeError)


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet
    programs write "CSV UTF-8", reads as the same file without it."""

    @pytest.mark.parametrize("chunk_rows", [2, tensor_io._CHUNK_ROWS])
    @pytest.mark.parametrize("value", ["0.2", "abc"])
    def test_bom_file_matches_oracle_and_plain_file(self, tmp_path, chunk_rows, value):
        rows = ["a,x,1,0.1", f"a,x,2,{value}", "b,x,1,0.3", "b,x,2,0.4"]
        plain = write_csv(tmp_path / "plain.csv", rows)
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + plain.read_bytes())
        got = matches_oracle(path, chunk_rows)
        if value == "abc":
            assert got == (DatasetFormatError, f"{path}: line 3: bad value 'abc'")
        else:
            assert got == matches_oracle(plain, chunk_rows)
            assert got[3] == ("a", "b")


class TestHeaderRoute:
    """The header is read as a chunk's row is; any other header goes
    through csv, which then reads every row after it."""

    @pytest.mark.parametrize("chunk_rows", [2, 3, tensor_io._CHUNK_ROWS])
    def test_quoted_header_reads_through_csv_from_the_first_row(self, tmp_path, chunk_rows):
        rows = [f"g{i // 2},x,{i % 2},{i}" for i in range(10)]
        path = write_csv(tmp_path / "d.csv", rows, header='"gene",condition,time,value')
        got, csv_rows = csv_rows_read(path, chunk_rows)
        assert csv_rows == [list(tensor_io.CSV_HEADER)] + [r.split(",") for r in rows]
        assert readers_built(path, chunk_rows) == (got, 1)
        assert got == _load_outcome(naive.load_dataset_naive, path)
        assert got[0] == (5, 1, 2)

    def test_header_past_the_csv_field_limit_fails_as_csv_does(self, tmp_path):
        # "condition" is 9 characters; every data field is shorter.
        path = write_csv(tmp_path / "d.csv", ["a,x,1,0.5", "a,x,2,0.6"])
        limit = csv.field_size_limit(8)
        try:
            got = matches_oracle(path, tensor_io._CHUNK_ROWS)
        finally:
            csv.field_size_limit(limit)
        assert got[0] is csv.Error and "field larger than field limit (8)" in got[1]

    @pytest.mark.parametrize("bom", [b"", BOM])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""])
    def test_header_only_file_has_no_data_rows(self, tmp_path, end, bom):
        path = tmp_path / "d.csv"
        path.write_bytes(bom + f"gene,condition,time,value{end}".encode())
        got = matches_oracle(path, tensor_io._CHUNK_ROWS)
        assert got == (DatasetFormatError, f"{path}: no data rows")

    @pytest.mark.parametrize("data", [b"", BOM])
    def test_empty_and_bom_only_files_are_empty(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        got = matches_oracle(path, tensor_io._CHUNK_ROWS)
        assert got == (DatasetFormatError, f"{path}: file is empty")

    @pytest.mark.parametrize("offset", [0, 3, 25, 26, 27, 40, 4000])
    def test_undecodable_byte_in_the_first_block(self, tmp_path, offset):
        # The first block holds the header, and a text file fails to decode
        # it before csv reads a row.  TestReadFailure covers the block's end.
        data = rows_text(1000, "\n").encode()
        path = tmp_path / "d.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        got = matches_oracle(path, tensor_io._CHUNK_ROWS)
        assert got[0] is UnicodeDecodeError


class TestTensorInvariants:
    def test_immutability(self, rng):
        t = make_tensor(rng.random((3, 3, 3)))
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 9.9

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            ExpressionTensor(
                np.zeros((2, 1, 1)), ("a", "a"), ("x",), ("1",),
                np.zeros((2, 1, 1), bool),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExpressionTensor(
                np.zeros((2, 1, 1)), ("a",), ("x",), ("1",),
                np.zeros((2, 1, 1), bool),
            )

    def test_limit_genes(self, rng):
        t = make_tensor(rng.random((5, 2, 2)))
        cut = limit_genes(t, 3)
        assert cut.shape == (3, 2, 2)
        assert cut.gene_ids == t.gene_ids[:3]
        np.testing.assert_array_equal(cut.values, t.values[:3])
        assert limit_genes(t, 99) is t
        assert limit_genes(t, 2).shape == (2, 2, 2)
        for n in (0, 1):
            with pytest.raises(ValueError, match="gene limit must be >= 2"):
                limit_genes(t, n)


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        # The second column's range is past the float maximum.
        for column in ([2.0, 6.0, 10.0], [-1e308, 0.0, 1e308]):
            t = make_tensor(np.array(column).reshape(3, 1, 1))
            out = normalize_minmax(t)
            assert out.values[:, 0, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        t = make_tensor(np.array([4.0, 4.0]).reshape(2, 1, 1))
        out = normalize_minmax(t)
        assert out.values[:, 0, 0].tolist() == [0.0, 0.0]

    def test_per_column_extremes(self, rng):
        t = make_tensor(rng.normal(5.0, 3.0, size=(10, 3, 4)))
        out = normalize_minmax(t)
        # independent scan: every (condition, time) column hits 0 and 1
        for c in range(3):
            for ti in range(4):
                col = out.values[:, c, ti]
                assert col.min() == pytest.approx(0.0)
                assert col.max() == pytest.approx(1.0)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_missing_cells_untouched_and_excluded(self):
        values = np.array([1.0, 2.0, 100.0]).reshape(3, 1, 1)
        mask = np.array([False, False, True]).reshape(3, 1, 1)
        t = ExpressionTensor(values, ("a", "b", "c"), ("x",), ("1",), mask)
        out = normalize_minmax(t)
        # 100.0 is missing: excluded from the column max, value preserved
        assert out.values[:, 0, 0].tolist() == [0.0, 1.0, 100.0]
        assert out.missing_mask.tolist() == mask.tolist()

    def test_all_missing_column_left_as_is_without_warnings(self):
        # Warnings are errors in this suite, so a numpy All-NaN warning fails.
        values = np.array([[[1.0, np.nan]], [[3.0, np.nan]]])
        mask = np.array([[[False, True]], [[False, True]]])
        t = ExpressionTensor(values, ("a", "b"), ("x",), ("1", "2"), mask)
        out = normalize_minmax(t)
        assert out.values[:, 0, 0].tolist() == [0.0, 1.0]
        assert np.isnan(out.values[:, 0, 1]).all()

    def test_idempotent_on_normalized_data(self, rng):
        t = normalize_minmax(make_tensor(rng.random((8, 3, 3))))
        again = normalize_minmax(t)
        np.testing.assert_allclose(again.values, t.values, atol=1e-12)


class TestImpute:
    def test_identity_without_missing(self, rng):
        t = make_tensor(rng.random((3, 3, 3)))
        assert impute_missing(t, 1) is t

    def test_deterministic(self):
        values = np.zeros((4, 3, 3))
        mask = np.zeros((4, 3, 3), bool)
        mask[0, 0, 0] = mask[1, 2, 1] = mask[3, 0, 2] = True
        t = ExpressionTensor(
            values, tuple("abcd"), tuple("xyz"), ("1", "2", "3"), mask
        )
        a = impute_missing(t, 42)
        b = impute_missing(t, 42)
        np.testing.assert_array_equal(a.values, b.values)
        c = impute_missing(t, 43)
        assert not np.array_equal(a.values, c.values)
        # provenance preserved
        np.testing.assert_array_equal(a.missing_mask, mask)

    def test_fills_unit_interval(self, rng):
        values = np.full((10, 10, 10), -5.0)
        mask = rng.random((10, 10, 10)) < 0.5
        t = ExpressionTensor(
            values,
            tuple(f"g{i}" for i in range(10)),
            tuple(f"c{i}" for i in range(10)),
            tuple(str(i) for i in range(10)),
            mask,
        )
        out = impute_missing(t, 7)
        filled = out.values[mask]
        assert filled.min() >= 0.0 and filled.max() < 1.0
        np.testing.assert_array_equal(out.values[~mask], values[~mask])


class TestSyntheticSpec:
    def test_validation(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(2, 2), planted=())
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(4, 4, 4), planted=((coords, "sinusoidal"),))
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(4, 4, 4), noise_sigma=-1.0)
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(dims=(4, 4, 4), noise_sigma=float("inf"))
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(4, 4, 4), background="poisson")
        big = TriclusterCoords((0, 9), (0, 1), (0, 1))
        with pytest.raises(IndexError, match="out of bounds"):
            SyntheticSpec(dims=(4, 4, 4), planted=((big, "constant"),))

    @pytest.mark.parametrize("kwargs", [
        {"dims": (4.5, 3, 3)}, {"dims": (4, True, 3)},
        {"dims": (4, 3, 3), "seed": 1.5}, {"dims": (4, 3, 3), "seed": True},
    ])
    def test_integers_taken_strictly(self, kwargs):
        with pytest.raises(TypeError, match="expected an integer"):
            SyntheticSpec(**kwargs)

    def test_bool_noise_rejected(self):
        with pytest.raises(TypeError, match="noise_sigma"):
            SyntheticSpec(dims=(4, 3, 3), noise_sigma=True)

    def test_cell_count_capped_before_allocation(self):
        with pytest.raises(ValueError, match="cells"):
            SyntheticSpec(dims=(10**20, 3, 3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SyntheticSpec(dims=(4, 3, 3), seed=-1)

    def test_from_dict(self):
        spec = SyntheticSpec.from_dict(json.loads(
            '{"dims": [6, 4, 4], "noise_sigma": 0.0, "seed": 9,'
            ' "planted": [{"genes": [0,1], "conditions": [0,1],'
            ' "times": [0,1], "pattern": "constant"}]}'
        ))
        assert spec.dims == (6, 4, 4)
        assert spec.seed == 9
        assert spec.planted[0][1] == "constant"


class TestGenerateSynthetic:
    def test_constant_plant_msr_zero(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        spec = SyntheticSpec(dims=(4, 3, 3), planted=((coords, "constant"),), seed=1)
        tensor, truth = generate_synthetic(spec)
        assert truth == [coords]
        assert msr3d(tensor, coords) == pytest.approx(0.0, abs=1e-12)
        region = tensor.values[np.ix_(coords.genes, coords.conditions, coords.times)]
        assert np.ptp(region) == 0.0

    def test_additive_plant_msr_tiny(self):
        coords = TriclusterCoords(tuple(range(20)), (0, 1, 2), tuple(range(5)))
        spec = SyntheticSpec(dims=(100, 6, 10), planted=((coords, "additive"),), seed=2)
        tensor, _ = generate_synthetic(spec)
        assert msr3d(tensor, coords) <= 1e-9

    def test_multiplicative_plant_written(self):
        coords = TriclusterCoords((1, 2, 3), (0, 1), (0, 1, 2))
        spec = SyntheticSpec(
            dims=(6, 4, 4), planted=((coords, "multiplicative"),), seed=3
        )
        tensor, _ = generate_synthetic(spec)
        region = tensor.values[np.ix_(coords.genes, coords.conditions, coords.times)]
        assert region.min() > 0.0

    def test_noisy_plant_beats_random_coords(self):
        plant = TriclusterCoords(tuple(range(20)), (0, 1, 2), tuple(range(5)))
        spec = SyntheticSpec(
            dims=(100, 6, 10), planted=((plant, "additive"),),
            noise_sigma=0.01, seed=4,
        )
        tensor, _ = generate_synthetic(spec)
        planted_msr = msr3d(tensor, plant)
        rng = np.random.default_rng(11)
        wins = 0
        for _ in range(50):
            coords = TriclusterCoords(
                tuple(rng.choice(100, size=20, replace=False)),
                tuple(rng.choice(6, size=3, replace=False)),
                tuple(rng.choice(10, size=5, replace=False)),
            )
            if planted_msr < msr3d(tensor, coords):
                wins += 1
        assert wins >= 48  # >= 95% of draws

    # SHA-256 of the values of every spec in ``test_values_match_digest``,
    # recorded with numpy 2.4 on x86-64.  It pins the RNG draw order and the
    # order in which each plant's base and per-axis terms are combined.
    VALUES_DIGEST = "5008d9dc1a232861fb65979b8ea7d47eb3e5889ba623dbbdf5988d7ad6e253b2"

    def test_values_match_digest(self):
        planted = (
            (TriclusterCoords(tuple(range(8)), (0, 2, 3), (1, 2, 4, 6)), "constant"),
            (TriclusterCoords(tuple(range(8, 20)), (1, 2, 4), (0, 3, 5, 6, 7)), "additive"),
            (TriclusterCoords((20, 22, 25, 27), (0, 5), (2, 3, 7)), "multiplicative"),
        )
        h = hashlib.sha256()
        for background, noise, seed in product(("uniform01", "gaussian"), (0.0, 0.05), (0, 7)):
            spec = SyntheticSpec(
                dims=(30, 6, 8), planted=planted, noise_sigma=noise,
                background=background, seed=seed,
            )
            h.update(generate_synthetic(spec)[0].values.tobytes())
        assert h.hexdigest() == self.VALUES_DIGEST

    def test_deterministic(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        spec = SyntheticSpec(
            dims=(8, 4, 4), planted=((coords, "additive"),),
            noise_sigma=0.05, seed=123,
        )
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_gaussian_background(self):
        spec = SyntheticSpec(dims=(50, 4, 4), background="gaussian", seed=5)
        tensor, truth = generate_synthetic(spec)
        assert truth == []
        assert 0.3 < tensor.values.mean() < 0.7

    def test_overlap_rejected(self):
        a = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        b = TriclusterCoords((2, 3), (1, 2), (1, 2))
        spec_args = dict(dims=(6, 4, 4), seed=1)
        with pytest.raises(RegionOverlapError):
            generate_synthetic(
                SyntheticSpec(planted=((a, "constant"), (b, "constant")), **spec_args)
            )
        # disjoint on the gene axis alone is enough to be cell-disjoint
        c = TriclusterCoords((3, 4), (0, 1), (0, 1))
        tensor, truth = generate_synthetic(
            SyntheticSpec(planted=((a, "constant"), (c, "constant")), **spec_args)
        )
        assert len(truth) == 2
