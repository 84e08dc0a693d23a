"""Brute-force reference implementations of the quality measures and CSV I/O.

Deliberately slow and structurally independent of :mod:`trievolve.quality`:
every mean is recomputed with explicit Python loops, every regression is fit
from a materialized point list, and pairwise slope distances come from a
double loop.  Paper-literal slopes run over exact rationals and round once,
since their formula cancels at large offsets.  These exist to pin the
vectorized implementations down in tests; do not use them on large inputs.

The CSV reader and writer here go row by row and cell by cell, where the
chunked, columnar ones in :mod:`trievolve.tensor_io` do not; tests require
identical tensors, error messages and bytes from both.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from .quality import MODE_OLS, MODE_PAPER_LITERAL, TriclusterCoords, _values
from .tensor_io import (
    CSV_HEADER,
    DatasetFormatError,
    ExpressionTensor,
    _ragged_grid_error,
    _sorted_time_labels,
)

VIEW_TIME = "time-view"
VIEW_CONDITION = "condition-view"
VIEW_GENE = "gene-view"


def _cell(values, g, c, t) -> float:
    return float(values[g, c, t])


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs)


def residual_naive(tensor, coords: TriclusterCoords, g: int, c: int, t: int) -> float:
    """Residue of one cell with every mean recomputed by direct loops."""
    values = _values(tensor)
    gs, cs, ts = coords.genes, coords.conditions, coords.times
    m_time = _mean(_cell(values, gg, cc, t) for gg in gs for cc in cs)
    m_cond = _mean(_cell(values, gg, c, tt) for gg in gs for tt in ts)
    m_gene = _mean(_cell(values, g, cc, tt) for cc in cs for tt in ts)
    m_ct = _mean(_cell(values, gg, c, t) for gg in gs)
    m_gt = _mean(_cell(values, g, cc, t) for cc in cs)
    m_gc = _mean(_cell(values, g, c, tt) for tt in ts)
    m_all = _mean(
        _cell(values, gg, cc, tt) for gg in gs for cc in cs for tt in ts
    )
    return _cell(values, g, c, t) + m_time + m_cond + m_gene - m_ct - m_gt - m_gc - m_all


def msr3d_naive(tensor, coords: TriclusterCoords) -> float:
    """Triple-loop mean squared residue."""
    total = 0.0
    for g in coords.genes:
        for c in coords.conditions:
            for t in coords.times:
                r = residual_naive(tensor, coords, g, c, t)
                total += r * r
    return total / coords.volume


def _ols_slope(points) -> float:
    # Two-pass mean-centered covariance / variance fit.
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xm, ym = _mean(xs), _mean(ys)
    num = sum((x - xm) * (y - ym) for x, y in points)
    den = sum((x - xm) ** 2 for x in xs)
    return num / den


def _literal_slope(points, axis_positions):
    # Accumulator formulas evaluated verbatim: the point count and x-sums
    # range over the axis subset only, while sum_xy / sum_y range over the
    # full point list.  Exact when the y values are Fractions.
    n = len(axis_positions)
    sum_x = sum(axis_positions)
    sum_xx = sum(x * x for x in axis_positions)
    sum_xy = sum(x * y for x, y in points)
    sum_y = sum(y for _, y in points)
    return (n * sum_xy - sum_x * sum_y) / (n * sum_xx - sum_x * sum_x)


def view_point_lists(tensor, coords: TriclusterCoords, axis: str):
    """Materialize each view coordinate's (x, y) scatter as a plain list."""
    values = _values(tensor)
    gs, cs, ts = coords.genes, coords.conditions, coords.times
    if axis == VIEW_TIME:
        return [
            [
                (gi, _cell(values, g, c, t))
                for gi, g in enumerate(gs)
                for c in cs
            ]
            for t in ts
        ]
    if axis == VIEW_CONDITION:
        return [
            [
                (gi, _cell(values, g, c, t))
                for t in ts
                for gi, g in enumerate(gs)
            ]
            for c in cs
        ]
    if axis == VIEW_GENE:
        return [
            [
                (ti, _cell(values, g, c, t))
                for ti, t in enumerate(ts)
                for g in gs
            ]
            for c in cs
        ]
    raise ValueError(f"unknown view {axis!r}")


def view_slopes_naive(tensor, coords: TriclusterCoords, axis: str, mode: str):
    """One slope per view coordinate, fit from the materialized point list."""
    point_lists = view_point_lists(tensor, coords, axis)
    if mode == MODE_OLS:
        return [_ols_slope(points) for points in point_lists]
    if mode == MODE_PAPER_LITERAL:
        if axis in (VIEW_TIME, VIEW_CONDITION):
            positions = list(range(coords.n_genes))
        else:
            positions = list(range(coords.n_times))
        # n*sum_xy - sum_x*sum_y cancels at large offsets, so the formula
        # runs over exact rationals of the points and rounds once.
        return [
            float(_literal_slope([(x, Fraction(y)) for x, y in points], positions))
            for points in point_lists
        ]
    raise ValueError(f"unknown slope mode {mode!r}")


def _mean_pairwise(slopes) -> float:
    n = len(slopes)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += abs(slopes[i] - slopes[j])
    return total / ((n - 1) * n)


def lsl_naive(tensor, coords: TriclusterCoords, mode: str = MODE_OLS) -> float:
    """Point-list LSL: fit every line independently, average pairwise
    slope distances per view, then average the three views."""
    t_r = _mean_pairwise(view_slopes_naive(tensor, coords, VIEW_TIME, mode))
    c_r = _mean_pairwise(view_slopes_naive(tensor, coords, VIEW_CONDITION, mode))
    g_r = _mean_pairwise(view_slopes_naive(tensor, coords, VIEW_GENE, mode))
    return (t_r + c_r + g_r) / 3.0


def load_dataset_naive(path) -> ExpressionTensor:
    """Row-by-row reference for :func:`trievolve.tensor_io.load_dataset`.

    Read a long-format CSV into a tensor; no imputation is performed.

    Genes and conditions are ordered by first appearance, time labels by
    numeric (fallback lexical) sort.  Raises DatasetFormatError with a line
    number for malformed or duplicate rows, for values that are not finite
    numbers (``nan``/``inf`` included; an empty field marks a missing cell),
    and for ragged time grids where a condition has no rows at all for some
    time point.
    """
    genes: list[str] = []
    conditions: list[str] = []
    gene_set: set[str] = set()
    cond_set: set[str] = set()
    seen_cells: dict[tuple[str, str, str], float | None] = {}
    times_seen: set[str] = set()
    cond_times: dict[str, set[str]] = {}

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        if tuple(header) != CSV_HEADER:
            raise DatasetFormatError(
                f"{path}: line 1: header must be exactly "
                f"{','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        for row in reader:
            line = reader.line_num
            if len(row) != 4:
                raise DatasetFormatError(
                    f"{path}: line {line}: expected 4 fields, got {len(row)}"
                )
            gene, cond, time, raw = row
            if not gene or not cond or not time:
                raise DatasetFormatError(
                    f"{path}: line {line}: empty gene/condition/time label"
                )
            if raw == "":
                value = None
            else:
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan  # reported below as a bad value
                if not math.isfinite(value):
                    raise DatasetFormatError(
                        f"{path}: line {line}: bad value {raw!r}"
                    )
            key = (gene, cond, time)
            if key in seen_cells:
                raise DatasetFormatError(
                    f"{path}: line {line}: duplicate entry for "
                    f"gene={gene!r} condition={cond!r} time={time!r}"
                )
            seen_cells[key] = value
            if gene not in gene_set:
                gene_set.add(gene)
                genes.append(gene)
            if cond not in cond_set:
                cond_set.add(cond)
                conditions.append(cond)
            times_seen.add(time)
            cond_times.setdefault(cond, set()).add(time)

    if not seen_cells:
        raise DatasetFormatError(f"{path}: no data rows")

    times = _sorted_time_labels(times_seen)
    for cond in conditions:
        gaps = [t for t in times if t not in cond_times[cond]]
        if gaps:
            raise _ragged_grid_error(path, cond, gaps)

    g_pos = {g: i for i, g in enumerate(genes)}
    c_pos = {c: i for i, c in enumerate(conditions)}
    t_pos = {t: i for i, t in enumerate(times)}
    shape = (len(genes), len(conditions), len(times))
    values = np.full(shape, np.nan)
    mask = np.ones(shape, dtype=bool)
    for (gene, cond, time), value in seen_cells.items():
        if value is not None:
            values[g_pos[gene], c_pos[cond], t_pos[time]] = value
            mask[g_pos[gene], c_pos[cond], t_pos[time]] = False
    return ExpressionTensor(values, tuple(genes), tuple(conditions), tuple(times), mask)


def export_csv_naive(tensor: ExpressionTensor, path) -> None:
    """Cell-by-cell reference for :func:`trievolve.tensor_io.export_csv`.

    Write every cell in long format; missing cells get an empty value.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for gi, gene in enumerate(tensor.gene_ids):
            for ci, cond in enumerate(tensor.condition_ids):
                for ti, time in enumerate(tensor.time_labels):
                    if tensor.missing_mask[gi, ci, ti]:
                        field = ""
                    else:
                        field = repr(float(tensor.values[gi, ci, ti]))
                    writer.writerow([gene, cond, time, field])
