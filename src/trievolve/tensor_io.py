"""Loading, normalizing and generating 3D expression tensors.

The canonical input is a long-format CSV with header exactly
``gene,condition,time,value`` (UTF-8, ``.`` decimal separator).  An empty
value field marks a missing measurement; so does an absent (gene, condition,
time) triple.  Per-condition matrix layouts must be converted to this format
upstream.

All operations are pure given their inputs and seed, and tensors are
immutable after construction, so they are safe to share across threads.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .quality import TriclusterCoords

CSV_HEADER = ("gene", "condition", "time", "value")

PATTERN_CONSTANT = "constant"
PATTERN_ADDITIVE = "additive"
PATTERN_MULTIPLICATIVE = "multiplicative"
PATTERNS = (PATTERN_CONSTANT, PATTERN_ADDITIVE, PATTERN_MULTIPLICATIVE)

BACKGROUND_UNIFORM01 = "uniform01"
BACKGROUND_GAUSSIAN = "gaussian"
BACKGROUNDS = (BACKGROUND_UNIFORM01, BACKGROUND_GAUSSIAN)


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
    # Numeric sort when every label parses as a number, else lexical; the
    # time axis must be monotone for the time-position regressions.
    try:
        return sorted(labels, key=lambda s: (float(s), s))
    except ValueError:
        return sorted(labels)


def load_dataset(path, descriptor: dict | None = None) -> ExpressionTensor:
    """Read a long-format CSV into a tensor; no imputation is performed.

    Genes and conditions are ordered by first appearance, time labels by
    numeric (fallback lexical) sort.  Raises DatasetFormatError with a line
    number for malformed or duplicate rows, for values that are not finite
    numbers (``nan``/``inf`` included; an empty field marks a missing cell),
    and for ragged time grids where a condition has no rows at all for some
    time point.

    ``descriptor`` optionally declares expected axis sizes, any of
    ``{"genes": int, "conditions": int, "times": int}``; the loaded shape is
    checked against it and a mismatch raises DatasetFormatError.
    """
    genes: list[str] = []
    conditions: list[str] = []
    gene_set: set[str] = set()
    cond_set: set[str] = set()
    seen_cells: dict[tuple[str, str, str], float | None] = {}
    times_seen: set[str] = set()
    cond_times: dict[str, set[str]] = {}

    with open(path, newline="", encoding="utf-8") as fh:
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
            raise DatasetFormatError(
                f"{path}: ragged time grid: condition {cond!r} has no rows "
                f"for time point(s) {', '.join(repr(t) for t in gaps)}"
            )

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

    if descriptor:
        for key, got in zip(("genes", "conditions", "times"), shape):
            want = descriptor.get(key)
            if want is not None and got != want:
                raise DatasetFormatError(
                    f"{path}: descriptor expects {want} {key}, file has {got}"
                )
    return ExpressionTensor(values, tuple(genes), tuple(conditions), tuple(times), mask)


def export_csv(tensor: ExpressionTensor, path) -> None:
    """Write every cell in long format; missing cells get an empty value."""
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


def limit_genes(tensor: ExpressionTensor, n: int) -> ExpressionTensor:
    """Keep the first ``n`` genes in file order."""
    if n < 1:
        raise ValueError(f"gene limit must be >= 1, got {n}")
    if n >= tensor.shape[0]:
        return tensor
    return ExpressionTensor(
        tensor.values[:n].copy(),
        tensor.gene_ids[:n],
        tensor.condition_ids,
        tensor.time_labels,
        tensor.missing_mask[:n].copy(),
    )


def normalize_minmax(tensor: ExpressionTensor) -> ExpressionTensor:
    """Min-max rescale each (condition, time) column of gene values to [0, 1].

    Missing cells are excluded from the column min/max and left untouched.
    A constant column maps to all zeros rather than erroring; flat control
    columns are common in real exports.
    """
    present = ~tensor.missing_mask
    work = np.where(present, tensor.values, np.nan)
    counts = present.sum(axis=0)  # (C, T)
    with np.errstate(all="ignore"):
        col_min = np.where(counts > 0, np.nanmin(work, axis=0), 0.0)
        col_max = np.where(counts > 0, np.nanmax(work, axis=0), 0.0)
    span = col_max - col_min
    safe_span = np.where(span > 0, span, 1.0)
    scaled = (work - col_min[None, :, :]) / safe_span[None, :, :]
    scaled = np.where(span[None, :, :] > 0, scaled, 0.0)
    out = np.where(present, scaled, tensor.values)
    return ExpressionTensor(
        out, tensor.gene_ids, tensor.condition_ids, tensor.time_labels,
        tensor.missing_mask.copy(),
    )


def impute_missing(tensor: ExpressionTensor, seed: int) -> ExpressionTensor:
    """Fill missing cells with seeded uniform draws in [0, 1).

    The mask is preserved for provenance.  Cells are filled in row-major
    order, so the result is bit-identical for a given seed.
    """
    if tensor.n_missing() == 0:
        return tensor
    rng = np.random.default_rng(seed)
    values = tensor.values.copy()
    values[tensor.missing_mask] = rng.random(tensor.n_missing())
    return ExpressionTensor(
        values, tensor.gene_ids, tensor.condition_ids, tensor.time_labels,
        tensor.missing_mask.copy(),
    )


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
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or min(dims) < 1:
            raise ValueError(f"dims must be three positive sizes, got {self.dims}")
        planted = tuple((coords, pattern) for coords, pattern in self.planted)
        for coords, pattern in planted:
            if pattern not in PATTERNS:
                raise ValueError(f"unknown pattern {pattern!r}; expected {PATTERNS}")
            if (
                coords.genes[-1] >= dims[0]
                or coords.conditions[-1] >= dims[1]
                or coords.times[-1] >= dims[2]
            ):
                raise ValueError(f"planted coords {coords} do not fit in dims {dims}")
        if not (self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.background not in BACKGROUNDS:
            raise ValueError(
                f"unknown background {self.background!r}; expected {BACKGROUNDS}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "planted", planted)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_json(cls, path) -> "SyntheticSpec":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(
                f"{path}: invalid synthetic spec: expected a JSON object, "
                f"got {type(raw).__name__}"
            )
        try:
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
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: invalid synthetic spec: {exc}") from exc


def _check_disjoint(planted) -> None:
    for i in range(len(planted)):
        for j in range(i + 1, len(planted)):
            a, b = planted[i][0], planted[j][0]
            if (
                set(a.genes) & set(b.genes)
                and set(a.conditions) & set(b.conditions)
                and set(a.times) & set(b.times)
            ):
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
        ix = np.ix_(coords.genes, coords.conditions, coords.times)
        shape = (coords.n_genes, coords.n_conditions, coords.n_times)
        if pattern == PATTERN_CONSTANT:
            region = np.full(shape, rng.uniform(0.25, 0.75))
        elif pattern == PATTERN_ADDITIVE:
            base = rng.uniform(0.4, 0.6)
            a = rng.uniform(-0.1, 0.1, shape[0])
            b = rng.uniform(-0.1, 0.1, shape[1])
            d = rng.uniform(-0.1, 0.1, shape[2])
            region = base + a[:, None, None] + b[None, :, None] + d[None, None, :]
        else:
            base = rng.uniform(0.4, 0.6)
            a = rng.uniform(0.85, 1.15, shape[0])
            b = rng.uniform(0.85, 1.15, shape[1])
            d = rng.uniform(0.85, 1.15, shape[2])
            region = base * a[:, None, None] * b[None, :, None] * d[None, None, :]
        if spec.noise_sigma > 0:
            region = region + rng.normal(0.0, spec.noise_sigma, shape)
        values[ix] = region

    tensor = ExpressionTensor(
        values,
        tuple(f"g{i}" for i in range(n_g)),
        tuple(f"c{i}" for i in range(n_c)),
        tuple(str(i) for i in range(n_t)),
        np.zeros(spec.dims, dtype=bool),
    )
    return tensor, [coords for coords, _ in spec.planted]
