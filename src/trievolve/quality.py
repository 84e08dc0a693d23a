"""Quality measures for triclusters.

A tricluster is a subtensor of a (gene, condition, time) expression tensor,
addressed by three sorted index subsets.  Candidate quality combines:

* ``msr3d`` -- the three-way mean squared residue.  Zero exactly when the
  subtensor follows an additive model ``a_g + b_c + d_t``; lower means more
  homogeneous.
* ``lsl`` -- the least-squares-line measure: the average pairwise distance
  between fitted line slopes across three orthogonal views of the subtensor.
  Zero when all patterns within each view are parallel.
* ``weights_term`` -- a size reward, linear in the number of selected
  genes/conditions/times.
* ``distinction_term`` -- a novelty reward proportional to the fraction of a
  candidate's coordinates unused by already-archived triclusters.

The combined fitness is ``msr + lsl - weights - distinction`` and is
minimized.

All functions are pure and operate on immutable inputs, so evaluating many
candidates concurrently against one shared tensor is safe.  ``tensor``
arguments accept either an :class:`~trievolve.tensor_io.ExpressionTensor` or
a bare 3D ``numpy`` array.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

VIEW_TIME = "time-view"
VIEW_CONDITION = "condition-view"
VIEW_GENE = "gene-view"
VIEWS = (VIEW_TIME, VIEW_CONDITION, VIEW_GENE)

MODE_OLS = "ols"
MODE_PAPER_LITERAL = "paper-literal"
SLOPE_MODES = (MODE_OLS, MODE_PAPER_LITERAL)


class SizePreconditionError(ValueError):
    """Coordinates too small for the requested measure (< 2 on some axis)."""


@dataclass(frozen=True)
class TriclusterCoords:
    """Three sorted, duplicate-free index subsets addressing a subtensor.

    Indices must be integers (``operator.index``): a float or a string is a
    TypeError, not silently truncated or parsed.
    """

    genes: tuple[int, ...]
    conditions: tuple[int, ...]
    times: tuple[int, ...]

    def __post_init__(self):
        for name in ("genes", "conditions", "times"):
            raw = getattr(self, name)
            idx = tuple(sorted({operator.index(i) for i in raw}))
            if not idx:
                raise ValueError(f"{name} must be non-empty")
            if idx[0] < 0:
                raise ValueError(f"{name} contains a negative index")
            object.__setattr__(self, name, idx)

    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @property
    def n_conditions(self) -> int:
        return len(self.conditions)

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def volume(self) -> int:
        """Number of cells in the addressed subtensor."""
        return self.n_genes * self.n_conditions * self.n_times

    def to_dict(self) -> dict:
        return {
            "genes": list(self.genes),
            "conditions": list(self.conditions),
            "times": list(self.times),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TriclusterCoords":
        return cls(tuple(d["genes"]), tuple(d["conditions"]), tuple(d["times"]))


def jaccard_cells(a: TriclusterCoords, b: TriclusterCoords) -> float:
    """3D Jaccard overlap: |cells(a) & cells(b)| / |cells(a) | cells(b)|.

    Cell sets are Cartesian products, so the intersection size factorizes
    into per-axis intersection sizes.
    """
    inter = (
        len(set(a.genes) & set(b.genes))
        * len(set(a.conditions) & set(b.conditions))
        * len(set(a.times) & set(b.times))
    )
    union = a.volume + b.volume - inter
    return inter / union


def _values(tensor) -> np.ndarray:
    vals = np.asarray(getattr(tensor, "values", tensor), dtype=np.float64)
    if vals.ndim != 3:
        raise ValueError(f"expected a 3D tensor, got shape {vals.shape}")
    return vals


def _check_bounds(values: np.ndarray, coords: TriclusterCoords) -> None:
    for name, idx, limit in (
        ("gene", coords.genes, values.shape[0]),
        ("condition", coords.conditions, values.shape[1]),
        ("time", coords.times, values.shape[2]),
    ):
        if idx[-1] >= limit:
            raise IndexError(
                f"{name} index {idx[-1]} out of bounds for axis of length {limit}"
            )


def _subtensor(values: np.ndarray, coords: TriclusterCoords) -> np.ndarray:
    _check_bounds(values, coords)
    return values[np.ix_(coords.genes, coords.conditions, coords.times)]


def _residual_tensor(sub: np.ndarray) -> np.ndarray:
    # Residue of each cell against the additive (gene + condition + time)
    # model: value plus the three single-axis marginal means, minus the three
    # pairwise marginal means, minus the grand mean.
    return (
        sub
        + sub.mean(axis=(0, 1))[None, None, :]
        + sub.mean(axis=(0, 2))[None, :, None]
        + sub.mean(axis=(1, 2))[:, None, None]
        - sub.mean(axis=0)[None, :, :]
        - sub.mean(axis=1)[:, None, :]
        - sub.mean(axis=2)[:, :, None]
        - sub.mean()
    )


def residual(tensor, coords: TriclusterCoords, g: int, c: int, t: int) -> float:
    """Additive-model residue of one cell; (g, c, t) are dataset indices.

    Raises ValueError if the indices are not part of ``coords``.
    """
    try:
        gi = coords.genes.index(g)
        ci = coords.conditions.index(c)
        ti = coords.times.index(t)
    except ValueError:
        raise ValueError(f"cell ({g}, {c}, {t}) is outside the tricluster") from None
    sub = _subtensor(_values(tensor), coords)
    return float(_residual_tensor(sub)[gi, ci, ti])


def msr3d(tensor, coords: TriclusterCoords) -> float:
    """Mean squared residue over all cells of the subtensor.

    Zero iff the subtensor is exactly additive across its three axes; the
    measure is invariant under constant shifts and scales quadratically.
    """
    sub = _subtensor(_values(tensor), coords)
    r = _residual_tensor(sub)
    return float(np.mean(r * r))


# One row per view: (x axis, einsum giving each line's sum_xy, axes summed
# for each line's sum_y, replication axis).  Axes index the gathered
# (gene, condition, time) block.
_VIEW_TABLE = {
    VIEW_TIME: (0, "g,gct->t", (0, 1), 1),
    VIEW_CONDITION: (0, "g,gct->c", (0, 2), 2),
    VIEW_GENE: (2, "t,gct->c", (0, 2), 0),
}
_AXIS_NAMES = ("genes", "conditions", "times")


def _slopes(sub: np.ndarray, axis: str, mode: str) -> np.ndarray:
    # Least-squares slope of every line of one view of a gathered block,
    # (n*sum_xy - sum_x*sum_y) / (n*sum_xx - sum_x**2) element-wise.
    if mode not in SLOPE_MODES:
        raise ValueError(f"unknown slope mode {mode!r}; expected one of {SLOPE_MODES}")
    if axis not in _VIEW_TABLE:
        raise ValueError(f"unknown view {axis!r}; expected one of {VIEWS}")
    x_axis, subscripts, y_axes, rep_axis = _VIEW_TABLE[axis]
    base_n, replication = sub.shape[x_axis], sub.shape[rep_axis]
    if base_n < 2:
        raise SizePreconditionError(
            f"{axis} needs at least 2 {_AXIS_NAMES[x_axis]}, got {base_n}"
        )
    xs = np.arange(base_n, dtype=np.float64)
    sum_x, sum_xx = float(xs.sum()), float((xs * xs).sum())
    sum_y = sub.sum(axis=y_axes)
    sum_xy = np.einsum(subscripts, xs, sub)
    if mode == MODE_OLS:
        n, sx, sxx = base_n * replication, replication * sum_x, replication * sum_xx
    else:
        n, sx, sxx = base_n, sum_x, sum_xx
    # At least two distinct x positions make the denominator positive.
    return (n * sum_xy - sx * sum_y) / (n * sxx - sx * sx)


def view_slopes(
    tensor, coords: TriclusterCoords, axis: str, mode: str = MODE_OLS
) -> np.ndarray:
    """Fit one regression line per coordinate of a view; return the slopes.

    The result is a float array with one slope per line, in the order of the
    sorted coords subset that indexes the lines.

    Views and their scatter plots (y is always the expression value, x is a
    0-based position within the sorted coords subset, so the result does not
    depend on which absolute rows were selected):

    * time-view: one line per selected time, x = gene position, points ranging
      over genes x conditions.
    * condition-view: one line per selected condition, x = gene position,
      points ranging over times x genes.
    * gene-view: one line per selected condition, x = time position, points
      ranging over times x genes.

    ``mode="ols"`` fits the exact ordinary-least-squares slope over the full
    point set.  ``mode="paper-literal"`` evaluates the accumulator formulas
    with the point count and x-sums taken over the x-axis subset only, i.e.
    without the replication factor of the second summation index; the two
    modes differ by exactly that factor.
    """
    return _slopes(_subtensor(_values(tensor), coords), axis, mode)


def _mean_pairwise_distance(s: np.ndarray) -> float:
    # Sum of |s_i - s_j| over ordered pairs, divided by (n-1)*n.
    n = s.size
    total = float(np.abs(s[:, None] - s[None, :]).sum())
    return total / ((n - 1) * n)


def lsl(tensor, coords: TriclusterCoords, mode: str = MODE_OLS) -> float:
    """Least-squares-line measure: mean over the three views of the average
    pairwise distance between that view's fitted slopes.

    Requires at least 2 selected genes, conditions and times; callers must
    repair degenerate candidates first.
    """
    if coords.n_genes < 2 or coords.n_conditions < 2 or coords.n_times < 2:
        raise SizePreconditionError(
            "lsl needs >= 2 selected indices per axis, got "
            f"({coords.n_genes}, {coords.n_conditions}, {coords.n_times})"
        )
    sub = _subtensor(_values(tensor), coords)
    t_r, c_r, g_r = (_mean_pairwise_distance(_slopes(sub, v, mode)) for v in VIEWS)
    return (t_r + c_r + g_r) / 3.0


@dataclass(frozen=True)
class QualityWeights:
    """Per-axis size weights (w_*) and distinction weights (wd_*)."""

    w_g: float = 0.1
    w_c: float = 0.1
    w_t: float = 0.1
    wd_g: float = 0.1
    wd_c: float = 0.1
    wd_t: float = 0.1

    def __post_init__(self):
        for name in ("w_g", "w_c", "w_t", "wd_g", "wd_c", "wd_t"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def weights_term(coords: TriclusterCoords, w: QualityWeights) -> float:
    """Size reward: G_l*w_g + C_l*w_c + T_l*w_t (subtracted from fitness)."""
    return (
        coords.n_genes * w.w_g
        + coords.n_conditions * w.w_c
        + coords.n_times * w.w_t
    )


def distinction_term(coords: TriclusterCoords, archive, w: QualityWeights) -> float:
    """Novelty reward against already-archived triclusters.

    For each axis, counts the candidate's coordinates absent from every
    archived tricluster and weights the novel fraction.  ``archive`` is an
    :class:`~trievolve.engine.Archive`, whose ``covered_genes`` /
    ``covered_conditions`` / ``covered_times`` sets are read, or None for an
    empty archive; larger means more novel, and the term is subtracted from
    fitness so novelty is rewarded.
    """
    if archive is None:
        covered_g = covered_c = covered_t = frozenset()
    else:
        covered_g = archive.covered_genes
        covered_c = archive.covered_conditions
        covered_t = archive.covered_times
    cdn_g = sum(1 for g in coords.genes if g not in covered_g)
    cdn_c = sum(1 for c in coords.conditions if c not in covered_c)
    cdn_t = sum(1 for t in coords.times if t not in covered_t)
    return (
        (cdn_g / coords.n_genes) * w.wd_g
        + (cdn_c / coords.n_conditions) * w.wd_c
        + (cdn_t / coords.n_times) * w.wd_t
    )


@dataclass(frozen=True)
class FitnessBreakdown:
    """One candidate's quality components and their combined value."""

    msr: float
    lsl: float
    weights: float
    distinction: float
    f: float

    @classmethod
    def compose(
        cls, msr: float, lsl: float, weights: float, distinction: float
    ) -> "FitnessBreakdown":
        # f is defined by exactly this expression; tests assert the identity
        # bit-for-bit, so it must not be recomputed any other way.
        return cls(msr, lsl, weights, distinction, msr + lsl - weights - distinction)

    def to_dict(self) -> dict:
        return {
            "msr": self.msr,
            "lsl": self.lsl,
            "weights": self.weights,
            "distinction": self.distinction,
            "f": self.f,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitnessBreakdown":
        return cls(d["msr"], d["lsl"], d["weights"], d["distinction"], d["f"])


def fitness(
    tensor,
    coords: TriclusterCoords,
    w: QualityWeights,
    archive=None,
    mode: str = MODE_OLS,
) -> FitnessBreakdown:
    """Evaluate a candidate: f = msr + lsl - weights - distinction (minimize).

    May be negative: the size and novelty rewards can exceed the residue
    terms for large, near-perfect candidates.
    """
    return FitnessBreakdown.compose(
        msr=msr3d(tensor, coords),
        lsl=lsl(tensor, coords, mode),
        weights=float(weights_term(coords, w)),
        distinction=float(distinction_term(coords, archive, w)),
    )
