import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trievolve import (
    FitnessBreakdown,
    QualityWeights,
    SizePreconditionError,
    TriclusterCoords,
    distinction_term,
    fitness,
    jaccard_cells,
    lsl,
    msr3d,
    weights_term,
)
from trievolve.engine import Archive
from trievolve import naive
from trievolve import quality
from trievolve.quality import (
    _block, _mean_pairwise_distance, _residual, _subtensor, _view_slopes,
)

from conftest import make_tensor, random_coords


VIEW_NAMES = ("time-view", "condition-view", "gene-view")
MODES = ("ols", "paper-literal")


def kernel_residuals(values, coords) -> np.ndarray:
    """Every cell's residue, as ``msr3d`` squares them, by coords position."""
    return _residual(_block(values, coords))


def naive_residuals(values, coords) -> np.ndarray:
    return np.array([
        [[naive.residual_naive(values, coords, g, c, t) for t in coords.times]
         for c in coords.conditions]
        for g in coords.genes
    ])


def kernel_slopes(values, coords, mode) -> dict:
    """Each view's slopes, as ``lsl`` reads them, keyed by view name."""
    return dict(zip(VIEW_NAMES, _view_slopes(_block(values, coords), mode == "ols")))


def additive_tensor(a, b, d):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = np.asarray(d, float)
    return a[:, None, None] + b[None, :, None] + d[None, None, :]


# Seeded fixture; expected values below were computed once with the naive
# oracles and frozen.
FROZEN_TENSOR = np.random.default_rng(20240611).random((6, 5, 4))
FROZEN_COORDS = TriclusterCoords((0, 2, 3, 5), (1, 2, 4), (0, 1, 3))
FROZEN_MSR = 0.019331889468296528
FROZEN_LSL_OLS = 0.07758279897842081
FROZEN_LSL_LITERAL = 0.268063142754969
FROZEN_RESIDUAL_243 = -0.04138147341014131
FROZEN_TIME_SLOPES_OLS = (
    -0.06185887886061296,
    0.055696541784640737,
    0.07413081988366968,
)


class TestCoords:
    def test_sorted_and_deduped(self):
        c = TriclusterCoords((3, 1, 1), (2, 0), (5, 4))
        assert c.genes == (1, 3)
        assert c.conditions == (0, 2)
        assert c.times == (4, 5)
        assert (c.n_genes, c.n_conditions, c.n_times) == (2, 2, 2)
        assert c.volume == 8

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            TriclusterCoords((), (0, 1), (0, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TriclusterCoords((-1, 2), (0, 1), (0, 1))

    def test_from_dict_rejects_bools(self):
        with pytest.raises(TypeError, match="expected an integer"):
            TriclusterCoords.from_dict(
                {"genes": [0, 1], "conditions": [0, 1], "times": [0, True]}
            )

    def test_jaccard(self):
        a = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert jaccard_cells(a, a) == 1.0
        b = TriclusterCoords((2, 3), (0, 1), (0, 1))
        assert jaccard_cells(a, b) == 0.0
        c = TriclusterCoords((0, 1, 2, 3), (0, 1), (0, 1))
        assert jaccard_cells(a, c) == pytest.approx(0.5)


class TestResidual:
    def test_constant_subtensor_zero(self):
        tensor = make_tensor(np.full((4, 4, 4), 5.0))
        coords = TriclusterCoords((0, 1), (1, 2), (2, 3))
        assert kernel_residuals(tensor, coords) == pytest.approx(0.0)

    def test_additive_subtensor_zero(self, rng):
        values = additive_tensor(rng.normal(size=5), rng.normal(size=4), rng.normal(size=4))
        coords = TriclusterCoords((0, 2, 4), (0, 1, 3), (1, 2))
        assert kernel_residuals(values, coords) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        values = rng.random((3, 3, 3))
        coords = TriclusterCoords((0, 1, 2), (0, 1, 2), (0, 1, 2))
        assert kernel_residuals(values, coords) == pytest.approx(
            naive_residuals(values, coords), abs=1e-12
        )

    def test_frozen_value(self):
        # Dataset cell (2, 4, 3) sits at coords position (1, 2, 2).
        got = kernel_residuals(FROZEN_TENSOR, FROZEN_COORDS)[1, 2, 2]
        assert got == pytest.approx(FROZEN_RESIDUAL_243, abs=1e-12)

    def test_residuals_sum_to_zero(self, rng):
        # Algebraic identity of the residue decomposition.
        for _ in range(25):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            r = kernel_residuals(values, coords).ravel().tolist()
            assert abs(math.fsum(r)) <= 1e-6 * max(sum(map(abs, r)), 1e-12)


@st.composite
def tensor_and_coords(draw):
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    values = draw(st.sampled_from([values, np.sqrt(values) - 3.5]))
    picks = [
        tuple(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for n in shape
    ]
    return values, TriclusterCoords(*picks)


class TestSubtensor:
    @settings(max_examples=300, deadline=None)
    @given(tensor_and_coords())
    def test_matches_ix_gather_and_is_c_contiguous(self, case):
        # msr3d and lsl reduce over this block; their last bits depend on
        # its layout, so it must equal the np.ix_ gather in values and
        # stay C-contiguous.
        values, coords = case
        got = _subtensor(values, coords)
        want = values[np.ix_(coords.genes, coords.conditions, coords.times)]
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous

    # (shape, genes, conditions, times, the take that runs first).  The
    # columns go first when n_g * k <= g * n_c * n_t, k the (condition,
    # time) columns kept and g the genes; a case with every condition and
    # time takes only gene rows.
    GATHER_CASES = {
        "columns-first": ((10, 4, 5), range(8), (0, 2), range(5), "columns"),
        "rows-first": ((10, 4, 5), (1, 7), (0, 1, 3), range(5), "rows"),
        "equal-cells": ((10, 4, 5), range(0, 10, 2), (1, 2), range(5), "columns"),
        "conditions-cut-columns": ((6, 4, 3), range(5), (0, 3), range(3), "columns"),
        "conditions-cut-rows": ((6, 4, 3), (2,), (0, 1, 3), range(3), "rows"),
        "times-cut-columns": ((6, 3, 5), range(1, 6), range(3), (1, 4), "columns"),
        "times-cut-rows": ((6, 3, 5), (0, 5), range(3), (0, 1, 2, 4), "rows"),
        "two-wide-cut-columns": ((4, 2, 2), (0, 2, 3), (1,), (0, 1), "columns"),
        "two-wide-cut-rows": ((9, 2, 2), (4,), (0, 1), (1,), "rows"),
        "two-wide-full": ((5, 2, 2), (1, 3), (0, 1), (0, 1), "skip"),
        "skip": ((10, 4, 5), (0, 3, 9), range(4), range(5), "skip"),
    }

    @pytest.mark.parametrize("layout", ["c", "offset-1e6", "transposed"])
    @pytest.mark.parametrize("case", GATHER_CASES.values(), ids=GATHER_CASES)
    def test_either_take_order_matches_ix_gather(self, rng, case, layout):
        shape, genes, conditions, times, first = case
        n_g, n_c, n_t = shape
        k = len(conditions) * len(times)
        if k == n_c * n_t:
            assert first == "skip"
        else:
            assert first == ("columns" if n_g * k <= len(genes) * n_c * n_t else "rows")
        if layout == "transposed":
            values = rng.random(shape[::-1]).T
        else:
            values = rng.random(shape) + (1e6 if layout == "offset-1e6" else 0.0)
        coords = TriclusterCoords(genes, conditions, times)
        got = _subtensor(values, coords)
        want = values[np.ix_(coords.genes, coords.conditions, coords.times)]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        assert not np.shares_memory(got, values)

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            _subtensor(np.zeros((3, 3, 3)), TriclusterCoords((0, 1), (0, 3), (0,)))

    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_non_c_contiguous_values(self, rng, layout):
        # The gather reads values as a (gene, condition * time) matrix; a
        # bare array in another layout must give the same block, still
        # C-contiguous and still a copy.
        shape = (7, 4, 5)
        if layout == "transposed":
            values = rng.random(shape[::-1]).T
        else:
            values = np.asfortranarray(rng.random(shape))
        assert not values.flags.c_contiguous
        for _ in range(30):
            coords = random_coords(rng, shape, min_size=1)
            got = _subtensor(values, coords)
            want = values[np.ix_(coords.genes, coords.conditions, coords.times)]
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, values)

    # Axes whose coords select every index, so _subtensor skips their take.
    @pytest.mark.parametrize("full", [
        ("conditions",), ("times",), ("conditions", "times"),
        ("genes", "conditions", "times"),
    ])
    @pytest.mark.parametrize("full_width", [2, 4])
    def test_full_axes_leave_values_untouched(self, rng, full, full_width):
        # _residual works in place in the block; the block must never be
        # (a view of) the caller's tensor.
        names = ("genes", "conditions", "times")
        shape = tuple(full_width if n in full else 5 for n in names)
        values = rng.random(shape)
        before = values.copy()
        coords = TriclusterCoords(*(
            range(width) if n in full else (0, 2, 4) for n, width in zip(names, shape)
        ))
        block = _subtensor(values, coords)
        assert block.flags.c_contiguous
        assert not np.shares_memory(block, values)
        for mode in MODES:
            fitness(values, coords, QualityWeights(), mode=mode)
            lsl(values, coords, mode)
        msr3d(values, coords)
        kernel_residuals(values, coords)
        assert values.tobytes() == before.tobytes()


class TestMsr3d:
    def test_constant_zero(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert msr3d(np.full((3, 3, 3), 7.0), coords) == 0.0

    def test_additive_integer_pattern_zero(self):
        # x(g,c,t) = g + 2c + 3t on a full 3x3x3 grid
        values = additive_tensor(np.arange(3), 2.0 * np.arange(3), 3.0 * np.arange(3))
        coords = TriclusterCoords((0, 1, 2), (0, 1, 2), (0, 1, 2))
        assert msr3d(values, coords) <= 1e-9

    def test_frozen_value(self):
        assert msr3d(FROZEN_TENSOR, FROZEN_COORDS) == pytest.approx(
            FROZEN_MSR, abs=1e-12
        )

    def test_matches_naive_oracle(self, rng):
        values = rng.random((6, 5, 4))
        for _ in range(100):
            coords = random_coords(rng, (6, 5, 4))
            assert msr3d(values, coords) == pytest.approx(
                naive.msr3d_naive(values, coords), abs=1e-9
            )

    def test_out_of_bounds(self):
        coords = TriclusterCoords((0, 9), (0, 1), (0, 1))
        with pytest.raises(IndexError):
            msr3d(np.zeros((3, 3, 3)), coords)


class TestViewSlopes:
    def test_constant_all_zero_both_modes(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1, 2))
        values = np.full((4, 3, 4), 2.5)
        for axis in VIEW_NAMES:
            for mode in MODES:
                assert kernel_slopes(values, coords, mode)[axis] == pytest.approx(0.0)

    def test_linear_in_gene_position_gives_slope_two(self):
        # x(g,c,t) = 2 * gene position; every time-view line has slope 2.
        values = np.broadcast_to(
            2.0 * np.arange(5)[:, None, None], (5, 3, 4)
        ).copy()
        coords = TriclusterCoords((0, 1, 2, 3, 4), (0, 1, 2), (0, 1, 2, 3))
        slopes = kernel_slopes(values, coords, "ols")["time-view"]
        assert slopes == pytest.approx(2.0)

    def test_positions_not_raw_indices(self):
        # Slopes must not depend on which absolute rows were selected.
        rng = np.random.default_rng(5)
        block = rng.random((3, 2, 3))
        big = np.zeros((30, 20, 30))
        lo = TriclusterCoords((0, 1, 2), (0, 1), (0, 1, 2))
        hi = TriclusterCoords((10, 20, 25), (5, 15), (4, 9, 29))
        big[np.ix_(lo.genes, lo.conditions, lo.times)] = block
        big2 = np.zeros((30, 20, 30))
        big2[np.ix_(hi.genes, hi.conditions, hi.times)] = block
        a, b = kernel_slopes(big, lo, "ols"), kernel_slopes(big2, hi, "ols")
        for axis in VIEW_NAMES:
            assert a[axis] == pytest.approx(b[axis])

    def test_frozen_time_view(self):
        slopes = kernel_slopes(FROZEN_TENSOR, FROZEN_COORDS, "ols")["time-view"]
        assert slopes == pytest.approx(FROZEN_TIME_SLOPES_OLS, abs=1e-12)

    @pytest.mark.parametrize("axis", ["time-view", "condition-view", "gene-view"])
    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle(self, rng, axis, mode):
        values = rng.random((5, 4, 4))
        for _ in range(40):
            coords = random_coords(rng, (5, 4, 4))
            got = kernel_slopes(values, coords, mode)[axis]
            want = naive.view_slopes_naive(values, coords, axis, mode)
            assert got == pytest.approx(want, abs=1e-9)

    def test_modes_differ_by_replication_factor(self, rng):
        values = rng.random((5, 4, 4))
        coords = random_coords(rng, (5, 4, 4))
        literal = kernel_slopes(values, coords, "paper-literal")["time-view"]
        exact = kernel_slopes(values, coords, "ols")["time-view"]
        for lit, ex in zip(literal, exact):
            assert lit == pytest.approx(ex * coords.n_conditions, rel=1e-9)

    def test_size_precondition(self):
        # One selected gene leaves the time and condition views one x
        # position, one selected time the gene view; lsl refuses both.
        values = np.zeros((4, 4, 4))
        thin_genes = TriclusterCoords((0,), (0, 1), (0, 1))
        with pytest.raises(SizePreconditionError):
            lsl(values, thin_genes)
        thin_times = TriclusterCoords((0, 1), (0, 1), (2,))
        with pytest.raises(SizePreconditionError):
            lsl(values, thin_times)

    def test_centred_positions_and_closed_form_sum_of_squares(self):
        # _centred builds the centred x positions with one arange and takes
        # xc @ xc from its closed form; both must equal the direct forms
        # bit for bit at every line length.
        for n in range(2, 5001):
            xc, squares = quality._centred(n)
            assert xc.tobytes() == (np.arange(n) - (n - 1) / 2).tobytes(), n
            assert squares == float(xc @ xc), n

    def test_unknown_axis_and_mode(self):
        # The view names live only in the oracle, which must refuse a name it
        # does not know rather than fit some other view; lsl and the oracle
        # both refuse an unknown slope mode.
        values = np.zeros((3, 3, 3))
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        with pytest.raises(ValueError, match="unknown view"):
            naive.view_slopes_naive(values, coords, "diagonal-view", "ols")
        with pytest.raises(ValueError, match="unknown slope mode"):
            naive.view_slopes_naive(values, coords, "time-view", "wls")
        with pytest.raises(ValueError, match="unknown slope mode"):
            lsl(values, coords, "wls")


class TestLsl:
    def test_constant_zero(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert lsl(np.full((3, 3, 3), 1.0), coords) == 0.0

    def test_parallel_pattern_zero_in_ols(self):
        values = np.broadcast_to(2.0 * np.arange(6)[:, None, None], (6, 4, 5)).copy()
        coords = TriclusterCoords(tuple(range(6)), (0, 2, 3), (0, 1, 4))
        assert lsl(values, coords, "ols") == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        assert lsl(FROZEN_TENSOR, FROZEN_COORDS, "ols") == pytest.approx(
            FROZEN_LSL_OLS, abs=1e-12
        )
        assert lsl(FROZEN_TENSOR, FROZEN_COORDS, "paper-literal") == pytest.approx(
            FROZEN_LSL_LITERAL, abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle(self, rng, mode):
        values = rng.random((6, 5, 4))
        for _ in range(100):
            coords = random_coords(rng, (6, 5, 4))
            assert lsl(values, coords, mode) == pytest.approx(
                naive.lsl_naive(values, coords, mode), abs=1e-9
            )

    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle_at_large_offset(self, rng, mode):
        values = rng.random((6, 5, 4)) + 1e6
        for _ in range(300):
            coords = random_coords(rng, (6, 5, 4))
            assert lsl(values, coords, mode) == pytest.approx(
                naive.lsl_naive(values, coords, mode), abs=1e-9
            )

    def test_size_precondition(self):
        coords = TriclusterCoords((0, 1), (0,), (0, 1))
        with pytest.raises(SizePreconditionError):
            lsl(np.zeros((3, 3, 3)), coords)


@st.composite
def ill_conditioned(draw):
    """A random tensor, an input class and coords selecting 2 or more indices
    per axis; axes may be only 2 wide."""
    shape = tuple(draw(st.integers(2, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random(shape)
    kind = draw(st.sampled_from(
        ["plain", "uniform", "gene", "condition", "time", "near-constant"]
    ))
    if kind == "uniform":
        values = u + draw(st.floats(-1e6, 1e6))
    elif kind == "near-constant":
        values = 3.3 + 1e-7 * u
    elif kind != "plain":
        axis = ("gene", "condition", "time").index(kind)
        offsets = rng.uniform(-1e6, 1e6, shape[axis])
        values = u + np.expand_dims(offsets, [a for a in range(3) if a != axis])
    else:
        values = u
    picks = [
        tuple(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n)))
        for n in shape
    ]
    return kind, values, TriclusterCoords(*picks)


def exact_residuals(values, coords) -> np.ndarray:
    """Every cell's residue in exact arithmetic over the block's values,
    rounded once."""
    x = np.frompyfunc(Fraction, 1, 1)(
        values[np.ix_(coords.genes, coords.conditions, coords.times)]
    )
    n_g, n_c, n_t = x.shape
    m_gc, m_gt, m_ct = x.sum(2) / n_t, x.sum(1) / n_c, x.sum(0) / n_g
    m_g = x.sum((1, 2)) / (n_c * n_t)
    m_c = x.sum((0, 2)) / (n_g * n_t)
    m_t = x.sum((0, 1)) / (n_g * n_c)
    r = (
        x - m_gc[:, :, None] - m_gt[:, None, :] - m_ct
        + m_g[:, None, None] + m_c[:, None] + m_t - x.sum() / x.size
    )
    return r.astype(np.float64)


# The axis each view's lines are replicated over.  A paper-literal slope is
# the OLS slope times that axis's length, and so is its rounding.
REPLICATION = {
    "time-view": "n_conditions", "condition-view": "n_times", "gene-view": "n_genes",
}


def tolerance(coords, mode, views=VIEW_NAMES) -> float:
    """1e-9 in OLS slope units."""
    if mode == "ols":
        return 1e-9
    return 1e-9 * max(getattr(coords, REPLICATION[v]) for v in views)


class TestOracleFuzz:
    """The one-gather kernel against naive.py on ill-conditioned inputs.

    At offsets of 1e6 the oracle's own rounding reaches 1e-9 in the
    eight-term residue.  There the kernel is held to exact arithmetic over
    the same points instead, a stricter reference.  The oracle's
    paper-literal slopes are exact already, rounded once.
    """

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned())
    def test_msr3d_and_lsl(self, case):
        _, values, coords = case
        assert msr3d(values, coords) == pytest.approx(
            naive.msr3d_naive(values, coords), abs=1e-9
        )
        for mode in MODES:
            got = lsl(values, coords, mode)
            want = naive.lsl_naive(values, coords, mode)
            assert got == pytest.approx(want, abs=tolerance(coords, mode)), mode

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned())
    def test_view_slopes(self, case):
        # Per-axis offsets make slopes as large as the offsets, so slopes
        # are compared relative to the largest one when that exceeds 1.
        _, values, coords = case
        for mode in MODES:
            slopes = kernel_slopes(values, coords, mode)
            for axis in VIEW_NAMES:
                got = slopes[axis]
                want = naive.view_slopes_naive(values, coords, axis, mode)
                tol = tolerance(coords, mode, [axis]) * max(1.0, *map(abs, want))
                assert got == pytest.approx(want, abs=tol), (mode, axis)

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned())
    def test_residual(self, case):
        kind, values, coords = case
        if kind in ("plain", "near-constant"):
            want = naive_residuals(values, coords)
        else:
            want = exact_residuals(values, coords)
        assert kernel_residuals(values, coords) == pytest.approx(want, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-3, 3).map(float),
        min_size=2, max_size=12,
    ))
    def test_sorted_mean_pairwise_distance(self, slopes):
        want = naive._mean_pairwise(slopes)
        got = _mean_pairwise_distance(np.array(slopes))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_fitness_gathers_once(self, rng, monkeypatch):
        calls = []

        def counting(values, coords):
            calls.append(coords)
            return _subtensor(values, coords)

        monkeypatch.setattr(quality, "_subtensor", counting)
        values = rng.random((6, 5, 4))
        for mode in MODES:
            calls.clear()
            coords = random_coords(rng, (6, 5, 4))
            b = fitness(values, coords, QualityWeights(), mode=mode)
            assert calls == [coords]
            assert b.msr == msr3d(values, coords)
            assert b.lsl == lsl(values, coords, mode)


class TestScalingAndShift:
    def test_msr_scales_quadratically_lsl_linearly(self, rng):
        for _ in range(20):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            k = float(rng.uniform(-3.0, 3.0))
            if abs(k) < 1e-3:
                k = 1.7
            assert msr3d(k * values, coords) == pytest.approx(
                k * k * msr3d(values, coords), rel=1e-9
            )
            for mode in ("ols", "paper-literal"):
                assert lsl(k * values, coords, mode) == pytest.approx(
                    abs(k) * lsl(values, coords, mode), rel=1e-9
                )

    def test_shift_invariance(self, rng):
        for _ in range(20):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            s = float(rng.uniform(-10.0, 10.0))
            assert msr3d(values + s, coords) == pytest.approx(
                msr3d(values, coords), rel=1e-9, abs=1e-12
            )
            assert lsl(values + s, coords) == pytest.approx(
                lsl(values, coords), rel=1e-9, abs=1e-12
            )


class TestWeightsTerm:
    def test_basic_arithmetic(self):
        coords = TriclusterCoords(tuple(range(5)), (0, 1), (0, 1, 2))
        w = QualityWeights()
        assert weights_term(coords, w) == pytest.approx(1.0)

    def test_zero_weights(self):
        coords = TriclusterCoords(tuple(range(5)), (0, 1), (0, 1, 2))
        w = QualityWeights(w_g=0, w_c=0, w_t=0)
        assert weights_term(coords, w) == 0.0

    def test_inversion_consistency(self):
        # A reported weights value of 7.7 under 0.1 per-axis weights implies
        # 77 selected indices in total.
        assert 7.7 / 0.1 == pytest.approx(77)
        coords = TriclusterCoords(tuple(range(70)), tuple(range(4)), (0, 1, 2))
        assert weights_term(coords, QualityWeights()) == pytest.approx(7.7)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            QualityWeights(w_g=-0.1)


class TestDistinctionTerm:
    def test_empty_archive_full_novelty(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        w = QualityWeights()
        assert distinction_term(coords, None, w) == pytest.approx(0.3)
        assert distinction_term(coords, Archive(), w) == pytest.approx(0.3)

    def test_self_in_archive_zero(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        archive = Archive()
        archive.add(coords, FitnessBreakdown.compose(0, 0, 0, 0))
        assert distinction_term(coords, archive, QualityWeights()) == 0.0

    def test_partial_overlap(self):
        # 3 of 6 genes, 1 of 2 conditions, 2 of 4 times unseen, wd all 0.1.
        candidate = TriclusterCoords(tuple(range(6)), (0, 1), (0, 1, 2, 3))
        archived = TriclusterCoords((0, 1, 2), (0,), (0, 1))
        archive = Archive()
        archive.add(archived, FitnessBreakdown.compose(0, 0, 0, 0))
        got = distinction_term(candidate, archive, QualityWeights())
        assert got == pytest.approx(0.15)

    def test_monotone_under_archive_growth(self, rng):
        w = QualityWeights()
        candidate = random_coords(rng, (10, 6, 6))
        archive = Archive()
        prev = distinction_term(candidate, archive, w)
        for _ in range(8):
            archive.add(random_coords(rng, (10, 6, 6)), FitnessBreakdown.compose(0, 0, 0, 0))
            cur = distinction_term(candidate, archive, w)
            assert cur <= prev + 1e-15
            prev = cur


class TestFitness:
    def test_constant_subtensor_forced_components(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        b = fitness(np.full((4, 4, 4), 3.0), coords, QualityWeights())
        assert b.msr == 0.0
        assert b.lsl == 0.0
        assert b.weights == pytest.approx(0.7)
        assert b.distinction == pytest.approx(0.3)
        assert b.f == pytest.approx(-1.0)
        assert b.f < 0

    def test_breakdown_identity_bit_for_bit(self, rng):
        values = rng.random((6, 5, 4))
        for _ in range(50):
            coords = random_coords(rng, (6, 5, 4))
            b = fitness(values, coords, QualityWeights())
            assert b.f == b.msr + b.lsl - b.weights - b.distinction

    @pytest.mark.parametrize(
        "msr_v,lsl_v,w_v,d_v,f_v",
        [
            (417.64, 12.59, 0.8, 0.0280, 429.41),
            (6228.04, 19.74, 1.0, 0.0505, 6246.74),
        ],
    )
    def test_reference_breakdown_rows(self, msr_v, lsl_v, w_v, d_v, f_v):
        b = FitnessBreakdown.compose(msr_v, lsl_v, w_v, d_v)
        assert abs(b.f - f_v) <= 0.05

    def test_roundtrips_through_dict(self):
        b = FitnessBreakdown.compose(1.5, 0.25, 0.6, 0.05)
        assert FitnessBreakdown(**b.to_dict()) == b

    # Shapes with a 2-wide axis, the narrowest a candidate can hold.
    @pytest.mark.parametrize("shape", [(2, 5, 7), (9, 2, 6), (8, 4, 2), (30, 2, 14)])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_msr_keeps_the_block_sums_lsl_reads(self, shape, offset):
        # _residual folds the pairwise means in place; it must fold them in
        # fresh arrays, never in the block's sums, which lsl reads after
        # msr3d.  So fitness matches both scored on their own fresh gathers.
        rng = np.random.default_rng(29)
        values = rng.random(tuple(n + 3 for n in shape)) + offset
        for mode in MODES:
            for _ in range(10):
                coords = TriclusterCoords(*(
                    rng.choice(n + 3, size=n, replace=False) for n in shape
                ))
                block = _block(values, coords)
                sums = [a.tobytes() for a in block[1:]]
                msr3d(block)
                assert [a.tobytes() for a in block[1:]] == sums
                b = fitness(values, coords, QualityWeights(), mode=mode)
                assert b.msr == msr3d(values, coords)
                assert b.lsl == lsl(values, coords, mode)


class TestEinsumEntry:
    """``quality`` calls numpy's einsum C entry itself.  ``np.einsum``
    without an optimize path returns the same call, so every subscript
    ``quality`` passes must give the same bytes through either."""

    # Each subscript with operand shapes holding a 2-wide axis, as a
    # candidate's block can; "lx,x->l" reads a transposed (x, l) sum, as
    # ``_view_slopes`` passes the gene-time and gene-condition sums.
    BLOCK_SHAPES = ((2, 5, 7), (9, 2, 6), (8, 4, 2), (30, 2, 14))
    CASES = {
        "gct->gc": BLOCK_SHAPES,
        "gct->gt": BLOCK_SHAPES,
        "gct->ct": BLOCK_SHAPES,
        "gc->g": ((2, 4), (30, 2), (9, 7)),
        "gct,gct->": BLOCK_SHAPES,
        "lx,x->l": ((2, 14), (30, 2), (9, 7)),
        "k,k->": ((2,), (14,), (200,)),
    }

    @staticmethod
    def operands(subscripts, shape, offset, rng):
        if subscripts == "lx,x->l":
            ys = (rng.random(shape[::-1]) + offset).T
            assert not ys.flags.c_contiguous
            n = shape[1]
            return ys, np.arange(-(n - 1) / 2, n / 2)
        if subscripts == "k,k->":
            n = shape[0]
            return np.arange(1 - n, n, 2.0), rng.random(n) + offset
        x = rng.random(shape) + offset
        return (x, x) if "," in subscripts else (x,)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("subscripts", list(CASES))
    def test_bytes_match_np_einsum(self, subscripts, offset):
        rng = np.random.default_rng(28)
        for shape in self.CASES[subscripts]:
            for _ in range(5):
                ops = self.operands(subscripts, shape, offset, rng)
                got = np.asarray(quality._c_einsum(subscripts, *ops))
                want = np.asarray(np.einsum(subscripts, *ops))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (subscripts, shape)

    def test_import_warns_nothing(self):
        # numpy 2 warns on any import of numpy.core, so on numpy 2 the
        # numpy._core path must be the one taken.
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import trievolve.quality"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
