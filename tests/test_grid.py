import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from akgrowth import (
    Grid,
    GridFunction,
    GridMismatchError,
    inner_l2,
    is_strictly_positive,
    sup_norm,
)

TWO_PI = 2.0 * np.pi


def gf(grid, fn):
    return GridFunction.from_callable(grid, fn)


class TestGrid:
    def test_nodes_increasing_in_range(self):
        grid = Grid(16)
        assert grid.nodes[0] == 0.0
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[-1] < TWO_PI
        assert grid.weight == pytest.approx(TWO_PI / 16)

    @pytest.mark.parametrize("n", [7, 6, 9, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    def test_structural_equality(self):
        assert Grid(16) == Grid(16)
        assert Grid(16) != Grid(32)


class TestGridFunction:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GridFunction(Grid(16), np.zeros(8))

    def test_non_finite_rejected(self):
        values = np.ones(16)
        values[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(Grid(16), values)

    def test_values_frozen(self):
        f = GridFunction.constant(Grid(16), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_arithmetic(self):
        grid = Grid(16)
        f = gf(grid, np.sin)
        g = gf(grid, np.cos)
        np.testing.assert_allclose((f + g).values, f.values + g.values)
        np.testing.assert_allclose((2.0 * f - g).values, 2 * f.values - g.values)
        np.testing.assert_allclose((1.0 + f).values, 1.0 + f.values)
        np.testing.assert_allclose((1.0 + g * g).values, 1 + g.values**2)

    def test_arithmetic_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            GridFunction.constant(Grid(16), 1.0) + GridFunction.constant(Grid(32), 1.0)


class TestInnerProduct:
    def test_constant_one(self):
        grid = Grid(16)
        one = GridFunction.constant(grid, 1.0)
        assert inner_l2(one, one) == pytest.approx(TWO_PI, rel=1e-14)

    def test_sin_cos_orthogonal(self):
        grid = Grid(16)
        assert inner_l2(gf(grid, np.sin), gf(grid, np.cos)) == pytest.approx(0.0, abs=1e-13)

    def test_normalized_constant(self):
        # the normalized positive eigenfunction of the homogeneous generator
        grid = Grid(16)
        b0 = GridFunction.constant(grid, 1.0 / np.sqrt(TWO_PI))
        assert inner_l2(b0, b0) == pytest.approx(1.0, rel=1e-14)

    def test_mismatched_grids(self):
        with pytest.raises(GridMismatchError):
            inner_l2(GridFunction.constant(Grid(16), 1.0), GridFunction.constant(Grid(32), 1.0))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_trig_quadrature_exact_below_nyquist(self, k):
        # cos(k.)^2 integrates to pi for any resolved mode (degree 2k < n)
        grid = Grid(16)
        ck = gf(grid, lambda t: np.cos(k * t))
        assert inner_l2(ck, ck) == pytest.approx(np.pi, rel=1e-12)
        sk = gf(grid, lambda t: np.sin(k * t))
        assert inner_l2(ck, sk) == pytest.approx(0.0, abs=1e-12)

    def test_integral(self):
        # the integral is the pairing with the constant 1
        grid = Grid(64)
        f = gf(grid, lambda t: 1.0 + 0.3 * np.cos(2 * t))
        assert inner_l2(f, GridFunction.constant(grid, 1.0)) == pytest.approx(TWO_PI, rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        f=arrays(np.float64, 16, elements=st.floats(-100, 100)),
        g=arrays(np.float64, 16, elements=st.floats(-100, 100)),
        h=arrays(np.float64, 16, elements=st.floats(-100, 100)),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    def test_symmetric_bilinear(self, f, g, h, a, b):
        grid = Grid(16)
        F, G, H = (GridFunction(grid, v) for v in (f, g, h))
        assert inner_l2(F, G) == pytest.approx(inner_l2(G, F), rel=1e-12, abs=1e-12)
        lhs = inner_l2(a * F + b * G, H)
        rhs = a * inner_l2(F, H) + b * inner_l2(G, H)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(f=arrays(np.float64, 16, elements=st.floats(-100, 100)))
    def test_positive_definite(self, f):
        grid = Grid(16)
        F = GridFunction(grid, f)
        norm = inner_l2(F, F)
        assert norm >= 0.0
        if norm == 0.0:
            # zero quadratic form means f is zero at working precision
            # (entries below sqrt of the smallest normal square to 0)
            assert np.abs(F.values).max() < 1e-150


class TestSupNorm:
    def test_constant_negative(self):
        assert sup_norm(GridFunction.constant(Grid(16), -3.0)) == 3.0

    def test_sine_peak(self):
        assert sup_norm(gf(Grid(64), np.sin)) == pytest.approx(1.0, abs=1e-3)

    def test_zero(self):
        assert sup_norm(GridFunction.constant(Grid(16), 0.0)) == 0.0


class TestStrictPositivity:
    def test_positive_constant(self):
        assert is_strictly_positive(GridFunction.constant(Grid(16), 0.1))

    def test_sign_change(self):
        assert not is_strictly_positive(gf(Grid(16), np.sin))

    def test_zero_not_strict(self):
        assert not is_strictly_positive(GridFunction.constant(Grid(16), 0.0))
