import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import akgrowth as ak
from akgrowth import (
    Grid,
    GridFunction,
    GridMismatchError,
    OperatorMatrix,
    PositivityError,
    SpectrumCollisionError,
    inner_l2,
)
from akgrowth.config import ProfileSpec

TWO_PI = 2.0 * np.pi

# leading eigenvalues of sigma=1, A(theta) = 1 + 0.5*cos(theta), frozen from an
# independent Fourier-Galerkin oracle (coefficient-space truncation at 256 modes)
GALERKIN_LAMBDA0 = 1.1137846510470
GALERKIN_LAMBDA1 = 0.0207438067371


def homogeneous_params(grid, sigma=1.0, A0=1.0, rho=0.75, gamma=0.5):
    one = GridFunction.constant(grid, 1.0)
    return ak.ModelParams(
        sigma=sigma, rho=rho, gamma=gamma, q=0.0,
        A=GridFunction.constant(grid, A0), eta=one,
    )


class TestModelParams:
    def test_rejects_gamma_one(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            homogeneous_params(grid, gamma=1.0)

    @pytest.mark.parametrize("field,value", [("sigma", 0.0), ("rho", -1.0), ("q", -0.1)])
    def test_rejects_bad_scalars(self, field, value):
        grid = Grid(16)
        kwargs = dict(sigma=1.0, rho=1.0, gamma=0.5, q=0.0)
        kwargs[field] = value
        one = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError):
            ak.ModelParams(A=one, eta=one, **kwargs)

    def test_rejects_nonpositive_profiles(self):
        grid = Grid(16)
        one = GridFunction.constant(grid, 1.0)
        signed = GridFunction.from_callable(grid, np.sin)
        with pytest.raises(ValueError):
            ak.ModelParams(sigma=1.0, rho=1.0, gamma=0.5, q=0.0, A=signed, eta=one)

    def test_rejects_profile_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            ak.ModelParams(
                sigma=1.0, rho=1.0, gamma=0.5, q=0.0,
                A=GridFunction.constant(Grid(16), 1.0),
                eta=GridFunction.constant(Grid(32), 1.0),
            )


class TestAssemble:
    def test_pure_diffusion_on_cosine(self):
        grid = Grid(64)
        # A is strictly positive by contract; emulate A == 0 with the raw matrix
        d2 = ak.fourier_second_derivative(64)
        cos = np.cos(grid.nodes)
        np.testing.assert_allclose(d2 @ cos, -cos, atol=1e-10)

    def test_constant_profile_on_constant(self):
        grid = Grid(64)
        op = ak.assemble_generator(homogeneous_params(grid), grid)
        one = GridFunction.constant(grid, 1.0)
        np.testing.assert_allclose(op.apply(one).values, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [16, 128])
    def test_diffusion_row_sums_vanish(self, n):
        d2 = ak.fourier_second_derivative(n)
        assert np.abs(d2.sum(axis=1)).max() < 1e-10

    def test_symmetry(self):
        grid = Grid(128)
        A = GridFunction.from_callable(grid, lambda t: 1 + 0.5 * np.cos(t))
        eta = GridFunction.constant(grid, 1.0)
        params = ak.ModelParams(sigma=0.7, rho=1.0, gamma=0.5, q=0.0, A=A, eta=eta)
        op = ak.assemble_generator(params, grid)
        assert np.array_equal(op.entries, op.entries.T)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            ak.assemble_generator(homogeneous_params(Grid(16)), Grid(32))


class TestEigendecompose:
    def test_homogeneous_closed_form(self):
        grid = Grid(128)
        A0, sigma = 1.3, 0.7
        basis = ak.eigendecompose(
            ak.assemble_generator(homogeneous_params(grid, sigma=sigma, A0=A0), grid)
        )
        assert basis.lambda0 == pytest.approx(A0, abs=1e-9)
        assert basis.eigenvalues[1] == pytest.approx(A0 - sigma, abs=1e-9)
        assert basis.eigenvalues[2] == pytest.approx(A0 - sigma, abs=1e-9)
        assert np.abs(basis.b0.values - 1.0 / np.sqrt(TWO_PI)).max() < 1e-9

    def test_homogeneous_mode_pairs(self, window):
        # pairs A0 - sigma*k^2 below the Nyquist mode
        lam = window.basis.eigenvalues
        for k in range(1, 6):
            expected = 1.0 - float(k**2)
            assert lam[2 * k - 1] == pytest.approx(expected, abs=1e-9)
            assert lam[2 * k] == pytest.approx(expected, abs=1e-9)

    def test_variable_profile_against_galerkin_oracle(self, variable):
        assert variable.basis.lambda0 == pytest.approx(GALERKIN_LAMBDA0, abs=1e-8)
        assert variable.basis.lambda1 == pytest.approx(GALERKIN_LAMBDA1, abs=1e-8)
        assert variable.basis.lambda0 - variable.basis.lambda1 > 1e-3
        assert variable.basis.b0.values.min() > 0

    def test_variable_profile_resolution_stability(self, variable):
        grid = Grid(256)
        A = GridFunction.from_callable(grid, lambda t: 1 + 0.5 * np.cos(t))
        eta = GridFunction.from_callable(grid, lambda t: 1 + 0.3 * np.sin(2 * t))
        params = ak.ModelParams(sigma=1.0, rho=0.8, gamma=0.5, q=0.5, A=A, eta=eta)
        fine = ak.eigendecompose(ak.assemble_generator(params, grid))
        assert abs(fine.lambda0 - variable.basis.lambda0) < 1e-8

    def test_orthonormality(self, variable):
        basis = variable.basis
        weight = basis.grid.weight
        gram = weight * basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(basis.grid.n_points)).max() < 1e-8

    def test_b0_normalized(self, window):
        assert abs(inner_l2(window.basis.b0, window.basis.b0) - 1.0) < 1e-10

    def test_positivity_violation_detected(self):
        # symmetric matrix whose leading eigenvector has zero entries
        grid = Grid(8)
        op = OperatorMatrix(np.diag(np.arange(8.0)), grid)
        with pytest.raises(PositivityError):
            ak.eigendecompose(op)


def evr_basis(op):
    """Test oracle: ``eigendecompose`` on SciPy's MRRR driver (LAPACK syevr)."""
    lam, vec = scipy.linalg.eigh(op.entries, driver="evr")
    vec = vec[:, ::-1] * np.sqrt(op.grid.n_points / TWO_PI)
    if vec[:, 0].sum() < 0:
        vec[:, 0] = -vec[:, 0]
    return ak.SpectralBasis(op.grid, lam[::-1], vec)


def generator_norm(params):
    """sigma (n/2)^2 + max|A|, a bound on ||sigma D2 + diag(A)||_2."""
    return params.sigma * (params.grid.n_points / 2) ** 2 + np.abs(params.A.values).max()


EPS = np.finfo(float).eps
EVEN_N = st.integers(8, 128).map(lambda half: 2 * half)


@st.composite
def profiled_params(draw):
    """Cosine or custom-table technology on an even grid of 16 to 256 points."""
    grid = Grid(draw(EVEN_N))
    if draw(st.booleans()):
        spec = ProfileSpec("cosine", {
            "mean": 1.0,
            "amplitude": draw(st.floats(0.0, 0.5)),
            "mode": draw(st.integers(1, 4)),
            "phase": draw(st.floats(0.0, TWO_PI)),
        })
    else:
        # a tabulated smooth profile: three random cosine modes
        amplitudes = draw(st.lists(st.floats(0.0, 0.15), min_size=3, max_size=3))
        phases = draw(st.lists(st.floats(0.0, TWO_PI), min_size=3, max_size=3))
        values = 1.0 + sum(
            a * np.cos((m + 1) * grid.nodes + phi)
            for m, (a, phi) in enumerate(zip(amplitudes, phases))
        )
        spec = ProfileSpec("custom-table", {"values": values.tolist()})
    eta = GridFunction.from_callable(grid, lambda t: 1.0 + 0.1 * np.sin(2 * t))
    return ak.ModelParams(
        sigma=draw(st.floats(0.1, 4.0)), rho=1.0, gamma=0.5, q=0.5,
        A=spec.build(grid), eta=eta,
    )


class TestEigendecomposeMatchesEvrOracle:
    @settings(max_examples=30)
    @given(params=profiled_params())
    def test_spectrum_b0_and_trajectory(self, params):
        op = ak.assemble_generator(params, params.grid)
        basis = ak.eigendecompose(op)
        oracle = evr_basis(op)
        scale = EPS * generator_norm(params)
        assert abs(basis.lambda0 - oracle.lambda0) <= 4 * scale
        # the rest of the spectrum within LAPACK's p(n) eps ||L|| bound, with
        # p(n) = n: on 300 random cases of this family the two drivers differed
        # there by up to 16 eps ||L||, never more than 0.6 n eps ||L||
        n = params.grid.n_points
        assert np.abs(basis.eigenvalues - oracle.eigenvalues).max() <= n * scale
        assert np.abs(basis.b0.values - oracle.b0.values).max() <= 1e-9
        K0 = GridFunction.from_callable(params.grid, lambda t: 1.0 + 0.4 * np.cos(t))
        paths = [
            ak.simulate(ak.build_closed_loop(b, ak.solve_hjb(b, params)), K0, 3.0, 12).states
            for b in (basis, oracle)
        ]
        assert np.abs(paths[0] - paths[1]).max() <= 1e-8 * np.abs(paths[1]).max()

    @settings(max_examples=30)
    @given(n=EVEN_N, sigma=st.floats(0.1, 4.0), A0=st.floats(0.1, 5.0))
    def test_homogeneous_lambda0_within_driver_bound(self, n, sigma, A0):
        grid = Grid(n)
        params = homogeneous_params(grid, sigma=sigma, A0=A0)
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        assert abs(basis.lambda0 - A0) <= 4 * EPS * generator_norm(params)


class TestResolvent:
    def test_eigenvector_identity(self, variable):
        # with mu = lambda0 - 1 the resolvent leaves b0 unchanged
        basis = variable.basis
        mu = basis.lambda0 - 1.0
        out = ak.resolvent_apply(basis, mu, basis.b0)
        np.testing.assert_allclose(out.values, basis.b0.values, atol=1e-10)

    def test_inverse_property(self, variable):
        basis, op = variable.basis, variable.op
        rng = np.random.default_rng(5)
        x = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        mu = 0.31
        r = ak.resolvent_apply(basis, mu, x)
        back = op.entries @ r.values - mu * r.values
        np.testing.assert_allclose(back, x.values, atol=1e-8)

    def test_pole_collision(self, window):
        basis = window.basis
        with pytest.raises(SpectrumCollisionError):
            ak.resolvent_apply(basis, basis.lambda1, basis.b0)


class TestSemigroup:
    def test_identity_at_zero(self, variable):
        basis = variable.basis
        x = GridFunction.from_callable(basis.grid, lambda t: 1 + 0.2 * np.sin(t))
        np.testing.assert_allclose(
            ak.semigroup_apply(basis, 0.0, x).values, x.values, atol=1e-12
        )

    def test_eigenvector_flow(self, window):
        basis = window.basis
        t = 0.7
        out = ak.semigroup_apply(basis, t, basis.b0)
        np.testing.assert_allclose(
            out.values, np.exp(basis.lambda0 * t) * basis.b0.values, rtol=1e-10
        )

    def test_preserves_strict_positivity(self, window):
        basis = window.basis
        rng = np.random.default_rng(11)
        x = GridFunction(basis.grid, 0.5 + rng.random(basis.grid.n_points))
        out = ak.semigroup_apply(basis, 0.5, x)
        assert out.values.min() > 0

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_preserves_nonnegativity(self, variable, t):
        # nonnegative data may touch zero; the flow stays above -1e-10
        x = GridFunction.from_callable(variable.grid, lambda s: 1.0 + np.cos(s))
        out = ak.semigroup_apply(variable.basis, t, x)
        assert out.values.min() > -1e-10

    def test_semigroup_property(self, variable):
        basis = variable.basis
        x = GridFunction.from_callable(basis.grid, lambda t: 1 + 0.3 * np.cos(2 * t))
        t, s = 0.4, 0.9
        once = ak.semigroup_apply(basis, t + s, x)
        twice = ak.semigroup_apply(basis, t, ak.semigroup_apply(basis, s, x))
        scale = np.abs(once.values).max()
        assert np.abs(once.values - twice.values).max() < 1e-8 * scale

    def test_negative_time_rejected(self, window):
        with pytest.raises(ValueError):
            ak.semigroup_apply(window.basis, -0.1, window.basis.b0)

    def test_self_adjointness(self, variable):
        basis, op = variable.basis, variable.op
        rng = np.random.default_rng(3)
        x = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        y = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        lhs = inner_l2(op.apply(x), y)
        rhs = inner_l2(x, op.apply(y))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
