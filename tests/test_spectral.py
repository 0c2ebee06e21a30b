import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
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

from oracles import (
    b0_pairings_loop,
    coefficient_rows_loop,
    resolvent_apply,
    semigroup_apply,
    synthesize_rows_loop,
)

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
        np.testing.assert_allclose(op.entries @ one.values, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [16, 128])
    def test_diffusion_row_sums_vanish(self, n):
        d2 = ak.fourier_second_derivative(n)
        assert np.abs(d2.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("n", [8, 128, 512])
    def test_second_derivative_is_the_toeplitz_of_its_column(self, n):
        # the strided construction against gathering the column at |i - k|
        d2 = ak.fourier_second_derivative(n)
        i = np.arange(n)
        assert np.array_equal(d2, d2[0][np.abs(i[:, None] - i[None, :])])
        assert d2.flags.writeable and d2.flags.c_contiguous

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

    def test_repeated_lambda0_is_a_positivity_error_in_plain_floats(self):
        # a leading eigenvalue that is not simple leaves b0 undetermined: a
        # PositivityError, which the CLI reports as a one-line error
        grid = Grid(8)
        eigenvalues = np.array([2.5, 2.5, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0])
        vectors = np.eye(8) * np.sqrt(grid.n_points / TWO_PI)
        with pytest.raises(PositivityError, match=r"^leading eigenvalue is not simple: "
                                                  r"2\.5 vs 2\.5; a larger n_points or sigma "
                                                  r"separates lambda0 from lambda1$"):
            ak.spectral._checked_basis(grid, eigenvalues, vectors)

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
def profiled_params(draw, sizes=EVEN_N, max_amplitude=0.5, max_mode=4):
    """Cosine or custom-table technology on an even grid of ``sizes`` points,
    by default 16 to 256; the cosine's amplitude is at most ``max_amplitude``
    and its mode at most ``max_mode``."""
    grid = Grid(draw(sizes))
    if draw(st.booleans()):
        spec = ProfileSpec("cosine", {
            "mean": 1.0,
            "amplitude": draw(st.floats(0.0, max_amplitude)),
            "mode": draw(st.integers(1, max_mode)),
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


def assert_principal_pair_matches(op):
    """``principal_pair`` of ``op`` against the ``eigendecompose`` oracle.

    ||L||_1 = ||L||_inf, L being symmetric.  b0 is within the first-order
    bound eps ||L|| / gap of each other that both carry.  The residual is
    evaluated in extended precision, so it measures the pair and not its
    evaluation: it is lambda0's rounding error plus b0's own rounding floor,
    and over 3,000 generators of this family (n = 16 to 128) it reached
    2.5 eps ||L|| max|b0|, the same sum in float64 3.2.
    """
    basis = ak.eigendecompose(op)
    pair = ak.principal_pair(op)
    n = op.grid.n_points
    assert pair.vectors.shape == (n, 1)
    norm = np.abs(op.entries).sum(axis=0).max()
    scale = EPS * norm
    assert abs(pair.lambda0 - basis.lambda0) <= 8 * scale
    assert abs(pair.lambda1 - basis.lambda1) <= 8 * scale
    assert np.abs(pair.eigenvalues - basis.eigenvalues).max() <= n * scale
    b0 = pair.b0.values
    gap = basis.lambda0 - basis.lambda1
    assert np.abs(b0 - basis.b0.values).max() <= 16 * scale / gap * np.abs(b0).max()
    residual = op.entries.astype(np.longdouble) @ b0 - np.longdouble(pair.lambda0) * b0
    assert float(np.abs(residual).max()) <= 4 * scale * np.abs(b0).max()
    assert abs(inner_l2(pair.b0, pair.b0) - 1.0) <= 1e-12


class TestPrincipalPair:
    @settings(max_examples=60)
    @given(params=profiled_params(sizes=st.sampled_from([16, 32, 64, 128]),
                                  max_amplitude=0.9, max_mode=5))
    def test_matches_eigendecompose(self, params):
        assert_principal_pair_matches(ak.assemble_generator(params, params.grid))

    @pytest.mark.parametrize(
        "n, sigma, amplitude, mode",
        [(512, 0.1, 0.9, 1), (512, 0.1, 0.5, 3), (512, 1.0, 0.3, 5), (512, 4.0, 0.0, 1),
         # the solve at lambda0 = 1.0 itself meets an exactly zero pivot
         # (OpenBLAS 0.3.31, Haswell kernels)
         (16, 1.1782688211702437, 0.0, 1)],
    )
    def test_fixed_cases(self, n, sigma, amplitude, mode):
        grid = Grid(n)
        A = GridFunction.from_callable(grid, lambda t: 1.0 + amplitude * np.cos(mode * t))
        params = homogeneous_params(grid, sigma=sigma)
        params = ak.ModelParams(sigma=sigma, rho=1.0, gamma=0.5, q=0.0, A=A, eta=params.eta)
        assert_principal_pair_matches(ak.assemble_generator(params, grid))

    def test_singular_shift_moves_by_eps_norm(self, variable, monkeypatch):
        # an exactly zero pivot at lambda0: the step is taken once more from
        # lambda0 + eps ||L||_1 and still gives b0
        solve, matrices = np.linalg.solve, []

        def singular_once(a, b):
            matrices.append(a.copy())
            if len(matrices) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        assert_principal_pair_matches(variable.op)
        entries = variable.op.entries
        assert len(matrices) == 2
        # the diagonal moves by eps ||L||_1, to within its rounding
        moved = matrices[0] - matrices[1]
        ulp = np.spacing(np.abs(np.diag(entries)).max())
        assert np.count_nonzero(moved - np.diag(np.diag(moved))) == 0
        assert np.abs(np.diag(moved) - EPS * np.abs(entries).sum(axis=0).max()).max() <= ulp

    def test_homogeneous_b0_is_flat(self):
        grid = Grid(128)
        pair = ak.principal_pair(ak.assemble_generator(homogeneous_params(grid), grid))
        assert np.abs(pair.b0.values - 1.0 / np.sqrt(TWO_PI)).max() < 1e-12

    @pytest.mark.parametrize("decompose", [ak.eigendecompose, ak.principal_pair])
    def test_positivity_violation_detected(self, decompose):
        # -D2: its leading eigenvector is the alternating Nyquist mode
        grid = Grid(8)
        op = OperatorMatrix(-ak.fourier_second_derivative(8), grid)
        with pytest.raises(PositivityError):
            decompose(op)

    def test_coefficients_of_the_leading_vector(self, variable):
        pair = ak.principal_pair(variable.op)
        rows = np.stack([variable.K0.values, variable.params.eta.values])
        coefficients = pair.coefficient_rows(rows)
        assert coefficients.shape == (2, 1)
        expected = [inner_l2(GridFunction(variable.grid, row), pair.b0) for row in rows]
        np.testing.assert_allclose(coefficients[:, 0], expected, rtol=1e-14)

    @pytest.mark.parametrize("k", [0, 17])
    def test_basis_holds_one_to_n_vectors(self, k):
        grid = Grid(16)
        with pytest.raises(ValueError, match="shapes do not match"):
            ak.SpectralBasis(grid, np.arange(16.0)[::-1], np.ones((16, k)))


@st.composite
def even_params(draw):
    """A technology profile even about node 0, as the config builds it, on
    an even grid of 8 to 256 points, with sigma from 1e-2 to 10: a constant,
    a phase-0 cosine of mode 1 to 5 and amplitude below 0.99, or a table."""
    grid = Grid(draw(st.integers(4, 128).map(lambda half: 2 * half)))
    kind = draw(st.sampled_from(["constant", "cosine", "custom-table"]))
    if kind == "constant":
        spec = ProfileSpec(kind, {"value": draw(st.floats(0.1, 5.0))})
    elif kind == "cosine":
        spec = ProfileSpec(kind, {"mean": 1.0, "amplitude": draw(st.floats(0.0, 0.98)),
                                  "mode": draw(st.integers(1, 5))})
    else:
        half = draw(st.lists(st.floats(0.5, 1.5), min_size=grid.n_points // 2 + 1,
                             max_size=grid.n_points // 2 + 1))
        spec = ProfileSpec(kind, {"values": half + half[-2:0:-1]})
    return ak.ModelParams(
        sigma=draw(st.floats(1e-2, 10.0)), rho=1.0, gamma=0.5, q=0.0,
        A=spec.build(grid), eta=GridFunction.constant(grid, 1.0),
    )


def dense_oracle(op):
    """Descending eigenvalues and quadrature-scaled eigenvectors of the whole
    matrix, the dense path of ``eigendecompose`` before its checks of b0."""
    lam, vec = np.linalg.eigh(op.entries, UPLO="U")
    return lam[::-1], vec[:, ::-1] * np.sqrt(op.grid.n_points / TWO_PI)


def unchecked_eigendecompose(op, monkeypatch):
    """``eigendecompose``'s eigenvalues and vectors as handed to its checks of
    b0, which at a small sigma may refuse b0."""
    seen, checked_basis = [], ak.spectral._checked_basis

    def spy(grid, eigenvalues, vectors):
        seen.append((eigenvalues.copy(), vectors.copy()))
        return checked_basis(grid, eigenvalues, vectors)

    monkeypatch.setattr(ak.spectral, "_checked_basis", spy)
    try:
        ak.eigendecompose(op)
    except (PositivityError, RuntimeError):
        pass
    monkeypatch.undo()
    return seen[0]


def solver_shapes(op, monkeypatch):
    """The shapes of the matrices that ``eigendecompose`` hands to ``eigh``
    and ``principal_pair`` to ``eigvalsh``."""
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        def spy(a, *args, _solver=getattr(np.linalg, name), _shapes=shapes[name], **kwargs):
            _shapes.append(a.shape)
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    ak.eigendecompose(op)
    ak.principal_pair(op)
    monkeypatch.undo()
    return shapes


class TestReflectionBlocks:
    """A generator that commutes exactly with the reflection j -> -j mod n
    is solved as an even block of n/2 + 1 and an odd block of n/2 - 1."""

    @settings(max_examples=40)
    @given(params=even_params())
    def test_blocks_match_the_dense_oracle(self, params):
        op = ak.assemble_generator(params, params.grid)
        n, weight = params.grid.n_points, params.grid.weight
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert solver_shapes(op, monkeypatch)["eigh"] == [(n // 2 + 1,) * 2, (n // 2 - 1,) * 2]
            lam, vectors = unchecked_eigendecompose(op, monkeypatch)
        oracle_lam, oracle_vectors = dense_oracle(op)
        # both carry a rounding error of a few eps ||L||: over 400 random
        # generators of this family they differed by at most 7.3 eps ||L||
        bound = 16 * EPS * generator_norm(params)
        assert np.abs(lam - oracle_lam).max() <= bound
        # quadrature-orthonormal within its rounding, at most 0.6 n eps there
        assert np.abs(weight * vectors.T @ vectors - np.eye(n)).max() <= 4 * n * EPS
        # each cluster's projector within Davis-Kahan's ||E|| / separation of
        # the oracle's, for a perturbation E the size of the eigenvalue bound;
        # clusters split where neighbours lie 1e-6 ||L|| apart
        edges = np.flatnonzero(-np.diff(oracle_lam) >= 1e-6 * generator_norm(params)) + 1
        for cluster in np.split(np.arange(n), edges):
            rest = np.delete(oracle_lam, cluster)
            separation = np.abs(rest[:, None] - oracle_lam[cluster]).min() if len(rest) else np.inf
            defect = weight * np.abs(vectors[:, cluster] @ vectors[:, cluster].T
                                     - oracle_vectors[:, cluster] @ oracle_vectors[:, cluster].T)
            assert defect.max() <= bound / separation
        # where the dense b0 clears its rounding margin tenfold, both
        # decompositions keep it, and principal_pair matches eigendecompose
        b0 = oracle_vectors[:, 0] * np.sign(oracle_vectors[:, 0].sum())
        margin = 16 * EPS * np.abs(oracle_lam).max() / (oracle_lam[0] - oracle_lam[1])
        if b0.min() > 10 * margin * b0.max():
            assert_principal_pair_matches(op)

    @pytest.mark.parametrize("spec", [
        ProfileSpec("cosine", {"mean": 1.0, "amplitude": 0.5, "mode": 2, "phase": 0.3}),
        ProfileSpec("custom-table", {
            "values": (1.0 + 0.2 * np.random.default_rng(8).random(64)).tolist()}),
    ])
    def test_uneven_profile_takes_the_dense_path(self, spec, monkeypatch):
        grid = Grid(64)
        params = ak.ModelParams(sigma=0.7, rho=1.0, gamma=0.5, q=0.0, A=spec.build(grid),
                                eta=GridFunction.constant(grid, 1.0))
        op = ak.assemble_generator(params, grid)
        assert solver_shapes(op, monkeypatch) == {"eigh": [(64, 64)], "eigvalsh": [(64, 64)]}
        # the same eigenvalues and vectors as the dense path, bit for bit
        basis = ak.eigendecompose(op)
        lam, vectors = dense_oracle(op)
        vectors[:, 0] *= np.sign(vectors[:, 0].sum())
        assert np.array_equal(basis.eigenvalues, lam)
        assert np.array_equal(basis.vectors, vectors)

    @pytest.mark.parametrize("spec", [
        ProfileSpec("constant", {"value": 1.0}),
        ProfileSpec("cosine", {"mean": 1.0, "amplitude": 0.5, "mode": 2}),
    ])
    def test_even_profile_takes_the_blocks(self, spec, monkeypatch):
        grid = Grid(64)
        params = ak.ModelParams(sigma=0.7, rho=1.0, gamma=0.5, q=0.0, A=spec.build(grid),
                                eta=GridFunction.constant(grid, 1.0))
        shapes = solver_shapes(ak.assemble_generator(params, grid), monkeypatch)
        assert shapes == {"eigh": [(33, 33), (31, 31)], "eigvalsh": [(33, 33), (31, 31)]}

    @pytest.mark.parametrize("n", [8, 128, 512, 1024])
    def test_second_derivative_is_exactly_mirror_symmetric(self, n):
        d2 = ak.fourier_second_derivative(n)
        mirror = -np.arange(n) % n
        assert np.array_equal(d2, d2[mirror][:, mirror])

    def test_phase_zero_cosine_profiles_are_exactly_even(self):
        for n in range(8, 1025, 2):
            grid = Grid(n)
            for mode in range(1, 8):
                values = ProfileSpec("cosine", {"mean": 1.0, "amplitude": 0.5,
                                                "mode": mode}).build(grid).values
                assert np.array_equal(values[1:], values[:0:-1]), (n, mode)


class TestResolvent:
    def test_eigenvector_identity(self, variable):
        # with mu = lambda0 - 1 the resolvent leaves b0 unchanged
        basis = variable.basis
        mu = basis.lambda0 - 1.0
        out = resolvent_apply(basis, mu, basis.b0, min_gap=1e-9)
        np.testing.assert_allclose(out.values, basis.b0.values, atol=1e-10)

    def test_inverse_property(self, variable):
        basis, op = variable.basis, variable.op
        rng = np.random.default_rng(5)
        x = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        mu = 0.31
        r = resolvent_apply(basis, mu, x, min_gap=1e-9)
        back = op.entries @ r.values - mu * r.values
        np.testing.assert_allclose(back, x.values, atol=1e-8)

    def test_pole_collision(self, window):
        basis = window.basis
        with pytest.raises(SpectrumCollisionError):
            resolvent_apply(basis, basis.lambda1, basis.b0, min_gap=1e-9)


class TestSemigroup:
    def test_identity_at_zero(self, variable):
        basis = variable.basis
        x = GridFunction.from_callable(basis.grid, lambda t: 1 + 0.2 * np.sin(t))
        np.testing.assert_allclose(
            semigroup_apply(basis, 0.0, x).values, x.values, atol=1e-12
        )

    def test_eigenvector_flow(self, window):
        basis = window.basis
        t = 0.7
        out = semigroup_apply(basis, t, basis.b0)
        np.testing.assert_allclose(
            out.values, np.exp(basis.lambda0 * t) * basis.b0.values, rtol=1e-10
        )

    def test_preserves_strict_positivity(self, window):
        basis = window.basis
        rng = np.random.default_rng(11)
        x = GridFunction(basis.grid, 0.5 + rng.random(basis.grid.n_points))
        out = semigroup_apply(basis, 0.5, x)
        assert out.values.min() > 0

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_preserves_nonnegativity(self, variable, t):
        # nonnegative data may touch zero; the flow stays above -1e-10
        x = GridFunction.from_callable(variable.grid, lambda s: 1.0 + np.cos(s))
        out = semigroup_apply(variable.basis, t, x)
        assert out.values.min() > -1e-10

    def test_semigroup_property(self, variable):
        basis = variable.basis
        x = GridFunction.from_callable(basis.grid, lambda t: 1 + 0.3 * np.cos(2 * t))
        t, s = 0.4, 0.9
        once = semigroup_apply(basis, t + s, x)
        twice = semigroup_apply(basis, t, semigroup_apply(basis, s, x))
        scale = np.abs(once.values).max()
        assert np.abs(once.values - twice.values).max() < 1e-8 * scale

    def test_negative_time_rejected(self, window):
        with pytest.raises(ValueError):
            semigroup_apply(window.basis, -0.1, window.basis.b0)

    def test_self_adjointness(self, variable):
        basis, op = variable.basis, variable.op
        rng = np.random.default_rng(3)
        x = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        y = GridFunction(basis.grid, rng.standard_normal(basis.grid.n_points))
        lhs = inner_l2(GridFunction(basis.grid, op.entries @ x.values), y)
        rhs = inner_l2(x, GridFunction(basis.grid, op.entries @ y.values))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestStackedProducts:
    """The basis products of many rows are stacked matrix-vector (or dot)
    products, one per row, so each row rounds exactly as the per-row loop
    does; one matrix-matrix product over all rows need not."""

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(8, 256), m=st.integers(1, 64), full=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(half=64, m=8, full=True, seed=0)
    @example(half=64, m=48, full=True, seed=1)
    @example(half=256, m=1, full=True, seed=2)
    @example(half=8, m=3, full=False, seed=3)
    def test_rows_match_the_per_row_loop(self, half, m, full, seed):
        # n from 16 to 512; a basis of all n vectors or of b0 alone
        n = 2 * half
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, n if full else 1))
        basis = ak.SpectralBasis(Grid(n), np.sort(rng.standard_normal(n))[::-1], vectors)
        rows = rng.standard_normal((m, n))
        coefficients = rng.standard_normal((m, vectors.shape[1]))
        assert np.array_equal(basis.coefficient_rows(rows), coefficient_rows_loop(basis, rows))
        assert np.array_equal(basis.synthesize_rows(coefficients),
                              synthesize_rows_loop(basis, coefficients))
        assert np.array_equal(basis.b0_pairings(rows), b0_pairings_loop(basis, rows))
