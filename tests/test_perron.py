from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

import akgrowth as ak
from akgrowth import GeneratorMatrix, PerronViolationError, perron
from akgrowth.perron import (
    _left_eigen,
    _positive_columns,
    _positive_version,
    _screen,
    _strongly_connected,
    battery_failures,
    random_metzler_battery,
)

# Integer-pattern generators whose right eigenvector matrix V is
# ill-conditioned, from a defective non-dominant eigenvalue.  Rows of inv(V)
# carry ~eps * cond(V) of rounding, enough to make a real Perron vector look
# complex, so the screen must take their left vectors from eig(A.T).
ILL_CONDITIONED_6 = np.array([  # cond_F(V) ~ 1.3e8
    [-2, 1, 0, 0, 0, 1],
    [0, -2, 1, 0, 0, 1],
    [0, 1, -1, 1, 0, 1],
    [1, 1, 0, -2, 1, 1],
    [1, 0, 1, 0, 0, 1],
    [1, 0, 0, 0, 0, -2],
], dtype=float)
ILL_CONDITIONED_6B = np.array([  # cond_F(V) ~ 9e7, complex spectrum
    [0, 1, 0, 1, 1, 1],
    [0, -1, 1, 0, 1, 0],
    [1, 1, -2, 1, 0, 1],
    [1, 1, 1, -1, 1, 0],
    [1, 0, 1, 1, 0, 1],
    [1, 1, 1, 1, 1, 0],
], dtype=float)
# eig returns an exactly singular V here: inv(V) raises LinAlgError
SINGULAR_VECTORS_4 = np.array([
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [1, 0, 0, 1],
    [1, 1, 1, -1],
], dtype=float)


def cyclic_shift_generator(m):
    entries = -np.eye(m)
    entries[np.arange(m), (np.arange(m) + 1) % m] = 1.0
    return GeneratorMatrix(entries)


class TestIrreducibility:
    def test_cycle_is_irreducible(self):
        assert ak.is_irreducible(cyclic_shift_generator(5))

    def test_block_diagonal_is_reducible(self):
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        entries = np.block(
            [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]
        )
        assert not ak.is_irreducible(GeneratorMatrix(entries))

    def test_discretized_generator_is_irreducible(self, window):
        assert ak.is_irreducible(GeneratorMatrix(window.op.entries))


class TestStronglyConnected:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 16),
        count=st.integers(1, 5),
        density=st.floats(0.0, 1.0),
    )
    def test_matches_csgraph(self, seed, dim, count, density):
        # an independent reference: scipy's strongly connected components
        rng = np.random.default_rng(seed)
        stack = np.where(
            rng.random((count, dim, dim)) < density,
            rng.standard_normal((count, dim, dim)),
            0.0,
        )
        expected = [
            connected_components(m != 0.0, directed=True, connection="strong")[0] == 1
            for m in stack
        ]
        assert _strongly_connected(stack).tolist() == expected


class TestPerronData:
    def test_symmetric_doubly_stochastic(self):
        gen = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        data = ak.perron_data(gen)
        assert data.spectral_bound == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(data.right, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(data.left, [0.5, 0.5], atol=1e-12)

    def test_random_battery(self):
        rng = np.random.default_rng(314)
        for _ in range(25):
            dim = int(rng.integers(3, 13))
            gen = ak.random_irreducible_metzler(dim, rng)
            assert gen.is_metzler()
            assert ak.is_irreducible(gen)
            data = ak.perron_data(gen)
            assert data.right.min() > 1e-12
            assert data.left.min() > 1e-12
            assert data.left @ data.right == pytest.approx(1.0, rel=1e-12)
            assert data.gap > 1e-9

    def test_uniqueness_of_positive_eigenvector(self):
        rng = np.random.default_rng(2718)
        gen = ak.random_irreducible_metzler(10, rng)
        data = ak.perron_data(gen)
        for side in ("right", "left"):
            admitted = ak.eigenvalues_admitting_positive_eigenvector(gen, side)
            assert len(admitted) == 1
            assert admitted[0] == pytest.approx(data.spectral_bound, abs=1e-9)

    def test_discretized_generator_cross_check(self, window):
        # the collocation matrix is not entrywise Metzler, but the operator it
        # discretizes generates a positive semigroup; skip the sign-pattern gate
        gen = GeneratorMatrix(window.op.entries)
        assert not gen.is_metzler()
        data = ak.perron_data(gen, require_metzler=False)
        assert data.spectral_bound == pytest.approx(window.basis.lambda0, abs=1e-9)
        left_unit = data.left / np.linalg.norm(data.left)
        b0_unit = window.basis.b0.values / np.linalg.norm(window.basis.b0.values)
        assert np.abs(left_unit - b0_unit).max() < 1e-7

    def test_non_metzler_rejected(self):
        entries = np.array([[-1.0, -0.5], [1.0, -1.0]])
        with pytest.raises(PerronViolationError):
            ak.perron_data(GeneratorMatrix(entries))

    def test_unknown_side_rejected(self):
        gen = cyclic_shift_generator(4)
        with pytest.raises(ValueError, match="side"):
            ak.eigenvalues_admitting_positive_eigenvector(gen, side="lft")

    def test_complex_bound_text_is_plain(self):
        # a rotation generator: the bound +-i is not real
        rotation = GeneratorMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(PerronViolationError, match="is not real") as info:
            ak.perron_data(rotation, require_metzler=False)
        assert "np." not in str(info.value)

    def test_reducible_input_flagged(self):
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        entries = np.block(
            [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block - np.eye(2)]]
        )
        with pytest.raises(PerronViolationError):
            ak.perron_data(GeneratorMatrix(entries))


def reference_failure(gen):
    """The per-matrix battery check, written out with the public oracle functions."""
    try:
        if not ak.is_irreducible(gen):
            raise RuntimeError("random generator not irreducible")
        data = ak.perron_data(gen)
        for side in ("right", "left"):
            admitted = ak.eigenvalues_admitting_positive_eigenvector(gen, side)
            if any(abs(v - data.spectral_bound) > 1e-8 for v in admitted):
                raise RuntimeError(
                    f"non-dominant eigenvalue admits a positive {side} eigenvector"
                )
    except Exception as exc:  # noqa: BLE001 - mirrors the battery
        return str(exc)
    return None


def _block(size, rng, density):
    if size == 1:
        return np.array([[-rng.random()]])
    return ak.random_irreducible_metzler(size, rng, density).entries


FLOAT_KINDS = ("random", "reducible", "non_metzler", "cyclic")
BATTERY_KINDS = FLOAT_KINDS + ("integer",)


@st.composite
def battery_matrices(draw, kinds=BATTERY_KINDS):
    """Battery inputs: random, reducible, non-Metzler, cyclic-shift and
    integer-pattern generators."""
    kind = draw(st.sampled_from(kinds))
    dim = draw(st.integers(2, 12))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "reducible":
        split = draw(st.integers(1, dim - 1))
        entries = np.zeros((dim, dim))
        entries[:split, :split] = _block(split, rng, density)
        entries[split:, split:] = _block(dim - split, rng, density)
        if draw(st.booleans()):
            # one-way coupling: connected, still not strongly connected
            entries[:split, split:] = rng.random((split, dim - split))
        return GeneratorMatrix(entries)
    if kind == "cyclic":
        entries = -np.diag(rng.random(dim) + 0.5)
        entries[np.arange(dim), (np.arange(dim) + 1) % dim] = rng.random(dim) + 0.5
        return GeneratorMatrix(entries)
    if kind == "integer":
        # 0/1 off-diagonals with a cycle and a diagonal in {0, -1, -2}: often
        # a defective non-dominant eigenvalue and an ill-conditioned V
        entries = (rng.random((dim, dim)) < density).astype(float)
        entries[np.arange(dim), (np.arange(dim) + 1) % dim] = 1.0
        entries[np.diag_indices(dim)] = -rng.integers(0, 3, dim)
        return GeneratorMatrix(entries)
    entries = ak.random_irreducible_metzler(dim, rng, density).entries.copy()
    if kind == "non_metzler":
        row, col = rng.choice(dim, size=2, replace=False)
        # magnitudes straddle the Metzler slack of 1e-12
        entries[row, col] = -(10.0 ** draw(st.floats(-14.0, 0.0)))
    return GeneratorMatrix(entries)


def stacks_of(gens):
    """The (indices, stack) pairs of a list of matrices, one per dimension."""
    by_dim = defaultdict(list)
    for index, gen in enumerate(gens):
        by_dim[gen.dim].append(index)
    return [
        (np.array(indices), np.stack([gens[index].entries for index in indices]))
        for indices in by_dim.values()
    ]


def reference_failures(gens):
    """(index, dim, text) of every matrix the per-matrix battery check fails."""
    failures = []
    for index, gen in enumerate(gens):
        error = reference_failure(gen)
        if error is not None:
            failures.append((index, gen.dim, error))
    return failures


@pytest.fixture()
def eig_calls(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.eig``, in call order."""
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return calls


class TestBattery:
    @settings(max_examples=60)
    @given(gens=st.lists(battery_matrices(), min_size=1, max_size=24))
    @example(gens=[GeneratorMatrix(ILL_CONDITIONED_6)])
    @example(gens=[GeneratorMatrix(SINGULAR_VECTORS_4)])
    # a singular V sends its whole stack through eig(A.T)
    @example(gens=[GeneratorMatrix(SINGULAR_VECTORS_4), cyclic_shift_generator(4),
                   GeneratorMatrix(ILL_CONDITIONED_6B)])
    def test_matches_per_matrix_oracle(self, gens):
        expected = reference_failures(gens)
        assert battery_failures(stacks_of(gens)) == expected
        # a one-matrix stack gives the verdict of the many-matrix stack
        for index, gen in enumerate(gens):
            single = battery_failures([(np.array([index]), gen.entries[None])])
            assert single == [failure for failure in expected if failure[0] == index]

    @settings(max_examples=40)
    @given(
        # integer patterns give Perron vectors with exact ratios such as 1/2,
        # which a drawn positivity tolerance can equal; two solvers then
        # round to either side of it
        gens=st.lists(battery_matrices(FLOAT_KINDS), min_size=1, max_size=12),
        positivity=st.floats(1e-12, 0.9),
        simplicity=st.sampled_from([1e-9, 0.05, 0.5]),
    )
    def test_matches_oracle_under_tight_tolerances(self, gens, positivity, simplicity):
        # larger tolerances make the Perron-vector and simplicity checks fail,
        # which the random generators alone never do
        with mock.patch.multiple(perron, POSITIVITY_TOL=positivity, SIMPLICITY_TOL=simplicity):
            assert battery_failures(stacks_of(gens)) == reference_failures(gens)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 10), count=st.integers(1, 6))
    def test_positive_columns_match_oracle(self, seed, dim, count):
        # arbitrary real matrices: complex, real, mixed-sign and positive eigenvectors
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((count, dim, dim))
        stack[0] = np.abs(stack[0])
        _, vectors = np.linalg.eig(stack)
        expected = [
            [_positive_version(v[:, j]) is not None for j in range(dim)]
            for v in vectors
        ]
        assert _positive_columns(vectors).tolist() == expected

    def test_stack_that_does_not_converge_is_screened_per_matrix(self, monkeypatch):
        rng = np.random.default_rng(8)
        gens = [ak.random_irreducible_metzler(5, rng) for _ in range(4)]
        poisoned = gens[2].entries.copy()
        eig = np.linalg.eig

        def failing_eig(a):
            # stands in for a LAPACK failure on one matrix of the stack
            a = np.asarray(a)
            stack = a.reshape((-1,) + a.shape[-2:])
            if any(np.array_equal(m, poisoned) or np.array_equal(m, poisoned.T) for m in stack):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        assert battery_failures(stacks_of(gens)) == [(2, 5, "Eigenvalues did not converge")]

    def test_one_eigensolve_per_stack(self, eig_calls):
        stacks = list(random_metzler_battery(300, 12, np.random.default_rng(21)))
        assert battery_failures(stacks) == []
        assert eig_calls == [stack.shape for _, stack in stacks]

    @pytest.mark.parametrize("positivity", [1e-12, 0.3])
    def test_mixed_conditioning_stack_screens_each_matrix_as_alone(
        self, monkeypatch, eig_calls, positivity
    ):
        monkeypatch.setattr(perron, "POSITIVITY_TOL", positivity)
        rng = np.random.default_rng(6)
        stack = np.stack([
            ak.random_irreducible_metzler(6, rng).entries,
            ILL_CONDITIONED_6,
            ak.random_irreducible_metzler(6, rng).entries,
            ILL_CONDITIONED_6B,
        ])
        left_values, left = _left_eigen(stack, *np.linalg.eig(stack))
        # the transposes of the two ill-conditioned matrices, and no others
        assert eig_calls == [(4, 6, 6), (2, 6, 6)]
        verdicts = _screen(stack)
        for k in range(len(stack)):
            single = stack[k:k + 1]
            alone_values, alone_left = _left_eigen(single, *np.linalg.eig(single))
            assert np.array_equal(alone_values[0], left_values[k])
            assert np.array_equal(alone_left[0], left[k])
            assert _screen(single) == ({0: verdicts[k]} if k in verdicts else {})


class TestRandomBattery:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 60),
        max_dim=st.integers(3, 16),
    )
    # one dimension: a partial last block of draws, and a full one
    @example(seed=0, count=60, max_dim=3)
    @example(seed=1, count=48, max_dim=3)
    def test_draws_the_stream_of_per_matrix_calls(self, seed, count, max_dim):
        sequential = np.random.default_rng(seed)
        expected = [
            ak.random_irreducible_metzler(
                int(sequential.integers(3, max_dim + 1)), sequential
            ).entries
            for _ in range(count)
        ]
        rng = np.random.default_rng(seed)
        stacks = random_metzler_battery(count, max_dim, rng)
        # the whole stream is drawn by the call, before any stack is assembled
        assert rng.random() == sequential.random()
        seen = []
        for indices, stack in stacks:
            assert np.all(np.diff(indices) > 0)
            assert len(stack) == len(indices)
            for index, entries in zip(indices, stack):
                assert np.array_equal(entries, expected[index])
            seen.extend(indices.tolist())
        assert sorted(seen) == list(range(count))


class TestSemigroupPositivity:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_metzler_exponential_nonnegative(self, t):
        rng = np.random.default_rng(55)
        for _ in range(5):
            gen = ak.random_irreducible_metzler(int(rng.integers(3, 9)), rng)
            assert expm(gen.entries * t).min() >= -1e-12


class TestGeneratorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        entries = np.zeros((2, 2))
        entries[0, 1] = np.inf
        with pytest.raises(ValueError):
            GeneratorMatrix(entries)
