import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import akgrowth as ak
from akgrowth import serialize

from oracles import SWEEP_COLUMNS, sweep_csv_per_cell

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestFloatFormatting:
    def test_17_significant_digits(self):
        assert serialize.format_float(1.0 / 3.0) == "0.33333333333333331"
        assert serialize.format_float(1.0) == "1"
        assert serialize.format_float(-2.5e-300) == "-2.5e-300"
        assert serialize.format_float(0.45) == "0.45000000000000001"

    def test_round_trip(self):
        for x in (np.pi, 1e-17, -123.456789012345678, 7.0):
            assert float(serialize.format_float(x)) == x

    def test_non_finite_tokens(self):
        assert serialize.format_float(float("inf")) == "Infinity"
        assert serialize.format_float(float("-inf")) == "-Infinity"
        assert serialize.format_float(float("nan")) == "NaN"


class TestJson:
    def test_structure_and_determinism(self):
        payload = {
            "name": "run",
            "flag": True,
            "none": None,
            "count": 3,
            "x": 0.1,
            "list": [1.5, 2, "s"],
            "nested": {"a": np.float64(2.25)},
            "array": np.array([1.0, 2.0]),
        }
        text1 = serialize.dumps_json(payload)
        text2 = serialize.dumps_json(payload)
        assert text1 == text2
        parsed = json.loads(text1)
        assert parsed["x"] == 0.1
        assert parsed["nested"]["a"] == 2.25
        assert parsed["array"] == [1.0, 2.0]
        assert parsed["flag"] is True
        assert parsed["none"] is None

    def test_empty_containers(self):
        assert json.loads(serialize.dumps_json({"a": [], "b": {}})) == {"a": [], "b": {}}


def written_trajectory(traj, tmp_path):
    """The text that ``write_trajectory_csv`` writes for ``traj``."""
    path = tmp_path / "trajectory.csv"
    serialize.write_trajectory_csv(path, traj)
    return path.read_text()


# values where %g changes notation (1e-5/1e-4, 1e16/1e17), a signed zero and
# the smallest subnormal, one row per value list
CRAFTED_ROWS = [
    [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, -1.0 / 3.0, 0.1],
    [-5e-324, 0.0, -1e-5, -1e-4, -1e16, -1e17, 9.999999999999999e-5, 1e300],
    [np.nan, np.inf, -np.inf, -0.0, 1e-5, 1e17, 5e-324, 2.5],
]


def crafted_basis():
    """An 8-point basis whose rows hold CRAFTED_ROWS and scaled copies of them."""
    vectors = np.array(CRAFTED_ROWS + [np.array(CRAFTED_ROWS[k % 2]) * (k + 1.5)
                                       for k in range(5)])
    return ak.SpectralBasis(ak.Grid(8), np.arange(8.0)[::-1], vectors)


class TestCsv:
    def test_trajectory_layout(self, window, tmp_path):
        traj = ak.simulate(window.clo, window.K0, 1.0, 2)
        text = written_trajectory(traj, tmp_path)
        lines = text.strip().split("\n")
        assert lines[0] == "t,theta,K,K_detrended"
        assert len(lines) == 1 + 3 * window.grid.n_points

    @pytest.mark.parametrize("n_points", [8, 16])
    def test_trajectory_matches_per_cell_formatting(self, n_points, tmp_path):
        from conftest import window_pipeline

        pipe = window_pipeline(n_points)
        traj = ak.simulate(pipe.clo, pipe.K0, 2.0, 5)
        fmt = serialize.format_float
        reference = ["t,theta,K,K_detrended"]
        for i, t in enumerate(traj.times):
            for j, theta in enumerate(traj.grid.nodes):
                reference.append(
                    f"{fmt(t)},{fmt(theta)},{fmt(traj.states[i, j])},"
                    f"{fmt(traj.detrended[i, j])}"
                )
        assert written_trajectory(traj, tmp_path) == "\n".join(reference) + "\n"

    def test_non_finite_rows_match_per_cell_formatting(self, tmp_path):
        traj = non_finite_trajectory()
        times, states, detrended = traj.times, traj.states, traj.detrended
        fmt = serialize.format_float
        reference = ["t,theta,K,K_detrended"]
        for i, t in enumerate(times):
            for j, theta in enumerate(traj.grid.nodes):
                reference.append(
                    f"{fmt(t)},{fmt(theta)},{fmt(states[i, j])},{fmt(detrended[i, j])}"
                )
        text = written_trajectory(traj, tmp_path)
        assert text == "\n".join(reference) + "\n"
        assert "NaN" in text and ",Infinity," in text and ",-Infinity," in text

    def test_basis_file_matches_per_cell_formatting(self, tmp_path):
        from conftest import window_pipeline

        basis = window_pipeline(16).basis
        fmt = serialize.format_float
        reference = ["theta," + ",".join(f"b{k}" for k in range(16))]
        for j, theta in enumerate(basis.grid.nodes):
            reference.append(",".join(fmt(v) for v in [theta, *basis.vectors[j]]))
        path = tmp_path / "basis.csv"
        serialize.write_basis_csv(path, basis)
        assert path.read_bytes() == ("\n".join(reference) + "\n").encode()


    @pytest.mark.parametrize("block_cells", [8, 64])
    def test_trajectory_blocks_match_per_cell_formatting(self, block_cells, monkeypatch,
                                                         tmp_path):
        # blocks of 1 and of 4 time rows at n = 8: full blocks, then a short one
        from conftest import window_pipeline

        monkeypatch.setattr(serialize, "_BLOCK_CELLS", block_cells)
        pipe = window_pipeline(8)
        traj = ak.simulate(pipe.clo, pipe.K0, 2.0, 9)
        fmt = serialize.format_float
        reference = ["t,theta,K,K_detrended"] + [
            f"{fmt(t)},{fmt(theta)},{fmt(traj.states[i, j])},{fmt(traj.detrended[i, j])}"
            for i, t in enumerate(traj.times) for j, theta in enumerate(traj.grid.nodes)
        ]
        assert written_trajectory(traj, tmp_path) == "\n".join(reference) + "\n"

def non_finite_trajectory():
    grid = ak.Grid(8)
    times = np.array([0.0, 0.5, 1.0])
    states = np.linspace(0.1, 2.4, 24).reshape(3, 8)
    states[0] = CRAFTED_ROWS[0]
    states[1, :4] = [np.nan, np.inf, -np.inf, -0.0]
    states[2, 1] = 1e-300
    detrended = states * 0.5
    detrended[2, 1] = np.inf
    return ak.closed_loop.Trajectory(grid, times, states, detrended)


class TestRowFormatter:
    def test_crafted_basis_bytes(self, tmp_path):
        basis = crafted_basis()
        fmt = serialize.format_float
        reference = ["theta," + ",".join(f"b{k}" for k in range(8))]
        for theta, row in zip(basis.grid.nodes, basis.vectors):
            reference.append(",".join(fmt(v) for v in [theta, *row]))
        path = tmp_path / "basis.csv"
        serialize.write_basis_csv(path, basis)
        text = path.read_bytes().decode()
        assert text == "\n".join(reference) + "\n"
        assert "NaN,Infinity,-Infinity,-0," in text
        assert ",-0,4.9406564584124654e-324,1.0000000000000001e-05,0.0001," in text
        assert ",10000000000000000,1e+17," in text

    def test_crafted_deviation_bytes(self):
        times = np.array([0.0, 1e-5, 1e16, 1e17])
        deviations = np.array([-0.0, 5e-324, np.nan, 1e-4])
        bounds = np.array([1e17, np.inf, 1e-5, -np.inf])
        report = ak.stability.StabilityReport(
            M=1.0, rate=0.1, steady_state=None, bound_satisfied=True,
            fitted_rate=0.1, admissible=True, admissibility_condition=True,
            dominance_ok=True, max_bound_violation=0.0, times=times,
            deviations=deviations, bounds=bounds, grid_points=8,
        )
        fmt = serialize.format_float
        reference = ["t,deviation,bound"] + [
            f"{fmt(t)},{fmt(d)},{fmt(b)}" for t, d, b in zip(times, deviations, bounds)
        ]
        assert serialize.deviation_csv(report) == "\n".join(reference) + "\n"

    def test_format_float_only_outside_the_kernel_range(self, window, monkeypatch,
                                                        tmp_path):
        # format_float sees only the cells the kernel leaves to it, and the
        # time and node columns once per value
        traj = ak.simulate(window.clo, window.K0, 1.0, 4)
        calls = []
        original = serialize.format_float
        monkeypatch.setattr(serialize, "format_float",
                            lambda x: calls.append(x) or original(x))
        serialize.write_basis_csv(tmp_path / "basis.csv", window.basis)
        written_trajectory(traj, tmp_path)
        formatted = np.concatenate([
            window.grid.nodes, window.basis.vectors.ravel(),
            traj.times, window.grid.nodes, traj.states.ravel(), traj.detrended.ravel(),
        ])
        outside = ~((np.abs(formatted) >= 1e-4) & (np.abs(formatted) < 1e17))
        assert outside.any() and not outside.all()
        np.testing.assert_array_equal(calls, formatted[outside])


def cell_texts(values) -> list[str]:
    """The kernel's text of every value, through ``_lines``."""
    cells = serialize._cells(np.asarray(values, dtype=float).reshape(-1))
    return serialize._lines(cells).decode().split("\n")[:-1]


def with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


POWERS_OF_TEN = [10.0 ** k for k in range(-6, 19)]
KERNEL_EXAMPLES = [
    *POWERS_OF_TEN,
    *np.nextafter(POWERS_OF_TEN, 0.0).tolist(),
    *np.nextafter(POWERS_OF_TEN, np.inf).tolist(),
    1e-4, 1e17,
    # exact ties at the 17th digit, where round half even and half up differ:
    # x * 10^(16 - E) ends in .5 for E = 15 (k + 0.25, k in [2^50, 2^51)),
    # E = 14, 0 and -1
    2.0**50 + 0.25, 2.0**50 + 1.25, 1234567890123456.25, 2.0**51 - 0.75,
    123456789012345.125, 1.0 + 2.0**-17, 0.5 + 2.0**-18,
    # 17 nines: the nearest double is 1e17, the first value past the kernel
    99999999999999999.0,
]


class TestKernel:
    @settings(max_examples=300)
    @given(st.floats() | st.floats(min_value=-1e17, max_value=1e17))
    @with_examples(KERNEL_EXAMPLES)
    def test_matches_format_float(self, x):
        assert cell_texts([x, -x]) == [serialize.format_float(x), serialize.format_float(-x)]

    def test_rounding_never_carries_to_18_digits(self):
        # the kernel has no carry step: the largest double below each power
        # of ten in its range is more than half a unit of the 17th digit away
        for j in range(-3, 18):
            power = Fraction(10) ** j
            below = float(power)
            if Fraction(below) >= power:
                below = math.nextafter(below, 0.0)
            assert (power - Fraction(below)) * 10 ** (17 - j) > Fraction(1, 2)


class TestGoldenRoundTrip:
    """Each golden float CSV, parsed and written back, is the same file.

    The check needs no eigensolver: the arrays come from the file itself.
    """

    @staticmethod
    def read(case, name):
        text = (GOLDEN / case / name).read_text()
        rows = text.splitlines()[1:]
        return text, np.array([[float(c) for c in row.split(",")] for row in rows])

    @pytest.mark.parametrize("case", ["homogeneous-simulate", "variable-simulate"])
    def test_trajectory(self, case, tmp_path):
        text, cells = self.read(case, "trajectory.csv")
        n = np.unique(cells[:, 1]).size
        grid = ak.Grid(n)
        steps = cells.shape[0] // n
        traj = ak.closed_loop.Trajectory(
            grid, cells[::n, 0], cells[:, 2].reshape(steps, n), cells[:, 3].reshape(steps, n)
        )
        assert written_trajectory(traj, tmp_path) == text

    @pytest.mark.parametrize("case", ["homogeneous-solve", "variable-solve"])
    def test_basis(self, case, tmp_path):
        text, cells = self.read(case, "basis.csv")
        n = cells.shape[0]
        basis = ak.SpectralBasis(ak.Grid(n), np.zeros(n), cells[:, 1:])
        serialize.write_basis_csv(tmp_path / "basis.csv", basis)
        assert (tmp_path / "basis.csv").read_text() == text

    @pytest.mark.parametrize("case", ["homogeneous-simulate", "variable-simulate"])
    def test_deviations(self, case):
        text, cells = self.read(case, "deviations.csv")
        report = ak.stability.StabilityReport(
            M=1.0, rate=0.1, steady_state=None, bound_satisfied=True,
            fitted_rate=0.1, admissible=True, admissibility_condition=True,
            dominance_ok=True, max_bound_violation=0.0, times=cells[:, 0],
            deviations=cells[:, 1], bounds=cells[:, 2], grid_points=8,
        )
        assert serialize.deviation_csv(report) == text



_FLAG = st.sampled_from([None, True, False])
_NUMBER = st.one_of(
    st.none(), st.floats(),
    st.sampled_from([0.0, -0.0, 1e-5, -9.999999999999999e-5, 1e-4, 1e17, -3.5e17, 5e-324]),
)
_SWEEP_ROW = st.fixed_dictionaries(
    {c: _FLAG if c in ("feasible", "dominant") else _NUMBER for c in SWEEP_COLUMNS}
)
# None in every numeric column, both flags, negative values, the signed
# zeros, and values below 1e-4 and at or above 1e17
_SWEEP_EXAMPLE = [
    dict(zip(SWEEP_COLUMNS, row)) for row in [
        (0.45, 0.5, 1.0, 1.25, -0.75, False, 1.6, None, None, None, None),
        (-0.0, 2.0, 3e-5, 0.0, -1e-5, True, -2.5, 1e17, 7.5, 0.125, True),
        (1e300, -1e17, 5e-324, np.nextafter(1e17, 0.0), 1e-4, True, 0.1, 2.0, None,
         -1.0 / 3.0, False),
        (None, None, None, None, None, None, None, None, None, None, None),
    ]
]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_SWEEP_ROW, min_size=1, max_size=24))
@example(rows=_SWEEP_EXAMPLE)
def test_sweep_file_matches_per_cell_formatting(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    serialize.write_sweep_csv(path, rows)
    assert path.read_bytes() == sweep_csv_per_cell(rows).encode()

def test_trajectory_write_streams_in_blocks(tmp_path):
    # 161 x 512 is the size of the benchmark's simulate, ~8 MB of text
    grid = ak.Grid(512)
    times = np.linspace(0.0, 8.0, 161)
    states = 1.0 + 0.4 * np.cos(grid.nodes) * np.exp(-times)[:, None]
    traj = ak.closed_loop.Trajectory(grid, times, states, 0.9 * states)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        serialize.write_trajectory_csv(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert path.stat().st_size > 6e6


class TestSummaries:
    def test_basis_summary_schema(self, window):
        summary = serialize.basis_summary(window.basis)
        assert set(summary) == {"eigenvalues", "b0"}
        assert len(summary["b0"]) == window.grid.n_points

    def test_hjb_summary_schema(self, window):
        summary = ak.hjb_summary(window.sol)
        assert set(summary) == {"alpha", "alpha0", "g", "lambda0", "wellposed"}
        assert summary["wellposed"] is True

    def test_trajectory_summary_growth_fit(self, window):
        traj = ak.simulate(window.clo, window.K0, 5.0, 100)
        summary = serialize.trajectory_summary(traj, window.basis)
        assert summary["fitted_growth_rate"] == pytest.approx(window.sol.g, abs=1e-9)
