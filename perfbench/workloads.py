"""Seeded inputs, CLI calls and output checks of the benchmark workloads.

Each workload turns the benchmark seed into one generated input (a config
file, or a battery seed), names the ``akgrowth.cli.main`` argument list of
one operation on that input, and checks the files one operation wrote.  The
program sees only the generated input, never the benchmark seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Profile family of the variable-technology demo: smoothly varying A and eta,
# q > 0, strong diffusion.  Copied here so that a change to the demos does not
# change the benchmark's inputs.
_VARIABLE_FAMILY = """\
schema = 1
n_points = 128
sigma = 2.0
rho = 0.6
gamma = 0.5
q = 0.5
A.kind = cosine
A.mean = 1.0
A.amplitude = 0.3
A.mode = 1
eta.kind = cosine
eta.mean = 1.0
eta.amplitude = 0.1
eta.mode = 2
eta.phase = -1.5707963267948966
K0.kind = cosine
K0.mean = 1.0
t_final = 8.0
n_steps = 160
n_perturbations = 20
seed = 7
"""


@dataclass(frozen=True)
class Input:
    """One generated input.

    ``argv`` is one operation without ``--out``; ``cold_argv`` is the cold
    call that set-up times; ``config`` is the generated config file, if any;
    ``points`` is the number of sweep points, if any.
    """

    argv: list[str]
    cold_argv: list[str]
    config: Path | None = None
    points: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[np.random.Generator, Path], Input]
    check: Callable[[Path, Input], str | None]


def _write_config(path: Path, rng: np.random.Generator, extra: str = "") -> Path:
    """Variable-family config with the seed jittering K0's amplitude and mode."""
    amplitude = float(rng.uniform(0.2, 0.5))
    mode = int(rng.integers(1, 3))
    path.write_text(
        _VARIABLE_FAMILY
        + f"K0.amplitude = {amplitude!r}\n"
        + f"K0.mode = {mode}\n"
        + extra
    )
    return path


def _cold_solve(config: Path, n_points: int) -> list[str]:
    return ["solve", "--config", str(config), "--n-points", str(n_points), "--quiet"]


def _gen_verify(rng: np.random.Generator, work: Path) -> Input:
    # The audit seed stays the family's 7: it alone sets how many perturbations
    # are redrawn (29-43 open-loop solves per op over ten seeds, 9.4-12.5 s),
    # which would make the seed, not the program, move op_p50_s.  The K0
    # jitter leaves that count unchanged.
    config = _write_config(work / "verify.cfg", rng)
    argv = ["verify", "--config", str(config), "--quiet"]
    return Input(argv, _cold_solve(config, 128), config)


def _gen_closed_loop(rng: np.random.Generator, work: Path) -> Input:
    config = _write_config(work / "simulate.cfg", rng)
    argv = ["simulate", "--config", str(config), "--n-points", "512", "--quiet"]
    return Input(argv, _cold_solve(config, 512), config)


def _number_list(values: np.ndarray) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _gen_sweep(rng: np.random.Generator, work: Path) -> Input:
    # gamma on both sides of 1; for gamma < 1 most rho fall below
    # lambda0*(1-gamma), which makes roughly 40% of the points infeasible
    rhos = rng.uniform(0.05, 0.9, 8)
    gammas = np.concatenate([rng.uniform(0.1, 0.6, 3), rng.uniform(1.2, 3.0, 3)])
    sigmas = rng.uniform(0.5, 3.0, 4)
    sweep = (
        f"sweep.rho = {_number_list(rhos)}\n"
        f"sweep.gamma = {_number_list(gammas)}\n"
        f"sweep.sigma = {_number_list(sigmas)}\n"
    )
    config = _write_config(work / "sweep.cfg", rng, sweep)
    argv = ["sweep", "--config", str(config), "--quiet"]
    points = len(rhos) * len(gammas) * len(sigmas)
    return Input(argv, _cold_solve(config, 128), config, points)


def _gen_perron(rng: np.random.Generator, work: Path) -> Input:
    battery_seed = str(int(rng.integers(0, 2**31 - 1)))
    argv = ["perron-audit", "--count", "1000", "--max-dim", "12",
            "--seed", battery_seed, "--quiet"]
    cold = ["perron-audit", "--count", "1", "--max-dim", "12",
            "--seed", battery_seed, "--quiet"]
    return Input(argv, cold)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_verify(out: Path, inp: Input) -> str | None:
    audit = _read_json(out / "audit.json")
    if audit is None:
        return "audit.json missing or unreadable"
    checks = audit.get("checks", {})
    if len(checks) != 4 or not all(v is True for v in checks.values()):
        return f"audit checks not all true: {checks}"
    return None


def _check_closed_loop(out: Path, inp: Input) -> str | None:
    report = _read_json(out / "stability.json")
    if report is None:
        return "stability.json missing or unreadable"
    if report.get("bound_satisfied") is not True:
        return "bound_satisfied is not true"
    if report.get("admissible") is not True:
        return "closed-loop path is not strictly positive"
    return None


def _check_sweep(out: Path, inp: Input) -> str | None:
    try:
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError:
        return "sweep.csv missing or unreadable"
    if len(rows) != inp.points:
        return f"{len(rows)} rows for {inp.points} points"
    for row in rows:
        rho, gamma, lambda0 = (float(row[k]) for k in ("rho", "gamma", "lambda0"))
        expected = "true" if rho > lambda0 * (1.0 - gamma) else "false"
        if row["feasible"] != expected:
            return f"feasible={row['feasible']} at rho={rho!r} gamma={gamma!r}"
    return None


def _check_perron(out: Path, inp: Input) -> str | None:
    report = _read_json(out / "perron.json")
    if report is None:
        return "perron.json missing or unreadable"
    if report.get("all_passed") is not True:
        return f"{len(report.get('failures', []))} matrices failed"
    return None


def infeasible_points(out: Path) -> int:
    """Number of rows of a sweep.csv marked infeasible."""
    with open(out / "sweep.csv", newline="") as handle:
        return sum(row["feasible"] == "false" for row in csv.DictReader(handle))


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file an operation wrote, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# Why each workload exists: the module it loads and the ones it leaves quiet.
WORKLOADS = {
    w.name: w
    for w in (
        # optimality_audit is ~93% of the op; spectral and closed_loop < 2%
        Workload("verify-audit", _gen_verify, _check_verify),
        # dense eigh, eigvals and expm at n = 512 plus a large trajectory.csv
        Workload("closed-loop-512", _gen_closed_loop, _check_closed_loop),
        # 192 points over 4 distinct bases under the program's thread pool
        Workload("sweep-shared-basis", _gen_sweep, _check_sweep),
        # many tiny nonsymmetric eigensolves; the only caller of perron
        Workload("perron-battery", _gen_perron, _check_perron),
    )
}
