"""Command-line front end.

Subcommands: solve, simulate, verify, sweep, perron-audit.  Exit codes form
a contract CI can rely on: 0 success, 1 internal or validation error,
2 infeasible parameters (well-posedness fails), 3 a numerical audit failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import traceback
from pathlib import Path
from typing import Iterator

import numpy as np

from . import closed_loop, hjb, serialize, spectral, stability, verify
from .config import RunConfig, load_config
from .errors import ConfigError, InfeasibleParametersError, PositivityError, SpectrumCollisionError
from .grid import inner_l2
from .perron import battery_failures, random_metzler_battery
from .tolerances import Tolerances

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_AUDIT_FAILED = 3


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _model(config: RunConfig):
    """Params, K0, spectral basis and tolerances of a config.

    hjb.solve_hjb on this basis is the well-posedness check: it raises
    InfeasibleParametersError when rho <= lambda0*(1-gamma).
    """
    grid, params, K0 = config.model()
    tolerances = config.tolerances()
    op = spectral.assemble_generator(params, grid)
    try:
        basis = spectral.eigendecompose(op, tolerances)
    except PositivityError as exc:  # at a small sigma b0 decays below float64 resolution
        raise ConfigError(f"sigma = {params.sigma!r} with n_points = {grid.n_points}: "
                          f"{exc}; a larger sigma keeps b0 resolvable") from exc
    return params, K0, basis, tolerances


def _state_model(config: RunConfig):
    """``_model`` for the commands that start from K0, which must lie in the
    open half-space <K0, b0> > 0 where the value function is defined; the
    pairing <K0, b0> is returned last."""
    params, K0, basis, tolerances = _model(config)
    pairing = inner_l2(K0, basis.b0)
    if not pairing > 0:
        raise ConfigError(f"<K0, b0> = {pairing!r} is not strictly positive")
    return params, K0, basis, tolerances, pairing


def cmd_solve(config: RunConfig, out: Path, quiet: bool) -> int:
    params, _, basis, _, pairing = _state_model(config)
    sol = hjb.solve_hjb(basis, params)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "spectral.json", serialize.basis_summary(basis))
    serialize.write_json(out / "hjb.json", hjb.hjb_summary(sol))
    serialize.write_json(
        out / "value.json",
        {"inner_K0_b0": pairing, "value": hjb.value_at_pairing(sol, pairing)},
    )
    serialize.write_basis_csv(out / "basis.csv", basis)
    _say(quiet, f"solve: lambda0={basis.lambda0!r} g={sol.g!r} alpha={sol.alpha!r}")
    _say(quiet, f"solve: wrote spectral.json, hjb.json, value.json, basis.csv to {out}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, out: Path, quiet: bool) -> int:
    params, K0, basis, tolerances, _ = _state_model(config)
    sol = hjb.solve_hjb(basis, params)
    clo = closed_loop.build_closed_loop(basis, sol)
    pd = closed_loop.compute_projection_data(basis, sol, tolerances)
    try:
        traj = closed_loop.simulate(clo, K0, config.t_final, config.n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = stability.convergence_bound_check(traj, pd, tolerances)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_trajectory_csv(out / "trajectory.csv", traj)
    serialize.write_json(
        out / "trajectory_summary.json",
        {**serialize.trajectory_summary(traj, basis), "g": sol.g},
    )
    serialize.write_json(out / "stability.json", serialize.stability_summary(report))
    serialize.write_deviation_csv(out / "deviations.csv", report)
    _say(
        quiet,
        "simulate: "
        f"bound_satisfied={report.bound_satisfied} "
        f"admissibility_condition={report.admissibility_condition} "
        f"positivity={report.admissible} dominance_ok={report.dominance_ok}",
    )
    return EXIT_OK


def cmd_verify(config: RunConfig, out: Path, quiet: bool,
               debug_perturb_alpha: float = 0.0) -> int:
    # alpha * (1 + p) must stay a positive finite coefficient
    if not (math.isfinite(debug_perturb_alpha) and debug_perturb_alpha > -1.0):
        raise ConfigError(
            f"--debug-perturb-alpha must be > -1 and finite, got {debug_perturb_alpha!r}"
        )
    params, K0, basis, tolerances, _ = _state_model(config)
    sol = hjb.solve_hjb(basis, params)
    if debug_perturb_alpha:
        sol = dataclasses.replace(sol, alpha=sol.alpha * (1.0 + debug_perturb_alpha))
    clo = closed_loop.build_closed_loop(basis, sol)

    # v = alpha <x, b0>^(1-gamma)/(1-gamma) makes the residual homogeneous of
    # degree 0 in <x, b0>: its value at K0 is its value on the half-space
    max_residual = verify.hjb_residual(sol, K0)

    audit = verify.optimality_audit(
        sol, K0, config.n_perturbations, config.seed, tolerances
    )

    # transversality needs a horizon long enough for the discounted value to
    # die; it is checked on the optimal path and on the sampled perturbations
    # of the feedback law (admissible by construction), whose discounted value
    # decays at the feedback rate up to the factor e^(-c (1 - e^(-T))).
    # The optimal path's pairing <K(t), b0> grows as e^(r t), r = spectrum[0],
    # so its discounted value is v(K0) e^(-d t) with d = rho - r (1-gamma)
    decay = params.rho - float(clo.spectrum[0]) * (1.0 - params.gamma)
    envelope = verify.perturbed_transversality_envelope(sol, audit.horizon)
    transversal = (
        decay > 0
        and math.exp(-decay * audit.horizon) < tolerances.transversality_tail_rel
        and audit.max_discounted_terminal_rel <= envelope
    )

    checks = {
        "hjb_residual": bool(max_residual < tolerances.hjb_residual_rel),
        "value_equality": bool(audit.rel_gap < tolerances.value_equality_rel),
        "dominance": bool(audit.all_dominated),
        "transversality": bool(transversal),
    }
    failed = [name for name, ok in checks.items() if not ok]
    report = {
        "J_opt": audit.J_opt,
        "v": audit.v,
        "rel_gap": audit.rel_gap,
        "n_perturbations": audit.n_perturbations,
        "max_perturbed_J": audit.max_perturbed_J,
        "all_dominated": audit.all_dominated,
        "max_hjb_residual": max_residual,
        "transversality": transversal,
        "max_discounted_terminal_rel": audit.max_discounted_terminal_rel,
        "perturbed_terminal_envelope": envelope,
        "horizon": audit.horizon,
        "tail_bound": audit.tail_bound,
        "quadrature_doubling_gap": audit.quadrature_doubling_gap,
        "seed": audit.seed,
        "perturbation_family": audit.perturbation_family,
        "checks": checks,
        "failed_check": failed[0] if failed else None,
    }
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "audit.json", report)
    if failed:
        _say(quiet, f"verify: FAILED check {failed[0]}")
        return EXIT_AUDIT_FAILED
    _say(quiet, f"verify: all checks passed (rel_gap={audit.rel_gap!r})")
    return EXIT_OK


def _sweep_group(rhos: list[float], gamma: float, sigma: float,
                 params: spectral.ModelParams, basis: spectral.SpectralBasis,
                 tolerances: Tolerances) -> Iterator[dict | Exception]:
    """The sweep.csv rows of one (gamma, sigma), one per rho in order.

    A row that fails a check of ``hjb.solve_rows`` or ``closed_loop.projection_rows``
    is its error, but an infeasible row is written as such, and a collision
    of g with the spectrum leaves M empty.
    """
    lambda0, lambda1 = basis.lambda0, basis.lambda1
    M = [None] * len(rhos)
    growth, alpha, _, errors, _, withdrawal = hjb.solve_rows(basis, params, gamma, rhos)
    solved = [i for i, error in enumerate(errors) if error is None]
    if solved:
        w, projection_errors = closed_loop.projection_rows(
            basis, withdrawal, [growth[i] for i in solved], tolerances
        )
        with np.errstate(all="ignore"):  # a failing row's nan or inf is kept quiet
            bounds = stability.bound_constant(w, basis.b0.values, basis.grid.weight).tolist()
        for i, error, bound in zip(solved, projection_errors, bounds):
            errors[i], M[i] = error, None if error else bound
    for rho, g, a, error, bound in zip(rhos, growth, alpha, errors, M):
        row = {"rho": rho, "gamma": gamma, "sigma": sigma,
               "lambda0": lambda0, "lambda1": lambda1}
        if isinstance(error, InfeasibleParametersError):
            row.update(feasible=False, g=g, alpha=None, M=None, rate=None, dominant=None)
        elif error is None or isinstance(error, SpectrumCollisionError):
            row.update(feasible=True, g=g, alpha=a, M=bound, rate=g - lambda1,
                       dominant=bool(g > lambda1))
        else:
            row = error
        yield row


def sweep_rows(config: RunConfig) -> list[dict]:
    """The rows of sweep.csv, in Cartesian order with sigma innermost.

    The basis depends on sigma but not on rho or gamma, so each distinct
    sigma is decomposed once, and the rows are evaluated by (gamma, sigma)
    group.  The first row in Cartesian order that failed a check raises its
    error, as if the rows had been evaluated one by one.
    """
    rhos = config.sweep.get("rho", [config.rho])
    gammas = config.sweep.get("gamma", [config.gamma])
    sigmas = config.sweep.get("sigma", [config.sigma])
    models = {}
    for sigma in dict.fromkeys(sigmas):
        params, _, basis, tolerances = _model(dataclasses.replace(config, sigma=sigma))
        models[sigma] = (params, basis, tolerances)
    groups = {
        (gamma, sigma): list(_sweep_group(rhos, gamma, sigma, *models[sigma]))
        for gamma in dict.fromkeys(gammas)
        for sigma in models
    }
    rows = []
    for index in range(len(rhos)):
        for gamma in gammas:
            for sigma in sigmas:
                row = groups[gamma, sigma][index]
                if isinstance(row, Exception):
                    raise row
                rows.append(dict(row))  # a repeated gamma or sigma reuses the row
    return rows


def cmd_sweep(config: RunConfig, out: Path, quiet: bool) -> int:
    rows = sweep_rows(config)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_sweep_csv(out / "sweep.csv", rows)
    _say(quiet, f"sweep: wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_perron_audit(seed: int, count: int, max_dim: int, out: Path, quiet: bool) -> int:
    if count < 0:
        raise ConfigError(f"--count must be >= 0, got {count}")
    if max_dim < 3:
        raise ConfigError(f"--max-dim must be >= 3, got {max_dim}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    battery = random_metzler_battery(count, max_dim, np.random.default_rng(seed))
    failures = [
        {"index": index, "dim": dim, "error": error}
        for index, dim, error in battery_failures(battery)
    ]
    report = {
        "count": count,
        "max_dim": max_dim,
        "seed": seed,
        "failures": failures,
        "all_passed": not failures,
    }
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "perron.json", report)
    if failures:
        _say(quiet, f"perron-audit: {len(failures)} failure(s)")
        return EXIT_AUDIT_FAILED
    _say(quiet, f"perron-audit: {count} matrices passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akgrowth",
        description=(
            "Spectral solver, closed-loop simulator, and optimality auditor "
            "for spatial AK growth control on the circle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--n-points", type=int, default=None, help="override grid resolution")
        p.add_argument("--quiet", action="store_true", help="suppress status output")

    add_common(sub.add_parser("solve", help="spectral data, value function, feedback"))
    add_common(sub.add_parser("simulate", help="closed-loop trajectory and stability report"))
    p_verify = sub.add_parser("verify", help="payoff, dominance, residual, transversality audits")
    add_common(p_verify)
    p_verify.add_argument(
        "--debug-perturb-alpha",
        type=float,
        default=0.0,
        help="relative perturbation of alpha (sensitivity guard; forces audit failure)",
    )
    add_common(sub.add_parser("sweep", help="Cartesian parameter sweep summary"))
    p_perron = sub.add_parser("perron-audit", help="random Metzler dominant-eigenvalue battery")
    p_perron.add_argument("--seed", type=int, default=0)
    p_perron.add_argument("--count", type=int, default=100)
    p_perron.add_argument("--max-dim", type=int, default=12)
    p_perron.add_argument("--out", default=".", help="output directory")
    p_perron.add_argument("--quiet", action="store_true")
    return parser


# built on the first main() call and reused: building the parser takes
# over ten times as long as parsing a command line with it
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    quiet = getattr(args, "quiet", False)
    try:
        if args.command == "perron-audit":
            return cmd_perron_audit(
                args.seed, args.count, args.max_dim, Path(args.out), quiet
            )
        config = load_config(args.config)
        if args.n_points is not None:
            config = dataclasses.replace(config, n_points=args.n_points)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        out = Path(args.out) if args.out is not None else Path(config.out_dir)
        if args.command == "solve":
            return cmd_solve(config, out, quiet)
        if args.command == "simulate":
            return cmd_simulate(config, out, quiet)
        if args.command == "verify":
            return cmd_verify(config, out, quiet, args.debug_perturb_alpha)
        if args.command == "sweep":
            return cmd_sweep(config, out, quiet)
        raise RuntimeError(f"unhandled command {args.command!r}")
    except InfeasibleParametersError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, OSError, SpectrumCollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        if not quiet:
            traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
