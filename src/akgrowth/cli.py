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
from typing import Callable, Iterator

import numpy as np

from . import closed_loop, hjb, serialize, spectral, stability, verify
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    InfeasibleParametersError,
    PositivityError,
    SeriesCancellationError,
    SpectrumCollisionError,
)
from .grid import Grid, inner_l2
from .perron import battery_failures, random_metzler_battery

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_AUDIT_FAILED = 3


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _basis(grid: Grid, params: spectral.ModelParams, decompose: Callable | None = None):
    """The spectral basis ``decompose(op)`` of the generator of ``params``.

    ``decompose`` is by default ``spectral.eigendecompose``, looked up when
    called so that a wrapper installed on the module attribute sees the
    call; ``verify`` passes ``spectral.principal_pair``.
    """
    op = spectral.assemble_generator(params, grid)
    try:
        return (decompose or spectral.eigendecompose)(op)
    except PositivityError as exc:  # its text ends in its remedy
        raise ConfigError(f"sigma = {params.sigma!r} with n_points = {grid.n_points}: "
                          f"{exc}") from exc


def _state_model(config: RunConfig, decompose: Callable | None = None):
    """Params, K0, spectral basis (``_basis``) and the pairing <K0, b0> of a
    config, for the commands that start from K0, which must lie in the open
    half-space <K0, b0> > 0 where the value function is defined.

    hjb.solve_hjb on this basis is the well-posedness check: it raises
    InfeasibleParametersError when rho <= lambda0*(1-gamma).
    """
    grid, params, K0 = config.model()
    basis = _basis(grid, params, decompose)
    pairing = inner_l2(K0, basis.b0)
    if not pairing > 0:
        raise ConfigError(f"<K0, b0> = {pairing!r} is not strictly positive")
    return params, K0, basis, pairing


def cmd_solve(config: RunConfig, out: Path, quiet: bool) -> int:
    params, _, basis, pairing = _state_model(config)
    sol = hjb.solve_hjb(basis, params)
    summary = hjb.hjb_summary(sol)  # its alpha0 check comes before any output
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "spectral.json", serialize.basis_summary(basis))
    serialize.write_json(out / "hjb.json", summary)
    serialize.write_json(
        out / "value.json",
        {"inner_K0_b0": pairing, "value": hjb.value_at_pairing(sol, pairing)},
    )
    serialize.write_basis_csv(out / "basis.csv", basis)
    _say(quiet, f"solve: lambda0={basis.lambda0!r} g={sol.g!r} alpha={sol.alpha!r}")
    _say(quiet, f"solve: wrote spectral.json, hjb.json, value.json, basis.csv to {out}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, out: Path, quiet: bool) -> int:
    params, K0, basis, _ = _state_model(config)
    sol = hjb.solve_hjb(basis, params)
    clo = closed_loop.build_closed_loop(basis, sol)
    pd = closed_loop.compute_projection_data(basis, sol)
    try:
        traj = closed_loop.simulate(clo, K0, config.t_final, config.n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = stability.convergence_bound_check(traj, pd)
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
    # the value function, the feedback and every check of the certificate
    # read the generator only through its Perron pair (lambda0, b0)
    params, K0, basis, _ = _state_model(config, spectral.principal_pair)
    sol = hjb.solve_hjb(basis, params)
    if debug_perturb_alpha:
        sol = dataclasses.replace(sol, alpha=sol.alpha * (1.0 + debug_perturb_alpha))

    report = verify.certificate(sol, K0, config.n_perturbations, config.seed)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out / "audit.json", report)
    if report["failed_check"]:
        _say(quiet, f"verify: FAILED check {report['failed_check']}")
        return EXIT_AUDIT_FAILED
    _say(quiet, f"verify: all checks passed (rel_gap={report['rel_gap']!r})")
    return EXIT_OK


def _sweep_batch(rhos: list[float], gammas: list[float], sigma: float,
                 params: spectral.ModelParams,
                 basis: spectral.SpectralBasis) -> Iterator[dict | Exception]:
    """The sweep.csv rows of one sigma, one per row (gammas[i], rhos[i]), in order.

    A row that fails a check of ``hjb.solve_rows`` or ``closed_loop.projection_rows``
    is its error, but an infeasible row is written as such, and a collision
    of g with an eigenvalue lambda_k, k >= 1, leaves M empty.
    """
    lambda0, lambda1 = basis.lambda0, basis.lambda1
    M = [None] * len(rhos)
    growth, alpha, errors, _, withdrawal = hjb.solve_rows(basis, params, gammas, rhos)
    solved = [i for i, error in enumerate(errors) if error is None]
    if solved:
        w, projection_errors = closed_loop.projection_rows(basis, withdrawal[solved],
                                                           [growth[i] for i in solved])
        with np.errstate(all="ignore"):  # a failing row's nan or inf is kept quiet
            bounds = stability.bound_constant(w, basis.b0.values, basis.grid.weight).tolist()
        for i, error, bound in zip(solved, projection_errors, bounds):
            errors[i], M[i] = error, None if error else bound
    for rho, gamma, g, a, error, bound in zip(rhos, gammas, growth, alpha, errors, M):
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

    It reads the config's model.  The basis depends on sigma but not on rho or
    gamma, so each distinct sigma is decomposed once, and its (rho, gamma)
    rows, in Cartesian order, are evaluated as one batch.  The first row in
    Cartesian order that failed a check raises its error, as if the rows had
    been evaluated one by one.
    """
    rhos = config.sweep.get("rho", [config.rho])
    gammas = config.sweep.get("gamma", [config.gamma])
    sigmas = config.sweep.get("sigma", [config.sigma])
    batch_rhos, batch_gammas = [rho for rho in rhos for _ in gammas], gammas * len(rhos)
    grid, model_params, _ = config.model()
    batches = {}
    for sigma in dict.fromkeys(sigmas):
        params = dataclasses.replace(model_params, sigma=sigma)
        basis = _basis(grid, params)
        batches[sigma] = list(_sweep_batch(batch_rhos, batch_gammas, sigma, params, basis))
    rows = [batches[sigma][index] for index in range(len(batch_rhos)) for sigma in sigmas]
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return [dict(row) for row in rows]  # a repeated sigma reuses the row


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
        config = load_config(args.config, n_points=args.n_points, seed=args.seed)
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
    except (ConfigError, OSError, SeriesCancellationError, SpectrumCollisionError) as exc:
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
