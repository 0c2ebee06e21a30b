"""Benchmark of the akgrowth CLI: four seeded workloads, one closed-loop client.

Run from the root of a checkout (the directory that holds ``src/akgrowth``):

    python3 perfbench/run.py --workload verify-audit --seed 1 --seconds 12 --trace 0

One operation is one in-process ``akgrowth.cli.main([...])`` call on the
input the seed generated; the next starts when the previous has returned,
and runs repeat until ``--seconds`` have passed (at least ``MIN_OPS``
operations).  Every operation of a run has the same input, so each output
must be byte-identical to the first.  Outside the timing, verify-audit also
runs a negative control (``--debug-perturb-alpha 0.05`` must fail) and
closed-loop-512 compares the contour projection with the closed form.
Outputs and generated configs go to a temporary directory under
``.bench_work/``; result records (with the environment: cpu count, thread
variables, numpy/scipy versions and BLAS) and span files go to
``.bench_out/``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median fresh-interpreter
  import plus cold call), ``op_p50_s`` and ``peak_rss_mb``.
* ``--trace 1``: the per-layer metrics of ``LAYER_METRICS``, from a second,
  traced loop, and from a traced repeat in a child process with
  ``OPENBLAS_NUM_THREADS=1`` (the ``st.`` metrics).

Measured runs set no thread variable.  The benchmark starts no threads; the
only extra threads are the ones ``cli.cmd_sweep`` starts itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import FLOPS, Tracer
from workloads import WORKLOADS, Input, Workload, bytes_written, digest, infeasible_points

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh interpreters per run; the median drops one cold stall
MIN_OPS = 3  # a median of three, and pairs on one input for the byte-identity check
# the traced loops only attribute time: half the run length, one op at least
MIN_TRACED_OPS = 1
TRACED_SHARE = 0.5
CHILD_TIMEOUT_S = 150
ORACLE_ENTRY_TOL = 1e-6  # acceptance criterion 7's bound on the contour oracle

SELF_TIMED = [
    "verify.optimality_audit", "verify.payoff", "verify.open_loop_trajectory",
    "verify.hjb_residual", "verify.transversality_check",
    "hjb.utility", "hjb.solve_hjb",
    "closed_loop.build_closed_loop", "closed_loop.simulate",
    "closed_loop.compute_projection_data", "stability.convergence_bound_check",
    "serialize.write",
    "spectral.assemble_generator", "spectral.eigendecompose",
    "perron.random_irreducible_metzler", "perron.is_irreducible",
    "perron.perron_data", "perron.eigenvalues_admitting_positive_eigenvector",
    "cli.main", "config.load_config",
]
COUNTED = [
    "verify.payoff", "verify.open_loop_trajectory",
    "hjb.utility", "hjb.optimal_control_path", "hjb.value_function",
    "spectral.assemble_generator", "spectral.eigendecompose",
    "perron.eigenvalues_admitting_positive_eigenvector",
]
FLOP_COUNTED = ["closed_loop.build_closed_loop", "closed_loop.simulate",
                "spectral.eigendecompose", "closed_loop.projection_via_contour"]

# name -> (unit, better); every --trace 1 run reports each of them, per op.
# Self time sums over threads, so on the sweep it can exceed the op's wall time.
LAYER_METRICS = {
    **{f"{n}.self_s": ("s", "lower") for n in SELF_TIMED},
    **{f"{n}.calls": ("count", "lower") for n in COUNTED},
    **{f"{n}.flops_computed": ("flop", "lower") for n in FLOP_COUNTED},
    "closed_loop.projection_via_contour.self_s": ("s", "lower"),
    "grid.GridFunction.constructed": ("count", "lower"),
    "verify.perturbation.accept_ratio": ("ratio", "higher"),
    "serialize.bytes_written": ("byte", "lower"),
    "cli.sweep.parallel_ratio": ("ratio", "higher"),
    "setup.import_s": ("s", "lower"),
    "setup.first_call_s": ("s", "lower"),
    "trace.op_p50_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "run.fail_frac": ("ratio", "lower"),
    "check.negative_control_failed": ("count", "higher"),
    "st.op_p50_s": ("s", "lower"),
    **{f"st.{n}.self_s": ("s", "lower") for n in SELF_TIMED},
}
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Loop:
    """Operations of one closed loop: wall times, failures, per-op facts."""

    times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_written: list[int] = field(default_factory=list)
    infeasible: list[int] = field(default_factory=list)
    accepted: list[int] = field(default_factory=list)

    @property
    def p50(self) -> float:
        return statistics.median(self.times)


def environment() -> dict:
    import scipy

    def blas(config: dict) -> dict:
        return config.get("Build Dependencies", {}).get("blas", {})

    return {
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def setup_sample(src: Path, inp: Input, out: Path) -> dict:
    """Fresh interpreter: import akgrowth, then the input's cold call."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(src),
               *inp.cold_argv, "--out", str(out)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    shutil.rmtree(out, ignore_errors=True)
    try:
        sample = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sample = {"rc": None}
    sample["wall_s"] = wall
    sample["ok"] = done.returncode == 0 and sample["rc"] == 0
    return sample


def run_loop(cli, workload: Workload, inp: Input, work: Path, seconds: float,
             tracer: Tracer | None = None) -> Loop:
    """Closed loop with one client; checks each output outside the timing."""
    loop = Loop()
    reference = None
    min_ops = MIN_OPS if tracer is None else MIN_TRACED_OPS
    start = time.perf_counter()
    while len(loop.times) < min_ops or time.perf_counter() - start < seconds:
        op = len(loop.times)
        out = work / f"op{op}"
        if tracer is not None:
            tracer.begin_op(op)
        began = time.perf_counter()
        rc = cli.main([*inp.argv, "--out", str(out)])
        loop.times.append(time.perf_counter() - began)
        problem = f"exit code {rc}" if rc != 0 else workload.check(out, inp)
        if problem is None:
            files = digest(out)
            if reference is None:
                reference = files
            elif files != reference:
                problem = "output differs from the first operation on the same input"
        if problem is not None:
            loop.failures.append(f"op {op}: {problem}")
        else:
            loop.bytes_written.append(bytes_written(out))
            if inp.points:
                loop.infeasible.append(infeasible_points(out))
            audit = out / "audit.json"
            if audit.is_file():
                loop.accepted.append(json.loads(audit.read_text())["n_perturbations"])
        shutil.rmtree(out, ignore_errors=True)
    return loop


def negative_control(cli, workload: Workload, inp: Input, work: Path) -> bool:
    """A verify with alpha perturbed 5% must exit 3 and fail the check."""
    out = work / "negative"
    rc = cli.main([*inp.argv, "--debug-perturb-alpha", "0.05", "--out", str(out)])
    failed = rc == 3 and workload.check(out, inp) is not None
    shutil.rmtree(out, ignore_errors=True)
    return failed


def contour_oracle(inp: Input) -> dict:
    """Compare projection_via_contour with projection_matrix at n = 512."""
    import dataclasses

    from akgrowth import closed_loop, config, hjb, spectral

    run = dataclasses.replace(config.load_config(inp.config), n_points=512)
    grid, params, _ = run.model()
    tol = run.tolerances()
    basis = spectral.eigendecompose(spectral.assemble_generator(params, grid, tol), tol)
    sol = hjb.solve_hjb(basis, params)
    clo = closed_loop.build_closed_loop(basis, sol)
    pd = closed_loop.compute_projection_data(basis, sol, tol)
    start = time.perf_counter()
    contour = closed_loop.projection_via_contour(clo, tolerances=tol)
    seconds = time.perf_counter() - start
    error = float(np.abs(contour.matrix - closed_loop.projection_matrix(pd)).max())
    flops = FLOPS["closed_loop.projection_via_contour"]({"clo": clo}, contour)
    return {"self_s": seconds, "entry_error": error, "flops": flops,
            "ok": error < ORACLE_ENTRY_TOL}


def layer_metrics(tracer: Tracer, loop: Loop) -> dict[str, float]:
    """Per-operation self time, calls and counts of a traced loop."""
    ops = len(loop.times)
    self_time = tracer.self_times()
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_id = {s.id: s for s in tracer.spans}
    sweep_children = 0.0
    for span in tracer.spans:
        name = "serialize.write" if span.name.startswith("serialize.write") else span.name
        busy[name] += self_time[span.id]
        calls[span.name] += 1
        parent = by_id.get(span.parent)
        if parent is not None and parent.name == "cli.cmd_sweep":
            sweep_children += span.end - span.start
    sweep_wall = sum(s.end - s.start for s in tracer.spans if s.name == "cli.cmd_sweep")
    attempts = calls["verify.open_loop_trajectory"]
    metrics = {f"{n}.self_s": busy[n] / ops for n in SELF_TIMED}
    metrics.update({f"{n}.calls": calls[n] / ops for n in COUNTED})
    metrics.update({f"{n}.flops_computed": tracer.flops[n] / ops for n in FLOP_COUNTED})
    metrics["grid.GridFunction.constructed"] = tracer.constructed / ops
    metrics["verify.perturbation.accept_ratio"] = (
        sum(loop.accepted) / attempts if attempts else 0.0)
    metrics["serialize.bytes_written"] = statistics.mean(loop.bytes_written or [0])
    metrics["cli.sweep.parallel_ratio"] = (
        sweep_children / sweep_wall if sweep_wall else 0.0)
    metrics["trace.op_p50_s"] = loop.p50
    return metrics


def inclusive_per_op(tracer: Tracer, ops: int) -> dict[str, float]:
    """Span duration per operation by name, children included."""
    total: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        total[span.name] += span.end - span.start
    return {name: value / ops for name, value in sorted(total.items())}


def single_thread_repeat(args, root: Path) -> dict[str, float]:
    """The traced loop again in a child with OPENBLAS_NUM_THREADS=1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1", "--single-thread-child"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=root,
                          env=env, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"single-threaded repeat failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def op_tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n < 11:
        return None
    return {"value_s": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def traced_loop(cli, workload, inp, work, seconds):
    with Tracer() as tracer:
        loop = run_loop(cli, workload, inp, work, TRACED_SHARE * seconds, tracer)
    return tracer, loop


def child(args, workload: Workload, inp: Input, work: Path) -> int:
    from akgrowth import cli

    cli.main([*inp.cold_argv, "--out", str(work / "warm")])
    tracer, loop = traced_loop(cli, workload, inp, work, args.seconds)
    metrics = layer_metrics(tracer, loop)
    print(json.dumps({"op_p50_s": loop.p50,
                      **{n: metrics[f"{n}.self_s"] for n in SELF_TIMED}}))
    return 0


def measure(args, workload: Workload, inp: Input, src: Path, work: Path,
            root: Path) -> int:
    env = environment()
    print(f"environment: {json.dumps(env)}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    setup = [setup_sample(src, inp, work / f"setup{i}") for i in range(SETUP_SAMPLES)]
    failures = [f"set-up sample {i} failed" for i, s in enumerate(setup) if not s["ok"]]

    from akgrowth import cli

    if cli.main([*inp.cold_argv, "--out", str(work / "warm")]) != 0:
        failures.append("warm-up call failed")
    loop = run_loop(cli, workload, inp, work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record: dict = {"workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "environment": env,
                    "op_times_s": loop.times, "op_tail": op_tail(loop.times),
                    "setup_samples": setup}
    negative_failed = 0
    if workload.name == "verify-audit":
        negative_failed = int(negative_control(cli, workload, inp, work))
        if not negative_failed:
            failures.append("negative control (--debug-perturb-alpha 0.05) passed")
    oracle = None
    if workload.name == "closed-loop-512":
        oracle = contour_oracle(inp)
        record["oracle"] = {"name": "closed_loop.projection_via_contour", **oracle}
        if not oracle["ok"]:
            failures.append(f"contour oracle entry error {oracle['entry_error']:g}")

    attempted = len(loop.times)
    failed = len(loop.failures)
    if args.trace:
        tracer, traced = traced_loop(cli, workload, inp, work, args.seconds)
        failures += traced.failures
        metrics = layer_metrics(tracer, traced)
        # an oracle, timed in the correctness pass, not part of any op
        metrics["closed_loop.projection_via_contour.self_s"] = (
            oracle["self_s"] if oracle else 0.0)
        metrics["closed_loop.projection_via_contour.flops_computed"] = (
            oracle["flops"] if oracle else 0.0)
        metrics["setup.import_s"] = statistics.median(s.get("import_s", 0.0) for s in setup)
        metrics["setup.first_call_s"] = statistics.median(
            s.get("first_call_s", 0.0) for s in setup)
        metrics["trace.overhead_s"] = traced.p50 - loop.p50
        metrics["run.fail_frac"] = failed / attempted
        metrics["check.negative_control_failed"] = negative_failed
        single = single_thread_repeat(args, root)
        metrics["st.op_p50_s"] = single["op_p50_s"]
        metrics.update({f"st.{n}.self_s": single[n] for n in SELF_TIMED})
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        record["untraced_op_p50_s"] = loop.p50
        record["traced_op_times_s"] = traced.times
        record["inclusive_s_per_op"] = inclusive_per_op(tracer, len(traced.times))
        if traced.infeasible:
            record["sweep_points"] = inp.points
            record["sweep_infeasible_per_op"] = traced.infeasible
        tracer.write_csv(out_dir / f"spans-{workload.name}-seed{args.seed}.csv")
    else:
        metrics = {"setup_s": statistics.median(s["wall_s"] for s in setup),
                   "op_p50_s": loop.p50, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    failures = loop.failures + failures
    record["failures"] = failures
    record["metrics"] = metrics
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for problem in failures:
        print(f"failure: {problem}")
    for name, seconds in record.get("inclusive_s_per_op", {}).items():
        print(f"inclusive {name}: {seconds:.6f} s/op "
              f"({seconds / metrics['trace.op_p50_s']:.1%} of traced op_p50_s)")
    if oracle:
        print(f"oracle closed_loop.projection_via_contour: {oracle['self_s']:.6f} s, "
              f"max entry error {oracle['entry_error']:.3e} vs projection_matrix")
    if "sweep_points" in record:
        print(f"sweep: {metrics['spectral.eigendecompose.calls']:g} eigendecompose calls/op "
              f"for {inp.points} points and {statistics.mean(traced.infeasible):g} "
              "infeasible")
    if record["op_tail"]:
        tail = record["op_tail"]
        print(f"op_tail_s: p{tail['percentile']:.1f} = {tail['value_s']:.6f} s "
              f"over {tail['samples']} ops")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "akgrowth" / "__init__.py").is_file():
        print(f"error: no akgrowth sources under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        inp = workload.generate(np.random.default_rng(args.seed), work)
        if args.single_thread_child:
            return child(args, workload, inp, work)
        return measure(args, workload, inp, src, work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
