"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs one subcommand in-process on a small input and keeps the files
it names.  The configs are the two demo configs with ``n_steps = 40`` (the
commands run them at ``--n-points 32``) and a 12-point sweep of the
homogeneous one; they are written next to the outputs, so the golden set
does not move when a demo config does.  ``manifest.json`` records each
case's command line, exit code and kept files.  Regenerate only when an
output is meant to change, and record the change.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

from akgrowth.cli import main

GOLDEN = Path(__file__).resolve().parent
DEMOS = GOLDEN.parents[1] / "demos"

# 3 rho x 2 gamma x 2 sigma; rho = 0.45 with gamma = 0.5 is infeasible
SWEEP_LINES = "sweep.rho = 0.45, 0.75, 0.9\nsweep.gamma = 0.5, 2.0\nsweep.sigma = 1.0, 2.0\n"

SMALL = ["--n-points", "32"]
SOLVE_FILES = ["spectral.json", "hjb.json", "value.json", "basis.csv"]
SIMULATE_FILES = ["trajectory.csv", "trajectory_summary.json", "stability.json",
                  "deviations.csv"]
CASES = [
    ("homogeneous-solve", "solve", "homogeneous.cfg", SMALL, SOLVE_FILES),
    ("homogeneous-simulate", "simulate", "homogeneous.cfg", SMALL, SIMULATE_FILES),
    ("homogeneous-verify", "verify", "homogeneous.cfg", SMALL, ["audit.json"]),
    ("homogeneous-verify-alpha", "verify", "homogeneous.cfg",
     [*SMALL, "--debug-perturb-alpha", "0.05"], ["audit.json"]),
    ("variable-solve", "solve", "variable.cfg", SMALL, SOLVE_FILES),
    ("variable-simulate", "simulate", "variable.cfg", SMALL, SIMULATE_FILES),
    ("variable-verify", "verify", "variable.cfg", SMALL, ["audit.json"]),
    ("variable-verify-alpha", "verify", "variable.cfg",
     [*SMALL, "--debug-perturb-alpha", "0.05"], ["audit.json"]),
    ("sweep", "sweep", "sweep.cfg", SMALL, ["sweep.csv"]),
    ("perron", "perron-audit", None, ["--count", "200", "--seed", "0"], ["perron.json"]),
]


def write_configs() -> None:
    texts = {}
    for name in ("homogeneous", "variable"):
        demo = (DEMOS / f"config_{name}.cfg").read_text()
        texts[name] = re.sub(r"(?m)^n_steps = .*$", "n_steps = 40", demo)
    texts["sweep"] = texts["homogeneous"] + SWEEP_LINES
    for name, text in texts.items():
        (GOLDEN / f"{name}.cfg").write_text(text)


def regenerate() -> int:
    write_configs()
    manifest = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, command, config, args, keep in CASES:
            out = Path(scratch) / name
            flags = [] if config is None else ["--config", str(GOLDEN / config)]
            code = main([command, *flags, *args, "--out", str(out), "--quiet"])
            case = {"name": name, "command": command, "config": config, "args": args,
                    "exit_code": code, "files": keep}
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for file in keep:
                shutil.copyfile(out / file, target / file)
            manifest.append(case)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
