"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

``--check`` regenerates into a temporary directory and writes nothing under
``tests/golden``.  It prints, per kept file and for the manifest, whether
the new file is byte-identical to the committed one and, if not, the
largest absolute and relative drift of its numbers; it exits 1 when any
file differs.

Each case runs one subcommand in-process on a small input and keeps the files
it names.  The configs are the two demo configs with ``n_steps = 40`` (the
commands run them at ``--n-points 32``) and a 12-point sweep of the
homogeneous one; they are written next to the outputs, so the golden set
does not move when a demo config does.  ``manifest.json`` records each
case's command line, exit code and kept files.  Regenerate only when an
output is meant to change, and record the change.
"""

from __future__ import annotations

import argparse
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


# a number in a JSON or CSV output; the text between numbers must match
NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def write_configs(directory: Path) -> None:
    texts = {}
    for name in ("homogeneous", "variable"):
        demo = (DEMOS / f"config_{name}.cfg").read_text()
        texts[name] = re.sub(r"(?m)^n_steps = .*$", "n_steps = 40", demo)
    texts["sweep"] = texts["homogeneous"] + SWEEP_LINES
    for name, text in texts.items():
        (directory / f"{name}.cfg").write_text(text)


def run_cases(configs: Path, root: Path) -> list[dict]:
    """Run every case with the configs in ``configs``, each into ``root / name``;
    the manifest entries."""
    manifest = []
    for name, command, config, args, keep in CASES:
        flags = [] if config is None else ["--config", str(configs / config)]
        code = main([command, *flags, *args, "--out", str(root / name), "--quiet"])
        manifest.append({"name": name, "command": command, "config": config,
                         "args": args, "exit_code": code, "files": keep})
    return manifest


def regenerate() -> int:
    write_configs(GOLDEN)
    with tempfile.TemporaryDirectory() as scratch:
        manifest = run_cases(GOLDEN, Path(scratch))
        for case in manifest:
            target = GOLDEN / case["name"]
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for file in case["files"]:
                shutil.copyfile(Path(scratch) / case["name"] / file, target / file)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def drift(new: str, golden: str) -> str:
    """How ``new`` differs from ``golden``: identical, or the largest drift
    of its numbers when the text between them matches."""
    if new == golden:
        return "identical"
    if NUMBER.split(new) != NUMBER.split(golden):
        return "differs outside its numbers"
    worst_abs = worst_rel = 0.0
    worst_pair = ""
    for a, b in zip(map(float, NUMBER.findall(new)), map(float, NUMBER.findall(golden))):
        worst_abs = max(worst_abs, abs(a - b))
        if b != 0.0 and abs(a - b) / abs(b) > worst_rel:
            worst_rel = abs(a - b) / abs(b)
            worst_pair = f" ({b!r} -> {a!r})"
    return (f"differs: max abs drift {worst_abs:.3g}, "
            f"max rel drift {worst_rel:.3g}{worst_pair}")


def check() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_configs(root)
        manifest = run_cases(root, root)
        texts = {"manifest.json": json.dumps(manifest, indent=2) + "\n"}
        for case in manifest:
            for file in case["files"]:
                texts[f"{case['name']}/{file}"] = (root / case["name"] / file).read_text()
    differs = False
    for path, text in texts.items():
        golden = GOLDEN / path
        verdict = drift(text, golden.read_text()) if golden.exists() else "not committed"
        print(f"{path}: {verdict}")
        differs |= verdict != "identical"
    return int(differs)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh regeneration with the committed set")
    sys.exit(check() if parser.parse_args().check else regenerate())
