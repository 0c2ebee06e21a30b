import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akgrowth import cli, closed_loop, hjb, inner_l2, spectral, stability, verify
from akgrowth.cli import main
from akgrowth.config import ProfileSpec, parse_config
from akgrowth.errors import ConfigError, InfeasibleParametersError, SpectrumCollisionError
from akgrowth.perron import (
    GeneratorMatrix,
    eigenvalues_admitting_positive_eigenvector,
    is_irreducible,
    perron_data,
    random_irreducible_metzler,
)

from conftest import audit_draws, largest_discounted_terminal_value

WINDOW_CFG = """
schema = 1
n_points = 128
sigma = 1.0
rho = 0.75
gamma = 0.5
q = 0.0
A.kind = constant
A.value = 1.0
eta.kind = constant
eta.value = 1.0
K0.kind = cosine
K0.mean = 1.0
K0.amplitude = 0.4
K0.mode = 1
t_final = 10.0
n_steps = 200
seed = 2024
n_perturbations = 4
"""

RHO1_CFG = WINDOW_CFG.replace("rho = 0.75", "rho = 1.0")


@pytest.fixture()
def window_cfg(tmp_path):
    path = tmp_path / "window.cfg"
    path.write_text(WINDOW_CFG)
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


class TestSolve:
    def test_homogeneous_outputs(self, tmp_path):
        cfg = tmp_path / "rho1.cfg"
        cfg.write_text(RHO1_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        hjb = read_json(out / "hjb.json")
        assert abs(hjb["lambda0"] - 1.0) < 1e-9
        assert abs(hjb["g"]) < 1e-12
        assert hjb["wellposed"] is True
        spectral = read_json(out / "spectral.json")
        assert len(spectral["eigenvalues"]) == 128
        assert read_json(out / "value.json")["value"] > 0

    def test_infeasible_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(WINDOW_CFG.replace("rho = 0.75", "rho = 0.4"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_infeasible_message(self, tmp_path, capsys):
        # the error formats its message when it is read; the text is unchanged.
        # The bound's digits are the eigensolver's rounding of lambda0 = 1, so
        # they are taken from the same config's own lambda0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(WINDOW_CFG.replace("rho = 0.75", "rho = 0.4"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        grid, params, _ = parse_config(cfg.read_text()).model()
        lambda0 = cli._basis(grid, params).lambda0
        assert capsys.readouterr().err == (
            f"infeasible parameters: rho=0.4 does not exceed lambda0*(1-gamma)={lambda0 * (1 - 0.5)}\n"
        )
        assert str(InfeasibleParametersError(0.4, 0.5)) == (
            "rho=0.4 does not exceed lambda0*(1-gamma)=0.5"
        )

    def test_broken_table_exit_code(self, tmp_path):
        cfg = tmp_path / "table.cfg"
        cfg.write_text(
            WINDOW_CFG.replace(
                "A.kind = constant\nA.value = 1.0",
                "A.kind = custom-table\nA.values = 1.0, 2.0",
            )
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert not out.exists()  # validation happens before any output

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.cfg"), "--quiet"]) == 1

    @pytest.mark.parametrize(
        "name",
        ["orthonormality", "growth_law_rel", "underflow_floor", "perron_realness",
         "perron_simplicity", "perron_positivity", "metzler_slack", "b0_normalization",
         "spectrum_collision", "quadrature_consistency", "pairing_normalization",
         "contour_imag", "bound_slack", "value_equality_rel", "tail_rel",
         "dominance_rel", "hjb_residual_rel", "transversality_tail_rel"],
    )
    def test_removed_tolerance_is_unknown(self, tmp_path, capsys, name):
        # these knobs changed no command's output, gave way to a bound the
        # check derives, or became a constant beside the check that reads it,
        # so they are no longer accepted
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(WINDOW_CFG + f"tol.{name} = 1e-6\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown tolerance '{name}'")
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_tolerance_key_fails_every_command(tmp_path, capsys, command):
    # no threshold is configurable: the key fails the config before any output
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(WINDOW_CFG + "tol.dominance_rel = 1e-3\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown tolerance 'dominance_rel'\n"
    assert not out.exists()


def test_thresholds_are_constants():
    # the values the retired tol.* keys defaulted to
    assert stability.BOUND_SLACK == 1e-9
    assert verify.VALUE_EQUALITY_REL == 1e-6
    assert verify.TAIL_REL == 1e-8
    assert verify.DOMINANCE_REL == 1e-6
    assert verify.HJB_RESIDUAL_REL == 1e-9
    assert verify.TRANSVERSALITY_TAIL_REL == 1e-6


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_invalid_n_points_override(window_cfg, tmp_path, capsys, command):
    # the override is validated with the rest of the config, before any output
    out = tmp_path / "out"
    argv = [command, "--config", str(window_cfg), "--out", str(out), "--n-points", "7"]
    assert main([*argv, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
@pytest.mark.parametrize("key, invalid, flag", [("n_points", "6", "32"), ("seed", "-3", "5")])
def test_override_replaces_an_invalid_file_value(tmp_path, command, key, invalid, flag):
    # an override is applied before the config is validated, so the file's
    # value is never checked and the run is the one with the flag's value
    # written in
    line = re.search(f"^{key} = .*$", WINDOW_CFG, re.M).group()
    runs = {}
    for name, value, flags in [("flag", invalid, [f"--{key.replace('_', '-')}", flag]),
                               ("file", flag, [])]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(WINDOW_CFG.replace(line, f"{key} = {value}"))
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out), *flags, "--quiet"]) == 0
        runs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert runs["flag"] and runs["flag"] == runs["file"]


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
@pytest.mark.parametrize("n_points", [None, 32])
def test_profiles_built_once_per_op(tmp_path, monkeypatch, command, n_points):
    # a run is one model: the config builds the grid and its three profiles
    # once, at the n the command runs, and every command reads that model
    cfg = tmp_path / "variable.cfg"
    cfg.write_text(VARIABLE_DEMO.read_text() + "sweep.sigma = 1.0, 2.0, 3.0\n")
    built = []
    build = ProfileSpec.build

    def spy(self, grid):
        built.append(grid.n_points)
        return build(self, grid)

    monkeypatch.setattr(ProfileSpec, "build", spy)
    flags = [] if n_points is None else ["--n-points", str(n_points)]
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags, "--quiet"]) == 0
    assert built == [n_points or 128] * 3


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, source):
    # the config file and the --seed override pass the same check
    cfg = tmp_path / "seed.cfg"
    if source == "config":
        cfg.write_text(WINDOW_CFG.replace("seed = 2024", "seed = -3"))
        flags, seed = [], -3
    else:
        cfg.write_text(WINDOW_CFG)
        flags, seed = ["--seed", "-1"], -1
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags, "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_K0_outside_half_space_is_a_config_error(tmp_path, capsys, command):
    # the value function lives on <K0, b0> > 0; checked before any output
    cfg = tmp_path / "k0.cfg"
    cfg.write_text(WINDOW_CFG.replace("K0.mean = 1.0", "K0.mean = -1.0"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: <K0, b0> = -")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
@pytest.mark.parametrize("gamma", [0.999, 1.001, 1 - 1e-6, 1 + 1e-6])
def test_gamma_near_one_is_a_config_error(tmp_path, capsys, command, gamma):
    # alpha0 = alpha^(1/(1-gamma)) overflows below gamma = 1 and underflows
    # to 0 above it; it is a config error of solve alone, the one command
    # that reports it, named before any output.  No closed form reads
    # alpha0, so the other commands run, and verify passes all its checks
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(WINDOW_CFG.replace("gamma = 0.5", f"gamma = {gamma}"))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--n-points", "32"]
    if command == "solve":
        assert main([*argv, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: gamma = {gamma!r} is too close to 1: alpha0 = ")
        assert err.count("\n") == 1
        assert not out.exists()
        return
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    if command == "verify":
        audit = read_json(out / "audit.json")
        assert len(audit["checks"]) == 4 and all(audit["checks"].values())


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_alpha_out_of_float_range_is_a_config_error(tmp_path, capsys, command):
    # a huge rho with gamma > 1 underflows alpha to 0, whose power alpha0
    # would then divide by zero
    cfg = tmp_path / "huge_rho.cfg"
    cfg.write_text(WINDOW_CFG.replace("gamma = 0.5", "gamma = 20.0")
                   .replace("rho = 0.75", "rho = 1e50"))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--n-points", "32"]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rho = 1e+50 with gamma = 20.0: alpha = 0.0 ")
    assert err.count("\n") == 1
    assert not out.exists()


VARIABLE_DEMO = Path(__file__).resolve().parents[1] / "demos" / "config_variable.cfg"
HOMOGENEOUS_DEMO = VARIABLE_DEMO.with_name("config_homogeneous.cfg")


@pytest.mark.parametrize(
    "command, edit",
    [("solve", ("sigma = 2.0", "sigma = 1e-3")),
     ("sweep", ("out_dir", "sweep.sigma = 1e-3, 2.0\nout_dir"))],
)
def test_unresolvable_b0_is_a_config_error(tmp_path, capsys, command, edit):
    # at sigma = 1e-3 the leading eigenfunction of the variable demo decays
    # below float64 resolution (min/max -2.2e-16 at n = 128 and at n = 1024):
    # a rejected input, named without a traceback, not an internal error
    cfg = tmp_path / "small_sigma.cfg"
    cfg.write_text(VARIABLE_DEMO.read_text().replace(*edit))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma = 0.001 with n_points = 128: ")
    assert "b0 min/max = -" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_unresolvable_perron_pair_is_a_config_error(tmp_path, capsys):
    # verify's b0 comes from inverse iteration, whose tails at sigma = 1e-4
    # lie at the noise floor, so the sign of their min/max is the solver's
    # rounding; the error states the rule it breaks, a min/max below the margin
    cfg = tmp_path / "small_sigma.cfg"
    cfg.write_text(VARIABLE_DEMO.read_text().replace("sigma = 2.0", "sigma = 1e-4"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma = 0.0001 with n_points = 128: ")
    ratio, margin = re.search(r"b0 min/max = (\S+), not above its rounding margin "
                              r"16 eps max\|lambda\| / \(lambda0 - lambda1\) = (\S+);", err).groups()
    assert float(ratio) < float(margin)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("sigma", ["1e-3", "2e-3"])
def test_b0_within_its_rounding_margin_is_a_config_error(tmp_path, capsys, command, sigma):
    # a b0 minimum below 16 eps max|lambda| / gap of max b0 has the sign of
    # the eigensolver's noise (eigh's min/max is -2.2e-16 at sigma = 1e-3 and
    # +2.6e-15 at 2e-3), so both decompositions reject it alike
    cfg = tmp_path / "small_sigma.cfg"
    cfg.write_text(VARIABLE_DEMO.read_text().replace("sigma = 2.0", f"sigma = {sigma}"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sigma = {float(sigma)!r} with n_points = 128: ")
    assert "b0 min/max = " in err and "rounding margin" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_b0_above_its_rounding_margin_runs(tmp_path):
    # sigma = 3e-3: b0 min/max 1.5e-12 against the margin 9.9e-13
    cfg = tmp_path / "small_sigma.cfg"
    cfg.write_text(_demo_with(VARIABLE_DEMO, [("sigma = 2.0", "sigma = 3e-3"),
                                              ("rho = 0.6", "rho = 0.7")]))
    for command in ("solve", "verify"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize(
    "demo, rho",
    [(HOMOGENEOUS_DEMO, ("rho = 0.75", "rho = 0.512")),
     (VARIABLE_DEMO, ("rho = 0.6", "rho = 0.52"))],
)
def test_transversality_near_the_well_posedness_bound(tmp_path, recwarn, demo, rho):
    # rho a little above lambda0*(1-gamma) (0.5 and 0.5111 here) stretches
    # the horizon so far that e^(r t) at its end leaves float64, though the
    # discounted value e^(-(rho - r(1-gamma)) t) it enters decays
    cfg = tmp_path / "near.cfg"
    cfg.write_text(demo.read_text().replace(*rho))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    audit = read_json(out / "audit.json")
    assert audit["horizon"] > 740.0  # r > 0.97 on both demos: e^(r horizon) > e^718
    assert audit["transversality"] is True
    assert audit["failed_check"] is None


def test_spectrum_collision_is_a_one_line_error(tmp_path, capsys):
    # rho = 1.0, the top of the homogeneous demo's window, puts g = 0 on
    # lambda1 = lambda2 = 0: a rejected input, named without a traceback
    cfg = tmp_path / "collision.cfg"
    cfg.write_text(HOMOGENEOUS_DEMO.read_text().replace("rho = 0.75", "rho = 1.0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: g=\S+ collides with eigenvalue lambda_\d+=[-+.e\d]+\n", err)
    assert not out.exists()


def test_g_next_to_lambda0_is_no_collision(tmp_path, capsys):
    # rho 1e-10 above the edge puts g 2e-10 below lambda0, but the series for
    # w never divides by lambda0 - g: simulate runs, and sweep writes M
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(HOMOGENEOUS_DEMO.read_text().replace("rho = 0.75", "rho = 0.5000000001")
                   + "sweep.rho = 0.5000000001\n")
    for command in ("simulate", "sweep"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command), "--quiet"]
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    M = read_json(tmp_path / "simulate" / "stability.json")["M"]
    assert M == pytest.approx(2.0, rel=1e-11)
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert float(dict(zip(header.split(","), row.split(",")))["M"]) == M


def test_small_sigma_runs_every_command(tmp_path, capsys):
    # at sigma = 3e-3 the withdrawal spans 4.6e23 and <w, b0> is 1 only to
    # 3.5e-6, inside the rounding bound of its series
    cfg = tmp_path / "small_sigma.cfg"
    cfg.write_text(_demo_with(VARIABLE_DEMO, [("sigma = 2.0", "sigma = 3e-3"),
                                              ("rho = 0.6", "rho = 0.7")]))
    for command in ("solve", "simulate", "verify", "sweep"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command), "--quiet"]
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _demo_with(demo, edits, extra=""):
    text = demo.read_text()
    for old, new in edits:
        text = text.replace(old, new)
    return text + extra


def test_subnormal_alpha0_stays_out_of_the_closed_loop(tmp_path, capsys):
    # gamma = 1.002 and rho = 1.51 put alpha0 = alpha^(1/(1-gamma)) at
    # 1.5e-310, a subnormal whose reciprocal overflows; w and beta = b0 are
    # normalised without it, so every command runs and the sweep's M is
    # the per-point one
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text(_demo_with(
        VARIABLE_DEMO, [("gamma = 0.5", "gamma = 1.002"), ("rho = 0.6", "rho = 1.51")],
        "sweep.rho = 1.51\n",
    ))
    outs = {command: tmp_path / command for command in ("solve", "simulate", "verify", "sweep")}
    for command, out in outs.items():
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert 0.0 < read_json(outs["solve"] / "hjb.json")["alpha0"] < sys.float_info.min
    M = read_json(outs["simulate"] / "stability.json")["M"]
    header, row = (outs["sweep"] / "sweep.csv").read_text().splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["M"]) == M


def test_tiny_eta_gives_the_correct_closed_loop(tmp_path, capsys):
    # eta = 1e-100 with gamma = 0.25: the feedback profile is of order 1e99
    # and the withdrawal eta * P of order one, which no intermediate power
    # may round away; the closed loop's leading eigenvalue
    # lambda0 - <withdrawal, b0> is then g, and every command runs
    text = _demo_with(
        HOMOGENEOUS_DEMO,
        [("eta.value = 1.0", "eta.value = 1e-100"), ("gamma = 0.5", "gamma = 0.25"),
         ("rho = 0.75", "rho = 0.9")],
        "sweep.rho = 0.9\n",
    )
    cfg = tmp_path / "tiny_eta.cfg"
    cfg.write_text(text)
    for command in ("solve", "simulate", "verify", "sweep"):
        out = tmp_path / command
        argv = [command, "--config", str(cfg), "--out", str(out), "--n-points", "32"]
        assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    params, _, basis, _ = cli._state_model(parse_config(text, n_points=32))
    sol = hjb.solve_hjb(basis, params)
    assert abs(basis.lambda0 - inner_l2(sol.withdrawal, basis.b0) - sol.g) <= 1e-12


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_underflowing_profile_above_gamma_one_is_a_config_error(tmp_path, capsys, command):
    # q = 1000 on eta down to 0.05 puts log P near -1800 at eta's minimum:
    # with gamma = 2 a zero consumption there has utility -inf, so the input
    # is rejected before any output rather than run on a wrong profile
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text(_demo_with(
        VARIABLE_DEMO,
        [("gamma = 0.5", "gamma = 2.0"), ("q = 0.5", "q = 1000.0"),
         ("eta.amplitude = 0.1", "eta.amplitude = 0.95")],
    ))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rho = 0.6 with gamma = 2.0: the feedback profile "
                          "underflows to 0 at node ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate", "verify", "sweep"])
def test_overflowing_withdrawal_is_a_config_error(tmp_path, capsys, command):
    # eta = 1e-100 with gamma = 0.25 and rho = 1e250: alpha is a normal
    # double, but log P = 806 puts the profile and eta * P past float max
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(_demo_with(
        HOMOGENEOUS_DEMO,
        [("eta.value = 1.0", "eta.value = 1e-100"), ("gamma = 0.5", "gamma = 0.25"),
         ("rho = 0.75", "rho = 1e250")],
    ))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--n-points", "32"]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rho = 1e+250 with gamma = 0.25: the withdrawal eta * P "
                          "overflows at node 0 (theta = 0); log P spans [806.")
    assert err.count("\n") == 1
    assert not out.exists()


def test_large_alpha_runs(tmp_path, capsys):
    # gamma = 0.2, q = 400 and eta.amplitude = 0.99 on the variable demo put
    # alpha near 2.1e119 and alpha0 near 1.4e149, both normal doubles, though
    # the integral in alpha overflows in linear space; every command runs
    cfg = tmp_path / "large_alpha.cfg"
    cfg.write_text(_demo_with(
        VARIABLE_DEMO,
        [("gamma = 0.5", "gamma = 0.2"), ("q = 0.5", "q = 400.0"),
         ("eta.amplitude = 0.1", "eta.amplitude = 0.99"), ("rho = 0.6", "rho = 1.5")],
    ))
    for command in ("solve", "simulate", "verify", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    summary = read_json(tmp_path / "solve" / "hjb.json")
    assert 1e119 < summary["alpha"] < 1e120 and 1e149 < summary["alpha0"] < 1e150


def test_underflowing_profile_below_gamma_one_is_zero(tmp_path, capsys):
    # q = 400 on eta down to 0.01 with gamma = 0.5: P underflows to 0 where
    # its true value is below the float range, which gives those nodes the
    # utility 0 that the true value rounds to, and every command runs
    text = _demo_with(
        VARIABLE_DEMO,
        [("q = 0.5", "q = 400.0"), ("eta.amplitude = 0.1", "eta.amplitude = 0.99")],
    )
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text(text)
    for command in ("solve", "simulate", "verify", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    params, _, basis, _ = cli._state_model(parse_config(text))
    sol = hjb.solve_hjb(basis, params)
    log_profile = (((params.q - 1.0) * np.log(params.eta.values) - math.log(sol.alpha)
                    - np.log(basis.b0.values)) / params.gamma)
    zero = sol.feedback_profile.values == 0.0
    assert zero.any()
    assert (log_profile[zero] < math.log(5e-324)).all()  # below the least subnormal


DETERMINISM_SWEEP ="sweep.rho = 0.45, 0.75\nsweep.sigma = 1.0, 2.0\n"


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep", "perron-audit"])
def test_rerun_writes_identical_bytes(tmp_path, command):
    cfg = tmp_path / "window.cfg"
    cfg.write_text(WINDOW_CFG + DETERMINISM_SWEEP)
    if command == "perron-audit":
        argv = [command, "--count", "50", "--seed", "5"]
    else:
        argv = [command, "--config", str(cfg), "--n-points", "32"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
    written = [{path.name: path.read_bytes() for path in out.iterdir()} for out in outs]
    assert written[0]
    assert written[0] == written[1]


class TestSimulate:
    def test_window_run_flags(self, window_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(window_cfg), "--out", str(out), "--quiet"]) == 0
        stability = read_json(out / "stability.json")
        assert stability["admissibility_condition"] is True
        assert stability["admissible"] is True
        assert stability["bound_satisfied"] is True
        assert stability["dominance_ok"] is True
        assert abs(stability["M"] - 2.0) < 1e-9
        summary = read_json(out / "trajectory_summary.json")
        assert abs(summary["fitted_growth_rate"] - summary["g"]) < 1e-8
        assert (out / "trajectory.csv").exists()
        assert (out / "deviations.csv").exists()

    def test_condition_fails_positivity_reported_independently(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(WINDOW_CFG.replace("K0.amplitude = 0.4", "K0.amplitude = 0.6"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        stability = read_json(out / "stability.json")
        assert stability["admissibility_condition"] is False  # 2*0.6 > 1
        assert isinstance(stability["admissible"], bool)

    def test_overflowing_horizon_is_a_config_error(self, tmp_path, capsys):
        # e^(0.5 * 2000) is beyond float64: no NaN rows and no verdicts on them
        cfg = tmp_path / "long.cfg"
        cfg.write_text(WINDOW_CFG.replace("t_final = 10.0", "t_final = 2000.0"))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--n-points", "32", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_final = 2000.0 is too long")
        assert "Traceback" not in err
        assert not out.exists()

    def test_steady_state_start(self, tmp_path):
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(WINDOW_CFG.replace("K0.amplitude = 0.4", "K0.amplitude = 0.0"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        deviations = (out / "deviations.csv").read_text().strip().split("\n")[1:]
        assert all(float(line.split(",")[1]) < 1e-8 for line in deviations)


class TestVerify:
    def test_passes_and_is_deterministic(self, window_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", str(window_cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["verify", "--config", str(window_cfg), "--out", str(out2), "--quiet"]) == 0
        bytes1 = (out1 / "audit.json").read_bytes()
        bytes2 = (out2 / "audit.json").read_bytes()
        assert bytes1 == bytes2
        audit = read_json(out1 / "audit.json")
        assert audit["all_dominated"] is True
        assert audit["rel_gap"] < 1e-6
        assert audit["max_hjb_residual"] < 1e-9
        assert audit["transversality"] is True
        assert audit["failed_check"] is None

    @pytest.mark.parametrize("rho", ["40", "60", "250"])
    def test_negative_pairing_exponent_certifies(self, tmp_path, rho):
        # strong eta variation and gamma = 0.2 make c = (1-gamma) Q1 << 0 for
        # some draws (down to about -100 at rho = 250), where the payoff's
        # c-series alternates with terms near e^|c|; summed in positive terms
        # it certifies, each draw strictly below v
        cfg = tmp_path / "negative_c.cfg"
        text = VARIABLE_DEMO.read_text().replace("eta.amplitude = 0.1", "eta.amplitude = 0.9")
        cfg.write_text(text.replace("gamma = 0.5", "gamma = 0.2").replace("rho = 0.6", f"rho = {rho}"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        audit = read_json(out / "audit.json")
        assert all(audit["checks"].values())
        assert audit["failed_check"] is None
        assert audit["max_perturbed_J"] < audit["v"]

    def test_fast_feedback_decay_is_resolved(self, tmp_path):
        # a0 = rho - g (1-gamma) = 1246 on a horizon floored at 1: one unit
        # interval of 64 nodes used to miss v by 2.1e-5 and fail value_equality
        cfg = tmp_path / "fast.cfg"
        text = HOMOGENEOUS_DEMO.read_text().replace("gamma = 0.5", "gamma = 0.2")
        cfg.write_text(text.replace("rho = 0.75", "rho = 250"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        audit = read_json(out / "audit.json")
        assert audit["horizon"] == 1.0
        assert audit["rel_gap"] < 1e-12
        assert audit["failed_check"] is None

    def test_no_perturbations_rejected(self, tmp_path, capsys):
        # with no perturbed plan the dominance check would pass untested
        cfg = tmp_path / "none.cfg"
        cfg.write_text(WINDOW_CFG.replace("n_perturbations = 4", "n_perturbations = -1"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_variable_profiles_pass(self, tmp_path):
        # regression: with spatially varying eta the perturbed plans shift
        # <x, b0>; the envelope check must still pass
        cfg = tmp_path / "variable.cfg"
        text = (
            "schema = 1\n"
            "n_points = 64\n"
            "sigma = 2.0\nrho = 0.6\ngamma = 0.5\nq = 0.5\n"
            "A.kind = cosine\nA.mean = 1.0\nA.amplitude = 0.3\nA.mode = 1\n"
            "eta.kind = cosine\neta.mean = 1.0\neta.amplitude = 0.1\neta.mode = 2\n"
            "K0.kind = cosine\nK0.mean = 1.0\nK0.amplitude = 0.4\nK0.mode = 1\n"
            "t_final = 8.0\nn_steps = 160\nseed = 7\nn_perturbations = 3\n"
        )
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        audit = read_json(out / "audit.json")
        assert audit["transversality"] is True
        assert audit["max_discounted_terminal_rel"] <= audit["perturbed_terminal_envelope"]
        # the figure is the largest value read off the drawn plans' pairings
        # at T, on the basis verify itself takes
        params, K0, basis, _ = cli._state_model(parse_config(text), spectral.principal_pair)
        sol = hjb.solve_hjb(basis, params)
        p0 = inner_l2(K0, basis.b0)
        closed = largest_discounted_terminal_value(
            sol, p0, audit["horizon"], audit_draws(3, seed=7)
        )
        assert abs(audit["max_discounted_terminal_rel"] - closed) <= 1e-12 * closed

    def test_gamma_above_one_envelope_covers_overconsumption(self, tmp_path):
        # gamma = 6, lambda0 = 4 and eta = 1 + 0.9 cos: the plans that
        # overconsume where eta is large leave a discounted terminal value
        # above twice the feedback path's decay, which the envelope must cover
        text = (
            "schema = 1\n"
            "n_points = 64\n"
            "sigma = 0.5\nrho = 0.5\ngamma = 6.0\nq = 0.0\n"
            "A.kind = constant\nA.value = 4.0\n"
            "eta.kind = cosine\neta.mean = 1.0\neta.amplitude = 0.9\neta.mode = 1\n"
            "K0.kind = constant\nK0.value = 1.0\n"
            "t_final = 8.0\nn_steps = 160\nseed = 1\nn_perturbations = 20\n"
        )
        cfg = tmp_path / "gamma6.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        audit = read_json(out / "audit.json")
        assert audit["failed_check"] is None
        params, _, basis, _ = cli._state_model(parse_config(text))
        sol = hjb.solve_hjb(basis, params)
        decay = math.exp(-verify.optimal_payoff_exponent(sol) * audit["horizon"])
        assert audit["max_discounted_terminal_rel"] > 2.0 * decay
        assert audit["max_discounted_terminal_rel"] <= audit["perturbed_terminal_envelope"]

    def test_alpha_perturbation_names_residual(self, window_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verify", "--config", str(window_cfg), "--out", str(out),
                "--debug-perturb-alpha", "0.01", "--quiet",
            ]
        )
        assert code == 3
        audit = read_json(out / "audit.json")
        assert audit["failed_check"] == "hjb_residual"

    @pytest.mark.parametrize("value", ["-1", "-2", "nan"])
    def test_alpha_perturbation_must_exceed_minus_one(self, window_cfg, tmp_path, capsys,
                                                      value):
        out = tmp_path / "out"
        argv = ["verify", "--config", str(window_cfg), "--out", str(out),
                "--debug-perturb-alpha", value]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: --debug-perturb-alpha must be > -1 and finite, got {float(value)!r}\n"
        )
        assert not out.exists()

    def test_feedback_payoff_takes_no_dense_path(self, window_cfg, tmp_path, monkeypatch):
        # the audit integrates the feedback plan's scalar discounted utility;
        # the dense payoff and the control-path rows are test oracles only
        def dense(*args, **kwargs):
            raise AssertionError("dense feedback payoff evaluated")

        monkeypatch.setattr(verify, "payoff", dense)
        monkeypatch.setattr(hjb, "optimal_control_path", dense)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(window_cfg), "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "audit.json")["failed_check"] is None

    def test_takes_only_the_perron_pair(self, window_cfg, tmp_path, monkeypatch):
        # every check reads the generator through (lambda0, b0): no
        # eigenvector past b0 is computed, and no closed loop is built
        def dense(*args, **kwargs):
            raise AssertionError("full eigendecomposition evaluated")

        monkeypatch.setattr(np.linalg, "eigh", dense)
        monkeypatch.setattr(spectral, "eigendecompose", dense)
        monkeypatch.setattr(closed_loop, "build_closed_loop", dense)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(window_cfg), "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "audit.json")["failed_check"] is None

    def test_unrepresentable_pairing_exponent_is_an_error(self, tmp_path, capsys):
        # rho = 1e50 makes |c| = |(1-gamma) Q1| about 5e44, past the float range
        # of e^|c|: the series' term count grew with |c|, and verify never returned
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(VARIABLE_DEMO.read_text().replace("rho = 0.6", "rho = 1e50"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: perturbation 0 \(a = \S+, m = [123], phi = \S+\): its payoff series in "
            r"c = \(1-gamma\) Q1 = -\S+e\+44 needs terms near e\^\|c\|, beyond the float "
            r"range past \|c\| = 709\.78\d+\n",
            err,
        )
        assert not out.exists()

    def test_reads_K0_only_through_its_pairing(self, window_cfg, tmp_path, monkeypatch):
        # the residual is taken at K0 and transversality from the closed
        # loop's leading mode: no path is simulated
        plain = tmp_path / "plain"
        assert main(["verify", "--config", str(window_cfg), "--out", str(plain), "--quiet"]) == 0

        def dense(*args, **kwargs):
            raise AssertionError("dense path evaluated")

        monkeypatch.setattr(closed_loop, "simulate", dense)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(window_cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "audit.json").read_bytes() == (plain / "audit.json").read_bytes()


class TestSweep:
    def test_grid_of_points(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(WINDOW_CFG + "sweep.rho = 0.45, 0.75, 0.9\nsweep.gamma = 0.5, 2.0, 3.0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 10
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        infeasible = [row for row in rows if row["feasible"] == "false"]
        assert [row["rho"] for row in infeasible] == ["0.45000000000000001"]
        for row in rows:
            recomputed = (float(row["lambda0"]) - float(row["rho"])) / float(row["gamma"])
            assert abs(float(row["g"]) - recomputed) < 1e-12
            if row["feasible"] == "false":
                assert row["alpha"] == ""

    def test_one_eigendecompose_per_sigma(self, tmp_path, monkeypatch):
        # rho and gamma enter only through closed forms, so each distinct
        # sigma is decomposed once, and infeasible points are checked on
        # that shared basis
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            WINDOW_CFG
            + "sweep.rho = 0.45, 0.75\nsweep.gamma = 0.5, 2.0\nsweep.sigma = 1.0, 2.0, 1.0\n"
        )
        calls = []
        original = spectral.eigendecompose

        def spy(op):
            calls.append(op)
            return original(op)

        monkeypatch.setattr(spectral, "eigendecompose", spy)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 12
        assert any(",false," in line for line in lines)
        assert len(calls) == 2

    def test_row_kernels_once_per_sigma(self, monkeypatch):
        # every (gamma, rho) row of a sigma is one batch: one solve_rows and
        # one projection_rows call per distinct sigma, over all its rows
        config = dataclasses.replace(
            parse_config(WINDOW_CFG),
            sweep={"rho": [0.45, 0.75, 0.9], "gamma": [0.5, 2.0, 0.5],
                   "sigma": [1.0, 2.0, 1.0]},
        )
        solved, projected = [], []
        solve_rows, projection_rows = hjb.solve_rows, closed_loop.projection_rows

        def solve_spy(basis, params, gammas, rhos):
            solved.append((list(gammas), list(rhos)))
            return solve_rows(basis, params, gammas, rhos)

        def projection_spy(basis, withdrawal, g):
            projected.append(len(g))
            return projection_rows(basis, withdrawal, g)

        monkeypatch.setattr(hjb, "solve_rows", solve_spy)
        monkeypatch.setattr(closed_loop, "projection_rows", projection_spy)
        rows = cli.sweep_rows(config)
        assert len(rows) == 27
        batch = ([0.5] * 3 + [2.0] * 3, [0.45, 0.75, 0.9] * 2)
        assert solved == [batch, batch]
        # projection_rows takes the batch's rows that solve_rows passed
        feasible = {(row["rho"], row["gamma"], row["sigma"]) for row in rows if row["feasible"]}
        assert projected == [sum(s == sigma for *_, s in feasible) for sigma in (1.0, 2.0)]
        assert 0 < min(projected) and max(projected) < 6

    @pytest.mark.parametrize(
        "sweep", ["sweep.gamma = 0.5, 1.0\n", "sweep.rho = 0.75, -0.2\n",
                  "sweep.sigma = 1.0, 0.0\n"]
    )
    def test_bad_swept_value_is_a_config_error(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(WINDOW_CFG + sweep)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "sweep.csv").exists()


def _reference_sweep_row(config, rho, gamma, sigma):
    """One sweep row computed alone: its own config, model and basis."""
    point = dataclasses.replace(config, rho=rho, gamma=gamma, sigma=sigma)
    row = {"rho": rho, "gamma": gamma, "sigma": sigma}
    grid, params, _ = point.model()
    basis = cli._basis(grid, params)
    try:
        sol = hjb.solve_hjb(basis, params)
    except InfeasibleParametersError:
        row.update(
            lambda0=basis.lambda0, lambda1=basis.lambda1, feasible=False,
            g=hjb.balanced_growth(params.rho, params.gamma, basis.lambda0),
            alpha=None, M=None, rate=None, dominant=None,
        )
        return row
    try:
        pd = closed_loop.compute_projection_data(basis, sol)
        M = float(stability.bound_constant(pd.w.values, pd.beta.values, pd.basis.grid.weight))
    except SpectrumCollisionError:
        M = None
    row.update(
        lambda0=basis.lambda0, lambda1=basis.lambda1, feasible=True,
        g=sol.g, alpha=sol.alpha, M=M, rate=sol.g - basis.lambda1,
        dominant=bool(sol.g > basis.lambda1),
    )
    return row


VARIABLE_SWEEP_CFG = """
schema = 1
n_points = 16
sigma = 1.0
rho = 1.5
gamma = 0.5
q = 0.5
A.kind = cosine
A.mean = 1.0
A.amplitude = 0.3
A.mode = 1
eta.kind = cosine
eta.mean = 1.0
eta.amplitude = 0.2
eta.mode = 2
K0.kind = constant
K0.value = 1.0
"""


def _forbid_per_point_path(monkeypatch):
    """Make a sweep that evaluates a row through the per-point path fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point solve in a sweep")

    monkeypatch.setattr(hjb, "solve_hjb", forbidden)
    monkeypatch.setattr(closed_loop, "compute_projection_data", forbidden)


_SIGMAS = st.sampled_from([0.3, 0.7, 1.0, 2.5])
_GAMMAS = st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 3.0))


class TestSweepMatchesPerPointReference:
    @settings(max_examples=25)
    @given(
        rhos=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
        gammas=st.lists(_GAMMAS, min_size=1, max_size=3),
        sigmas=st.lists(_SIGMAS, min_size=2, max_size=4),
    )
    @example(rhos=[0.1, 1.2], gammas=[0.2, 2.0], sigmas=[0.3, 2.5, 0.3])
    def test_rows_match(self, rhos, gammas, sigmas):
        config = dataclasses.replace(
            parse_config(VARIABLE_SWEEP_CFG),
            sweep={"rho": rhos, "gamma": gammas, "sigma": sigmas},
        )
        expected = [
            _reference_sweep_row(config, r, g, s)
            for r in rhos for g in gammas for s in sigmas
        ]
        rows = cli.sweep_rows(config)
        assert len(rows) == len(expected)
        for row, reference in zip(rows, expected):
            assert list(row) == list(reference)
            for column, value in reference.items():
                assert row[column] == value, column

    def test_collision_rows(self):
        # rho = lambda0 - gamma * lambda1 puts g on lambda1: a feasible row
        # whose projection collides with the spectrum and leaves M empty
        config = parse_config(VARIABLE_SWEEP_CFG)
        grid, params, _ = config.model()
        basis = cli._basis(grid, params)
        gammas = [0.5, 2.0]
        rhos = [basis.lambda0 - gamma * basis.lambda1 for gamma in gammas]
        config = dataclasses.replace(
            config, sweep={"rho": rhos, "gamma": gammas, "sigma": [1.0]}
        )
        expected = [
            _reference_sweep_row(config, r, g, 1.0) for r in rhos for g in gammas
        ]
        rows = cli.sweep_rows(config)
        assert rows == expected
        for index in (0, 3):  # rho built from the row's own gamma
            assert rows[index]["feasible"] is True
            assert rows[index]["M"] is None
        assert all(rows[index]["M"] is not None for index in (1, 2))

    def test_first_failing_row_raises_its_error(self, tmp_path, capsys, monkeypatch):
        # w scaled by 1 + 1e-6 (1 + |c_1|), far past the rounding of <w, beta>,
        # makes every row fail, each with its own pairing; the error is the one
        # the per-point path raises on the first of them in Cartesian order
        synthesize_rows = spectral.SpectralBasis.synthesize_rows

        def scaled(self, rows):
            return synthesize_rows(self, rows) * (1.0 + 1e-6 * (1.0 + np.abs(rows[:, 1:2])))

        monkeypatch.setattr(spectral.SpectralBasis, "synthesize_rows", scaled)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            VARIABLE_SWEEP_CFG + "sweep.rho = 0.3, 1.5\nsweep.gamma = 0.5, 2.0\n"
            "sweep.sigma = 1.0, 2.0\n"
        )
        config = parse_config(cfg.read_text())
        errors = []
        for rho in (0.3, 1.5):
            for gamma in (0.5, 2.0):
                for sigma in (1.0, 2.0):
                    point = dataclasses.replace(config, rho=rho, gamma=gamma, sigma=sigma)
                    grid, params, _ = point.model()
                    basis = cli._basis(grid, params)
                    try:
                        sol = hjb.solve_hjb(basis, params)
                        closed_loop.compute_projection_data(basis, sol)
                    except InfeasibleParametersError:
                        continue
                    except RuntimeError as exc:
                        errors.append(str(exc))
        assert len(errors) > 1 and len(set(errors)) > 1
        assert errors[0].startswith("<w, beta> = ")
        _forbid_per_point_path(monkeypatch)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"internal error: {errors[0]}\n"
        assert not (out / "sweep.csv").exists()

    def test_cartesian_first_failing_row_of_a_batch_raises(self, monkeypatch):
        # one sigma, so one batch that holds every rho of gamma = 2 and then
        # every rho of gamma = 20; alpha underflows to 0 at (gamma, rho) =
        # (2, 1e250) and at (20, 1e50).  (2, 1e250) comes first in the
        # batch, but (rho, gamma) = (1e50, 20) comes first in Cartesian order
        config = dataclasses.replace(
            parse_config(VARIABLE_SWEEP_CFG),
            sweep={"rho": [1e50, 1e250], "gamma": [2.0, 20.0], "sigma": [1.0]},
        )
        failures = []
        for rho in (1e50, 1e250):
            for gamma in (2.0, 20.0):
                try:
                    _reference_sweep_row(config, rho, gamma, 1.0)
                except ConfigError as exc:
                    failures.append(((rho, gamma), str(exc)))
        assert [point for point, _ in failures] == [(1e50, 20.0), (1e250, 2.0), (1e250, 20.0)]
        grid, params, _ = config.model()
        basis = cli._basis(grid, params)
        errors = hjb.solve_rows(basis, params, [2.0, 2.0, 20.0, 20.0],
                                [1e50, 1e250, 1e50, 1e250])[2]
        assert [error is None for error in errors] == [True, False, False, False]
        assert str(errors[1]) == failures[1][1]
        _forbid_per_point_path(monkeypatch)
        with pytest.raises(ConfigError) as raised:
            cli.sweep_rows(config)
        assert str(raised.value) == failures[0][1]
        assert str(raised.value).startswith("rho = 1e+50 with gamma = 20.0: alpha = 0.0 ")

    @pytest.mark.parametrize("gamma", [0.999, 1.001],
                             ids=["alpha0-overflows", "alpha0-underflows"])
    def test_gamma_near_one_rows_match(self, gamma, monkeypatch):
        # alpha0 = alpha^(1/(1-gamma)) leaves the float range here, but no
        # row forms it: the sweep runs, and its rows are the per-point rows
        config = dataclasses.replace(
            parse_config(VARIABLE_SWEEP_CFG),
            sweep={"rho": [1.5, 0.5], "gamma": [2.0, gamma], "sigma": [1.0, 2.0]},
        )
        expected = [
            _reference_sweep_row(config, r, g, s)
            for r in (1.5, 0.5) for g in (2.0, gamma) for s in (1.0, 2.0)
        ]
        _forbid_per_point_path(monkeypatch)
        rows = cli.sweep_rows(config)
        assert [list(row) for row in rows] == [list(row) for row in expected]
        assert rows == expected

    @pytest.mark.parametrize(
        "text, gamma, rho, reason",
        [(VARIABLE_SWEEP_CFG, 20.0, 1e50, ": alpha = 0.0 "),
         (_demo_with(HOMOGENEOUS_DEMO, [("eta.value = 1.0", "eta.value = 1e-100")]),
          0.25, 1e250, ": the withdrawal eta * P overflows at node ")],
        ids=["alpha-underflows", "profile-inf"],
    )
    @pytest.mark.filterwarnings("ignore")
    def test_float_failures_raise_the_per_point_error(self, text, gamma, rho, reason,
                                                      monkeypatch):
        # at extreme (gamma, rho) alpha or the withdrawal eta * P leave the
        # float range; the sweep raises what the per-point path raises
        config = dataclasses.replace(
            parse_config(text), n_points=16,
            sweep={"rho": [1.5, rho], "gamma": [gamma, 2.0], "sigma": [1.0, 2.0]},
        )
        expected = None
        for r in (1.5, rho):
            for g in (gamma, 2.0):
                for sigma in (1.0, 2.0):
                    try:
                        _reference_sweep_row(config, r, g, sigma)
                    except (ArithmeticError, ValueError) as exc:
                        expected = expected or exc
        assert str(expected).startswith(f"rho = {rho!r} with gamma = {gamma!r}{reason}")
        _forbid_per_point_path(monkeypatch)
        with pytest.raises(type(expected)) as raised:
            cli.sweep_rows(config)
        assert str(raised.value) == str(expected)

    def test_M_matches_a_dense_solve(self):
        # the per-point path runs the sweep's row kernels, so M is checked
        # against a dense oracle: w solves (L - g) w = u, u the beta-paired
        # withdrawal profile, on the assembled generator itself
        config = dataclasses.replace(
            parse_config(VARIABLE_SWEEP_CFG), n_points=64,
            sweep={"rho": [0.3, 0.9, 1.5], "gamma": [0.5, 2.0], "sigma": [0.7, 2.5]},
        )
        checked = 0
        for row in cli.sweep_rows(config):
            if row["M"] is None:
                continue
            gamma = row["gamma"]
            grid, params, _ = dataclasses.replace(config, sigma=row["sigma"]).model()
            basis = cli._basis(grid, params)
            L = spectral.assemble_generator(params, basis.grid).entries
            b0 = basis.b0.values
            alpha0 = row["alpha"] ** (1.0 / (1.0 - gamma))
            u = ((alpha0 * b0) ** (-1.0 / gamma)
                 * params.eta.values ** ((params.q + gamma - 1.0) / gamma))
            w = np.linalg.solve(L - row["g"] * np.eye(len(b0)), u)
            M = 1.0 + np.abs(w).max() * basis.grid.weight * (alpha0 * b0).sum()
            assert abs(row["M"] - M) <= 1e-8 * M
            checked += 1
        assert checked == 10

    def test_closed_forms_once_per_group(self, monkeypatch):
        # rho enters only through scalars: the alpha integral is taken once
        # per distinct (sigma, gamma), and no per-point solution is built
        config = dataclasses.replace(
            parse_config(VARIABLE_SWEEP_CFG),
            sweep={"rho": [0.1, 0.9, 1.5], "gamma": [0.5, 2.0, 0.5],
                   "sigma": [1.0, 2.5, 1.0]},
        )
        integrals = []
        original = hjb.log_alpha_integral

        def spy(basis, log_eta, log_b0, q, gamma):
            integrals.append((basis.lambda0, gamma))
            return original(basis, log_eta, log_b0, q, gamma)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-point solve in a sweep")

        monkeypatch.setattr(hjb, "log_alpha_integral", spy)
        monkeypatch.setattr(hjb, "solve_hjb", forbidden)
        monkeypatch.setattr(closed_loop, "compute_projection_data", forbidden)
        rows = cli.sweep_rows(config)
        assert len(rows) == 27
        assert sum(row["feasible"] for row in rows) > 0
        assert len(integrals) == len(set(integrals)) == 4


class TestPerronAudit:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["perron-audit", "--count", "20", "--seed", "4", "--out", str(out), "--quiet"]) == 0
        report = read_json(out / "perron.json")
        assert report["all_passed"] is True
        assert report["failures"] == []


    def test_empty_battery_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["perron-audit", "--count", "0", "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "perron.json") == {
            "count": 0, "max_dim": 12, "seed": 0, "failures": [], "all_passed": True,
        }

    @pytest.mark.parametrize(
        "flag, value", [("--max-dim", "2"), ("--count", "-1"), ("--seed", "-1")]
    )
    def test_invalid_arguments_are_config_errors(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["perron-audit", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_failures_match_per_matrix_loop(self, tmp_path, monkeypatch):
        # the per-matrix loop, kept as the reference for the batched command
        rng = np.random.default_rng(17)
        expected = []
        for index in range(30):
            dim = int(rng.integers(3, 13))
            entries = random_irreducible_metzler(dim, rng).entries.copy()
            inject_failures(index, entries)
            gen = GeneratorMatrix(entries)
            try:
                if not is_irreducible(gen):
                    raise RuntimeError("random generator not irreducible")
                data = perron_data(gen)
                for side in ("right", "left"):
                    admitted = eigenvalues_admitting_positive_eigenvector(gen, side)
                    if any(abs(v - data.spectral_bound) > 1e-8 for v in admitted):
                        raise RuntimeError(
                            f"non-dominant eigenvalue admits a positive {side} eigenvector"
                        )
            except Exception as exc:  # noqa: BLE001 - mirrors the command
                expected.append({"index": index, "dim": dim, "error": str(exc)})

        monkeypatch.setattr(cli, "random_metzler_battery", edited_battery(inject_failures))
        out = tmp_path / "out"
        argv = ["perron-audit", "--count", "30", "--seed", "17", "--out", str(out), "--quiet"]
        assert main(argv) == 3
        report = read_json(out / "perron.json")
        assert [f["index"] for f in expected] == [5, 11]
        assert expected[0]["error"] == "random generator not irreducible"
        assert expected[1]["error"] == "matrix is not Metzler"
        assert report["failures"] == expected
        assert report["all_passed"] is False

    def test_failure_text_has_no_numpy_reprs(self, tmp_path, monkeypatch):
        # two equal blocks joined by tiny couplings: irreducible and Metzler,
        # but the spectral bound is double to within 1e-14
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        entries = np.kron(np.eye(2), block)
        entries[1, 2] = entries[2, 1] = 1e-14
        real = cli.random_metzler_battery

        def battery(count, max_dim, rng):
            # matrix 2 is replaced by the 4 x 4 one, in a stack of its own
            for indices, stack in real(count, max_dim, rng):
                keep = indices != 2
                if keep.any():
                    yield indices[keep], stack[keep]
            yield np.array([2]), entries[None]

        monkeypatch.setattr(cli, "random_metzler_battery", battery)
        out = tmp_path / "out"
        argv = ["perron-audit", "--count", "5", "--seed", "3", "--out", str(out), "--quiet"]
        assert main(argv) == 3
        [failure] = read_json(out / "perron.json")["failures"]
        assert failure["index"] == 2
        assert failure["error"].startswith("spectral bound ")
        assert "is not simple" in failure["error"]
        assert "np." not in failure["error"]

    def test_only_flagged_matrices_become_objects(self, tmp_path, monkeypatch):
        # the battery is drawn and screened in stacks; only a matrix the screen
        # flags is wrapped in a GeneratorMatrix, for the per-matrix oracle
        built = []
        post_init = GeneratorMatrix.__post_init__

        def counting(gen):
            built.append(gen)
            post_init(gen)

        monkeypatch.setattr(GeneratorMatrix, "__post_init__", counting)
        out = tmp_path / "out"
        assert main(["perron-audit", "--count", "200", "--out", str(out), "--quiet"]) == 0
        assert built == []
        monkeypatch.setattr(cli, "random_metzler_battery", edited_battery(inject_failures))
        argv = ["perron-audit", "--count", "30", "--seed", "17", "--out", str(out), "--quiet"]
        assert main(argv) == 3
        assert len(built) == 2


def inject_failures(index, entries):
    """Make battery matrix 5 reducible and matrix 11 not Metzler, in place."""
    dim = len(entries)
    if index == 5:
        # two disconnected blocks: reducible
        entries[: dim // 2, dim // 2:] = 0.0
        entries[dim // 2:, : dim // 2] = 0.0
    elif index == 11:
        entries[0, 1] = -0.25  # not Metzler


def edited_battery(edit):
    """``cli.random_metzler_battery`` with ``edit(index, entries)`` applied to each matrix."""
    real = cli.random_metzler_battery

    def battery(count, max_dim, rng):
        for indices, stack in real(count, max_dim, rng):
            for index, entries in zip(indices, stack):
                edit(int(index), entries)
            yield indices, stack

    return battery


IMPORT_HYGIENE_SCRIPT = """
import sys

import numpy as np

from akgrowth import cli
from akgrowth.cli import main

config, out = sys.argv[1], sys.argv[2]
codes = [
    main([command, "--config", config, "--n-points", "32", "--out", out, "--quiet"])
    for command in ("solve", "simulate", "verify", "sweep")
]
codes.append(main(["perron-audit", "--count", "50", "--out", out, "--quiet"]))


# irreducible and Metzler, but the spectral bound is double to within
# 1e-14: the stacked screen flags it and the per-matrix oracle runs
double = np.kron(np.eye(2), [[-1.0, 1.0], [1.0, -1.0]])
double[1, 2] = double[2, 1] = 1e-14
real = cli.random_metzler_battery


def double_bound(count, max_dim, rng):
    for indices, _ in real(count, max_dim, rng):
        yield indices, np.broadcast_to(double, (len(indices), 4, 4))


cli.random_metzler_battery = double_bound
codes.append(main(["perron-audit", "--count", "1", "--out", out + "/failing", "--quiet"]))
print(codes, "scipy" in sys.modules)
"""


class TestEntryPoint:
    def test_parser_is_built_once(self, window_cfg, tmp_path, monkeypatch, capsys):
        builds = []
        build_parser = cli.build_parser

        def spy():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(cli, "_parser", None)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(window_cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["perron-audit", "--count", "5", "--out", str(out), "--quiet"]) == 0
        assert main(["perron-audit", "--count", "-1", "--out", str(out)]) == 1
        capsys.readouterr()
        bad = ["perron-audit", "--count", "x"]
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert len(builds) == 1
        # usage and error text are those of a freshly built parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(bad)
        assert capsys.readouterr().err == err

    def test_commands_do_not_import_scipy_linalg(self, tmp_path):
        # NumPy and the standard library run every command, a failing
        # Perron battery included
        cfg = tmp_path / "window.cfg"
        cfg.write_text(WINDOW_CFG + "sweep.rho = 0.75, 0.9\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_HYGIENE_SCRIPT, str(cfg), str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 3] False"
        [failure] = read_json(tmp_path / "out" / "failing" / "perron.json")["failures"]
        assert "is not simple" in failure["error"]

    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "window.cfg"
        cfg.write_text(WINDOW_CFG)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "akgrowth.cli", "solve", "--config", str(cfg),
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
