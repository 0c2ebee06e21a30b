import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import akgrowth
from akgrowth import ConfigError, cli
from akgrowth.config import parse_config

GOOD = """
# homogeneous run
schema = 1
n_points = 64
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
seed = 7
"""


class TestParsing:
    def test_good_config(self):
        config = parse_config(GOOD)
        assert config.n_points == 64
        assert config.rho == 0.75
        assert config.seed == 7
        grid, params, K0 = config.model()
        assert grid.n_points == 64
        np.testing.assert_allclose(params.A.values, 1.0)
        expected = 1.0 + 0.4 * np.cos(grid.nodes)
        np.testing.assert_allclose(K0.values, expected)

    def test_defaults(self):
        minimal = """
        schema = 1
        A.kind = constant
        A.value = 1.0
        eta.kind = constant
        eta.value = 1.0
        K0.kind = constant
        K0.value = 1.0
        """
        config = parse_config(minimal)
        assert config.n_points == 128
        assert config.n_steps == 200
        assert config.n_perturbations == 20

    def test_table_profile(self):
        head = "schema = 1\nn_points = 8\n"
        table = "A.kind = custom-table\nA.values = " + ",".join(["2.0"] * 8) + "\n"
        rest = (
            "eta.kind = constant\neta.value = 1.0\n"
            "K0.kind = constant\nK0.value = 1.0\n"
        )
        config = parse_config(head + table + rest)
        _, params, _ = config.model()
        np.testing.assert_allclose(params.A.values, 2.0)

    def test_no_module_imports_scipy(self):
        # NumPy and the standard library run every command
        package = Path(akgrowth.__file__).parent
        imported = []
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                imported += [f"{path.name}: {name}" for name in names
                             if name.split(".")[0] == "scipy"]
        assert imported == []

    def test_out_dir(self):
        assert parse_config(GOOD).out_dir == "."
        assert parse_config(GOOD + "out_dir = runs/x\n").out_dir == "runs/x"

    def test_sweep_lists(self):
        config = parse_config(GOOD + "sweep.rho = 0.6, 0.75, 0.9\n")
        assert config.sweep["rho"] == [0.6, 0.75, 0.9]


class TestRejection:
    def test_missing_schema(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("schema = 1", ""))

    def test_wrong_schema(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("schema = 1", "schema = 2"))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD + "bogus = 1\n")

    def test_unknown_tolerance(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD + "tol.bogus = 1e-6\n")

    def test_symmetry_is_no_tolerance(self):
        # the assembled generator is symmetric by construction
        with pytest.raises(ConfigError, match="unknown tolerance 'symmetry'"):
            parse_config(GOOD + "tol.symmetry = 1e-12\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD + "rho = 0.9\n")

    def test_table_length_mismatch(self):
        text = (
            "schema = 1\nn_points = 64\n"
            "A.kind = custom-table\nA.values = 1.0, 2.0, 3.0\n"
            "eta.kind = constant\neta.value = 1.0\n"
            "K0.kind = constant\nK0.value = 1.0\n"
        )
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_removed_table_alias(self):
        with pytest.raises(ConfigError, match="unknown kind 'table'"):
            parse_config(GOOD.replace("A.kind = constant", "A.kind = table"))

    @pytest.mark.parametrize(
        "key, bad",
        [("n_perturbations", "0"), ("n_perturbations", "-1"), ("t_final", "0"),
         ("t_final", "-1"), ("n_steps", "0")],
    )
    def test_out_of_range_run_length_names_its_key(self, key, bad):
        kept = [line for line in GOOD.splitlines() if not line.startswith(f"{key} =")]
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config("\n".join(kept) + f"\n{key} = {bad}\n")

    @pytest.mark.parametrize("bad", ["inf", "1e400"])
    def test_infinite_t_final(self, tmp_path, capsys, bad):
        # inf > 0, so the range check alone let simulate write NaN rows
        kept = [line for line in GOOD.splitlines() if not line.startswith("t_final =")]
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("\n".join(kept) + f"\nt_final = {bad}\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: t_final must be finite and > 0, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["A.value = inf", "K0.amplitude = nan", "eta.value = 1e400"])
    def test_non_finite_profile_attribute(self, tmp_path, capsys, line):
        key = line.split(" ")[0]
        kept = [row for row in GOOD.splitlines() if not row.startswith(f"{key} =")]
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("\n".join(kept) + f"\n{line}\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        profile = key.split(".")[0]
        assert capsys.readouterr().err == (
            f"error: profile {profile!r}: values must all be finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, line",
        [("constant", "A.amplitude = 0.5"), ("constant", "A.mode = 3"),
         ("cosine", "K0.values = 1.0, 2.0"), ("custom-table", "A.mean = 1.0")],
    )
    def test_attribute_the_kind_does_not_read(self, kind, line):
        # a profile reads only its kind's attributes: any other one is a
        # typo or a wrong kind, not something to ignore
        text = GOOD
        if kind == "custom-table":
            text = GOOD.replace("n_points = 64", "n_points = 8").replace(
                "A.kind = constant\nA.value = 1.0",
                "A.kind = custom-table\nA.values = " + ", ".join(["1.0"] * 8))
        name, attr = line.split(" ")[0].split(".")
        message = f"^profile '{name}': {kind} has no attribute '{attr}'$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text + line + "\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [("A.value = 1.0", "", "profile 'A': constant needs 'value'"),
         ("K0.mean = 1.0", "", "profile 'K0': cosine needs 'mean'"),
         ("A.kind = constant\nA.value = 1.0", "A.kind = custom-table",
          "profile 'A': custom-table needs 'values'")],
    )
    def test_kind_needs_its_attribute(self, old, new, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(GOOD.replace(old, new))

    def test_missing_profile(self):
        text = "schema = 1\nA.kind = constant\nA.value = 1.0\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_nonpositive_profile(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("A.value = 1.0", "A.value = -1.0"))

    def test_odd_grid(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("n_points = 64", "n_points = 65"))

    def test_gamma_one(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("gamma = 0.5", "gamma = 1.0"))

    @pytest.mark.parametrize("key", ["sigma", "rho", "gamma", "q"])
    def test_infinite_model_parameter(self, tmp_path, capsys, key):
        kept = [line for line in GOOD.splitlines() if not line.startswith(f"{key} =")]
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("\n".join(kept) + f"\n{key} = inf\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {key} must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep",
        ["sweep.gamma = 0.5, 1.0", "sweep.gamma = 0.5, -2.0",
         "sweep.rho = 0.75, -0.2", "sweep.rho = 0.0", "sweep.sigma = 1.0, 0.0",
         "sweep.sigma = nan"],
    )
    def test_swept_value_breaking_model_rules(self, sweep):
        with pytest.raises(ConfigError, match=sweep.split(" ")[0]):
            parse_config(GOOD + sweep + "\n")

    @pytest.mark.parametrize(
        "key, value",
        [("sigma", 0.0), ("t_final", 0.0), ("n_points", 7), ("sweep", {"sigma": [1.0, 0.0]}),
         # a name the parser refuses: replace() once ignored q and raised
         # TypeError on bogus
         ("sweep", {"q": [0.1, 0.2]}), ("sweep", {"bogus": [1.0]})],
    )
    def test_replace_is_validated_like_a_config_file(self, tmp_path, capsys, key, value):
        # a RunConfig made in code is validated as it is built, and fails
        # with the error the CLI prints for that value in a config file
        if key == "sweep":
            (name, values), = value.items()
            text = GOOD + f"sweep.{name} = {', '.join(map(repr, values))}\n"
        else:
            text = re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", GOOD)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        printed = capsys.readouterr().err
        with pytest.raises(ConfigError) as raised:
            dataclasses.replace(parse_config(GOOD), **{key: value})
        assert printed == f"error: {raised.value}\n"

    @pytest.mark.parametrize(
        "key, bad",
        [("K0.mode", "one"), ("A.value", "abc"), ("n_steps", "abc"), ("sweep.sigma", ",")],
    )
    def test_unparseable_value_names_its_key(self, key, bad):
        kept = [line for line in GOOD.splitlines() if not line.startswith(f"{key} =")]
        with pytest.raises(ConfigError, match=f"cannot parse {re.escape(key)} = "):
            parse_config("\n".join(kept) + f"\n{key} = {bad}\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("schema = 1\nnot a pair\n")
