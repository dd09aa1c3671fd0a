"""Command-line front end: outputs, sidecars, exit codes, reproducibility."""

import json
import math
import shlex
from pathlib import Path

import pytest

from slopelab.cli import EXIT_BAD_CONFIG, EXIT_INFINITE, EXIT_OK, build_parser, main
from slopelab.selfsimilar import corner_rectangle_weight

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run(tmp_path, name, args):
    out = tmp_path / f"{name}.csv"
    side = tmp_path / f"{name}.json"
    code = main(args + ["--out", str(out), "--json", str(side)])
    return code, out, side


class TestBasicCommands:
    def test_kappa_prints_pi(self, tmp_path):
        code, out, _ = run(tmp_path, "kappa", ["kappa", "--p", "2", "--dim", "2"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["p", "dim", "kappa"]
        assert float(rows[0][2]) == pytest.approx(math.pi, rel=1e-12)

    def test_measure_step_closed_form(self, tmp_path):
        code, out, side = run(
            tmp_path,
            "measure",
            ["measure", "--fn", "halfline_step", "--gamma", "-2", "--p", "1", "--lambda", "1"],
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(2.0, rel=0.01)
        sidecar = json.loads(side.read_text())
        assert sidecar["command"] == "measure"
        assert "versions" in sidecar and "timing_s" in sidecar

    def test_sidecar_reports_slopelab_numpy_and_python_versions(self, tmp_path):
        code, _, side = run(tmp_path, "kappa", ["kappa", "--p", "1", "--dim", "1"])
        assert code == EXIT_OK
        assert set(json.loads(side.read_text())["versions"]) == {"slopelab", "numpy", "python"}

    def test_seventeen_digit_rendering(self, tmp_path):
        _, out, _ = run(tmp_path, "kappa", ["kappa", "--p", "2", "--dim", "2"])
        _, rows = read_csv(out)
        token = rows[0][2]
        # 17 significant digits: the token is the shortest-exact double form
        assert token == f"{float(token):.17g}"
        assert float(token) == pytest.approx(math.pi, rel=1e-12)

    def test_stopping_endpoints(self, tmp_path):
        code, out, side = run(
            tmp_path,
            "stopping",
            ["stopping", "--fn", "interval_indicator(1)", "--gamma", "-2"],
        )
        assert code == EXIT_OK
        sidecar = json.loads(side.read_text())
        assert sidecar["k"] == 2
        assert sidecar["endpoints"][1:] == pytest.approx(
            [math.sqrt(0.5), 1.0 + math.sqrt(2.0)], abs=1e-12
        )

    def test_stopping_interval_near_the_double_range(self, tmp_path):
        # the tent's mass is 1/4, so at gamma = -1.001 its one interval has
        # length (1/2 / 1/4)^1000 = 2^1000, about 1.07e301; the calibration map
        # x^0.001 / 4 is so flat there that it fixes x to about 1e-10
        code, _, side = run(tmp_path, "stopping", ["stopping", "--fn", "tent", "--gamma", "-1.001"])
        assert code == EXIT_OK
        sidecar = json.loads(side.read_text())
        assert sidecar["k"] == 1
        assert sidecar["endpoints"] == [0.0, pytest.approx(2.0**1000, rel=1e-9)]


    @pytest.mark.parametrize(
        "fid,k",
        [
            ("interval_indicator(2.5)", 5),
            ("ball_indicator(1)", 4),
            ("mollified_indicator(3)", 8),
            ("mollified_indicator(6)", 8),
        ],
    )
    def test_stopping_where_the_least_length_underflows(self, tmp_path, fid, k):
        # (1/2 / mass)^1000 is 0 in double for these masses above 1/2
        code, _, side = run(tmp_path, "stopping", ["stopping", "--fn", fid, "--gamma", "-1.001"])
        assert code == EXIT_OK
        assert json.loads(side.read_text())["k"] == k


class TestEveryCommandRuns:
    """End-to-end runs of the commands no other test reaches; ``series`` and
    ``reproduce-all`` are left to the acceptance suite."""

    RUNS = {
        "mollified": (["mollified", "--m-min", "2", "--m-max", "3"], ["m", "value", "error"]),
        "stopping_smooth": (
            ["stopping", "--fn", "tent", "--gamma", "-2"],
            ["interval", "left", "right", "residual"],
        ),
        "bbm": (["bbm", "--fn", "tent", "--s-grid", "0.2,0.1"], ["s", "value"]),
        "weaknorm": (
            ["weaknorm", "--fn", "tent", "--gamma", "1", "--p", "1", "--tol", "0.05"],
            ["p", "gamma", "weak_norm_pth_power"],
        ),
        "bv_limit": (["bv-limit", "--gamma", "1", "--tol", "0.05"], ["lambda", "value", "error"]),
        "lipschitz": (["lipschitz", "--fn", "linear_ramp(3)"], ["function", "lipschitz_estimate"]),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_command_runs(self, tmp_path, name):
        argv, header = self.RUNS[name]
        code, out, side = run(tmp_path, name, argv)
        assert code == EXIT_OK
        assert read_csv(out)[0] == header
        assert json.loads(side.read_text())["exit_status"] == EXIT_OK

    def test_cantor_floor_is_the_closed_form(self, tmp_path):
        code, out, side = run(tmp_path, "cantor", ["cantor", "--gamma", "-0.5", "--m-max", "2"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["m", "value", "error", "floor"]
        assert json.loads(side.read_text())["exit_status"] == EXIT_OK
        rect = corner_rectangle_weight(-0.5, 0.25)  # rho = 1/4 at gamma = -1/2
        assert [(int(r[0]), float(r[3])) for r in rows] == [(1, rect), (2, 2 * rect)]


    def test_cantor_above_p_one(self, tmp_path):
        code, out, _ = run(
            tmp_path, "cantor", ["cantor", "--gamma", "-0.2", "--p", "2", "--m-max", "3"]
        )
        assert code == EXIT_OK
        values = [float(r[1]) for r in read_csv(out)[1]]
        assert values == sorted(values)


class TestExitCodes:
    def test_unknown_function_is_config_error(self, tmp_path):
        code, _, _ = run(
            tmp_path, "bad", ["measure", "--fn", "sawtooth", "--gamma", "1", "--lambda", "1"]
        )
        assert code == EXIT_BAD_CONFIG

    def test_unknown_flag_is_config_error(self):
        assert main(["measure", "--does-not-exist"]) == EXIT_BAD_CONFIG

    def test_stopping_requires_strongly_negative_gamma(self, tmp_path):
        code, _, _ = run(
            tmp_path, "x", ["stopping", "--fn", "interval_indicator(1)", "--gamma", "-0.5"]
        )
        assert code == EXIT_BAD_CONFIG

    def test_stopping_interval_past_the_double_range_is_config_error(self, tmp_path):
        # at gamma = -1.0001 the tent's one interval would be 2^10000 long
        code, _, _ = run(tmp_path, "x", ["stopping", "--fn", "tent", "--gamma", "-1.0001"])
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--gamma", "nan"),
            ("--p", "inf"),
            ("--lambda", "inf"),
            ("--delta", "nan"),
            ("--r-max", "nan"),
        ],
    )
    def test_non_finite_input_is_config_error(self, tmp_path, flag, value):
        args = {"--gamma": "-2", "--p": "1", "--lambda": "1", flag: value}
        argv = ["measure", "--fn", "tent"] + [t for kv in args.items() for t in kv]
        code, _, _ = run(tmp_path, "nonfinite", argv)
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--p", "0.5"], "p"),
            (["--radius", "nan"], "radius"),
            (["--radius", "inf"], "radius"),
        ],
    )
    def test_unusable_energy_input_is_config_error(self, tmp_path, capsys, flags, field):
        # p < 1 used to print values, a non-finite radius to fail inside numpy
        code, out, _ = run(tmp_path, "bbm", ["bbm", "--fn", "tent", *flags])
        assert code == EXIT_BAD_CONFIG
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["0", "-1", "0.5", "nan", "inf"])
    def test_unusable_staircase_exponent_is_config_error(self, tmp_path, capsys, p):
        # the ladder rejects p before any threshold or rescaling is formed
        code, out, _ = run(tmp_path, "cantor", ["cantor", "--gamma", "-0.5", "--p", p])
        assert code == EXIT_BAD_CONFIG
        assert "p must be finite with p >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--tol", "0"], "rel_tol"),
            (["--tol", "-1"], "rel_tol"),
            (["--tol", "nan"], "rel_tol"),
            (["--budget", "-5"], "budget"),
            (["--method", "montecarlo", "--mc-samples", "0"], "mc_samples"),
        ],
    )
    def test_unusable_query_control_is_config_error(self, tmp_path, capsys, flags, field):
        # these used to spend the whole budget, die in numpy, or run anyway
        argv = ["measure", "--fn", "tent", "--gamma", "1", "--lambda", "8", *flags]
        code, out, _ = run(tmp_path, "control", argv)
        assert code == EXIT_BAD_CONFIG
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_mollification_level_is_config_error(self, tmp_path):
        argv = ["measure", "--fn", "mollified_indicator(2.5)", "--gamma", "1", "--lambda", "4"]
        code, _, _ = run(tmp_path, "level", argv)
        assert code == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "fid", ["linear_ramp(-1)", "interval_indicator(inf)", "ball_indicator(inf)"]
    )
    def test_out_of_range_catalog_parameter_is_config_error(self, tmp_path, capsys, fid):
        # interval_indicator(inf) used to end in an AssertionError (exit 1)
        argv = ["measure", "--fn", fid, "--gamma", "0", "--lambda", "0.25"]
        code, _, _ = run(tmp_path, "param", argv)
        assert code == EXIT_BAD_CONFIG
        assert "must be finite and positive" in capsys.readouterr().err

    def test_radial_entry_in_three_dimensions(self, tmp_path):
        # nu_measure sends N = 3 to Monte Carlo
        argv = ["measure", "--fn", "smooth_bump", "--dim", "3", "--gamma", "1", "--lambda", "64"]
        code, out, _ = run(tmp_path, "radial3", argv)
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert rows[0][3] == "montecarlo" and 0.0 < float(rows[0][1]) < math.inf

    @pytest.mark.parametrize(
        "fid,dim,message",
        [
            ("tent", "3", "tent is a line entry: it takes dim 1, got 3"),
            ("smooth_bump", "0", "dim must be a positive integer, got 0"),
        ],
    )
    def test_dim_a_catalog_name_does_not_take_is_config_error(self, tmp_path, capsys, fid, dim, message):
        argv = ["measure", "--fn", fid, "--dim", dim, "--gamma", "1", "--lambda", "64"]
        code, out, _ = run(tmp_path, "dim", argv)
        assert code == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fid", ["interval_indicator(1)", "halfline_step"])
    def test_lipschitz_of_a_function_with_jumps_is_config_error(self, tmp_path, capsys, fid):
        code, _, _ = run(tmp_path, "lip", ["lipschitz", "--fn", fid])
        assert code == EXIT_BAD_CONFIG
        assert "jumps at x = 0" in capsys.readouterr().err

    def test_undecided_zero_exponent_exits_2_as_undecided(self, tmp_path, capsys):
        # lambda lies between the sampled slope and the declared constant: a
        # valid query the engine will not guess on, not a configuration fault
        argv = ["measure", "--fn", "tent", "--gamma", "0", "--lambda", "0.9999999999999"]
        code, out, _ = run(tmp_path, "undecided", argv)
        assert code == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: undecided at gamma=0: lambda=0.9999999999999 lies between the sampled "
            "slope 0.999999999998181 and the Lipschitz constant 1.0\n"
        )
        assert not out.exists()

    def test_infinite_where_finite_required(self, tmp_path):
        code, _, _ = run(
            tmp_path,
            "inf1",
            ["measure", "--fn", "tent", "--gamma", "0", "--p", "1", "--lambda", "0.5",
             "--require-finite"],
        )
        assert code == EXIT_INFINITE

    def test_infinite_token_in_csv_without_flag(self, tmp_path):
        code, out, _ = run(
            tmp_path,
            "inf2",
            ["measure", "--fn", "tent", "--gamma", "0", "--p", "1", "--lambda", "0.5"],
        )
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert rows[0][1] == "inf"


class TestReproducibility:
    def test_sidecar_argv_round_trip(self, tmp_path):
        code, out1, side1 = run(
            tmp_path,
            "sweep1",
            ["sweep", "--fn", "tent", "--gamma", "1", "--p", "1",
             "--lambda-from", "4", "--lambda-to", "256", "--count", "6"],
        )
        assert code == EXIT_OK
        argv = json.loads(side1.read_text())["argv"]
        out2 = tmp_path / "sweep2.csv"
        side2 = tmp_path / "sweep2.json"
        argv = [a.replace(str(out1), str(out2)).replace(str(side1), str(side2)) for a in argv]
        assert main(argv) == EXIT_OK
        assert out2.read_text() == out1.read_text()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"command": "measure", "fn": "halfline_step", "gamma": -2,
                 "p": 1, "lambda": 1.0}
            )
        )
        out1 = tmp_path / "a.csv"
        code = main(["--config", str(cfg), "--out", str(out1), "--json", str(tmp_path / "a.json")])
        assert code == EXIT_OK
        _, rows = read_csv(out1)
        assert float(rows[0][1]) == pytest.approx(2.0, rel=0.01)
        # an explicit flag beats the config value
        out2 = tmp_path / "b.csv"
        code = main(
            ["--config", str(cfg), "--lambda", "4",
             "--out", str(out2), "--json", str(tmp_path / "b.json")]
        )
        assert code == EXIT_OK
        _, rows = read_csv(out2)
        assert float(rows[0][1]) == pytest.approx(0.5, rel=0.01)

    def test_montecarlo_seed_reproducibility(self, tmp_path):
        base = ["measure", "--fn", "tent", "--gamma", "-2", "--p", "1", "--lambda", "0.3",
                "--method", "montecarlo", "--seed", "9"]
        _, out1, _ = run(tmp_path, "mc1", base)
        _, out2, _ = run(tmp_path, "mc2", base)
        _, out3, _ = run(tmp_path, "mc3", base[:-1] + ["10"])
        v = lambda p: float(read_csv(p)[1][0][1])
        assert v(out1) == v(out2)
        assert v(out1) != v(out3)


def readme_command_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [ln.strip() for ln in section.splitlines() if ln.strip().startswith("slopelab ")]
    assert lines, "README's Command line section lists no commands"
    return lines


class TestFlagContract:
    """Every flag a command takes is one it reads."""

    @pytest.mark.parametrize("line", readme_command_lines())
    def test_readme_lines_parse(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ["cantor", "--gamma", "-0.5", "--tol", "0.1"],
            ["stopping", "--fn", "interval_indicator(1)", "--gamma", "-2", "--dim", "2"],
            ["kappa", "--gamma", "1"],
            ["lipschitz", "--fn", "tent", "--seed", "3"],
        ],
    )
    def test_flags_a_command_ignores_are_rejected(self, argv):
        assert main(argv) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["cantor", "--m-max", "1"],
            ["series"],
            ["stopping", "--fn", "interval_indicator(1)"],
        ],
    )
    def test_gamma_is_required(self, argv):
        assert main(argv) == EXIT_BAD_CONFIG


class TestConfigFile:
    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_boolean_key_sets_the_switch(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {"command": "measure", "fn": "tent", "gamma": 0, "p": 1, "lambda": 0.5,
             "require_finite": True},
        )
        code, _, side = run(tmp_path, "req", ["--config", cfg])
        assert code == EXIT_INFINITE
        assert json.loads(side.read_text())["config"]["require_finite"] is True

    def test_false_leaves_the_switch_off(self, tmp_path):
        cfg = self.write(
            tmp_path,
            {"command": "measure", "fn": "tent", "gamma": 0, "p": 1, "lambda": 0.5,
             "require_finite": False},
        )
        code, _, _ = run(tmp_path, "noreq", ["--config", cfg])
        assert code == EXIT_OK

    @pytest.mark.parametrize("form", [["--lambda=4"], ["--lambda", "4"]])
    def test_explicit_flag_beats_config_in_both_forms(self, tmp_path, form):
        cfg = self.write(
            tmp_path,
            {"command": "measure", "fn": "halfline_step", "gamma": -2, "p": 1, "lambda": 1.0},
        )
        code, out, side = run(tmp_path, "lam", [f"--config={cfg}", *form])
        assert code == EXIT_OK
        assert float(read_csv(out)[1][0][0]) == 4.0
        assert json.loads(side.read_text())["config"]["lam"] == 4.0

    @pytest.mark.parametrize("key", ["tol", "no_such_flag", "help"])
    def test_key_the_command_does_not_take_is_config_error(self, tmp_path, key):
        cfg = self.write(tmp_path, {"command": "cantor", "gamma": -0.5, key: 0.1})
        assert main(["--config", cfg]) == EXIT_BAD_CONFIG

    def test_sidecar_config_holds_only_applied_settings(self, tmp_path):
        code, _, side = run(tmp_path, "kappa", ["kappa", "--p", "2", "--dim", "2"])
        assert code == EXIT_OK
        config = json.loads(side.read_text())["config"]
        assert set(config) == {"command", "out", "json_path", "p", "dim"}
