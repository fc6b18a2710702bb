import argparse
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from frankmick import CheckerboardDensity, FrankParameter, SolverConfig, frank_sample
from frankmick.cli import _build_parser, cli_main
from frankmick.concordance import LIOUVILLE_MIN_N

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrankCommands:
    def test_tau(self, capsys):
        code, out, _ = run(capsys, "frank", "tau", "--theta", "3")
        assert code == 0
        assert out.strip() == "0.307"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "frank", "theta", "--tau", "0.307")
        assert code == 0
        assert float(out) == pytest.approx(3.0, abs=0.01)

    def test_eval_cdf_default_and_pdf(self, capsys):
        code, out, _ = run(
            capsys, "frank", "eval", "--theta", "3", "--u", "0.7", "--v", "1"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.7, abs=1e-10)
        code, out, _ = run(
            capsys, "frank", "eval", "--theta", "3", "--u", "0.5", "--v", "0.5",
            "--pdf",
        )
        assert code == 0
        assert float(out) > 1.0  # positive dependence peaks on the diagonal

    def test_eval_up_to_the_support_bound(self, capsys):
        code, out, _ = run(
            capsys, "frank", "eval", "--theta", "-300", "--pdf",
            "--u", "0.3", "--v", "0.6",
        )
        assert code == 0
        assert math.isfinite(float(out)) and float(out) > 0.0
        code, _, err = run(
            capsys, "frank", "eval", "--theta", "400", "--u", "0.3", "--v", "0.6"
        )
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ThetaOutOfSupport"

    def test_eval_below_the_theta_floor(self, capsys):
        # the smallest subnormal theta is independence: C(0.5, 0.3) = 0.15
        # (it printed -0)
        code, out, _ = run(
            capsys, "frank", "eval", "--theta", "5e-324", "--u", "0.5", "--v", "0.3"
        )
        assert code == 0
        assert float(out) == 0.15

    def test_checkerboard_json_and_csv(self, capsys, tmp_path):
        jpath = tmp_path / "board.json"
        code, out, _ = run(
            capsys, "frank", "checkerboard", "--theta", "3", "--n", "8",
            "--out", str(jpath),
        )
        assert code == 0
        obj = json.loads(jpath.read_text())
        assert obj["n"] == 8 and len(obj["masses"]) == 64
        assert obj["meta"]["theta"] == 3.0

        cpath = tmp_path / "board.csv"
        code, out, _ = run(
            capsys, "frank", "checkerboard", "--theta", "3", "--n", "8",
            "--out", str(cpath),
        )
        assert code == 0
        board = CheckerboardDensity.from_csv(cpath.read_text())
        np.testing.assert_array_equal(
            board.masses.ravel(), np.array(obj["masses"])
        )

    def test_sample(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        code, _, _ = run(
            capsys, "frank", "sample", "--theta", "3", "--count", "100",
            "--seed", "7", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 101
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert all(len(row) == 2 for row in rows)
        drawn = frank_sample(FrankParameter(3.0), 100, 7)
        assert np.array(rows).tobytes() == drawn.tobytes()


class TestMickCommands:
    def test_solve_zero_tau(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "mick", "solve", "--tau", "0", "--n", "8", "--out", str(path)
        )
        assert code == 0
        obj = json.loads(path.read_text())
        masses = np.array(obj["density"]["masses"])
        assert np.max(np.abs(masses - 1 / 64)) <= 1e-9
        assert obj["converged"] is True
        assert obj["config"] == asdict(SolverConfig(n=8, target_tau=0.0))

    def test_solve_and_compare(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "mick", "solve", "--tau", "0.307", "--n", "8",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "mick", "compare", "--report", str(path), "--theta", "3"
        )
        assert code == 0
        assert 0.0 < float(out) < 0.01

    def test_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "mick", "sweep", "--tau", "0.307", "--grids", "4,8,16",
            "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,sup_error,achieved_tau,implied_theta,converged"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert errs[0] > errs[1] > errs[2]
        assert svg_path.read_text().startswith("<svg")

    def test_sweep_above_theta_support_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "mick", "sweep", "--tau", "0.93", "--grids", "8,16",
            "--out", str(csv_path),
        )
        assert code == 1
        header = "n,sup_error,achieved_tau,implied_theta,converged\n"
        text = csv_path.read_text()
        assert text.startswith(header)
        rows = text[len(header):].strip().splitlines()
        assert len(rows) == 1 and rows[0].split(",")[0] == "16"
        gap = float(rows[0].split(",")[1])
        assert np.isfinite(gap) and gap > 0.0
        assert "n=8 failed: TauInfeasible" in err
        assert "n=16 failed" not in err

    def test_sweep_without_a_solved_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _, err = run(
            capsys, "mick", "sweep", "--tau", "0.93", "--grids", "4,8",
            "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 1
        assert "n=4 failed: TauInfeasible" in err
        assert "n=8 failed: TauInfeasible" in err
        assert "ValueError" not in err
        header = "n,sup_error,achieved_tau,implied_theta,converged\n"
        assert csv_path.read_text() == header
        assert svg_path.read_text().startswith("<svg")


class TestVerifyCommands:
    def test_no_identity_command(self, capsys):
        # the cdf identity is checked against mpmath by the tests instead
        code, _, _ = run(capsys, "verify", "identity", "--theta", "3")
        assert code == 2

    def test_liouville(self, capsys):
        code, out, _ = run(
            capsys, "verify", "liouville", "--theta", "3", "--n", "32"
        )
        assert code == 0
        assert "ratio" in out


class TestErrorHandling:
    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "frank")[0] == 2
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "frank", "tau")[0] == 2  # missing --theta
        # the inversion runs to round-off: there is no tolerance to set
        assert run(capsys, "frank", "theta", "--tau", "0.3", "--tol", "1e-10")[0] == 2

    def test_numeric_error_exit_1_with_json(self, capsys):
        code, _, err = run(capsys, "frank", "tau", "--theta", "0")
        assert code == 1
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"] == "ValueError"

    def test_zero_tau_inversion_error(self, capsys):
        code, _, err = run(capsys, "frank", "theta", "--tau", "0")
        assert code == 1
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"] == "ZeroTau"

    def test_infeasible_solve(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mick", "solve", "--tau", "0.9", "--n", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["error"] == "TauInfeasible"

    @pytest.mark.parametrize("grids", ["4,x", "8,4", "0,4", "4,4", "4,8,8"])
    def test_bad_grids_are_usage_errors(self, capsys, tmp_path, grids):
        code, _, err = run(
            capsys, "mick", "sweep", "--tau", "0.307", "--grids", grids,
            "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "argument --grids" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("drop", [None, "density"])
    def test_malformed_report_is_one_json_line(self, capsys, tmp_path, drop):
        # {} when drop is None, else a solved report without that field
        obj = {}
        if drop is not None:
            path = tmp_path / "report.json"
            run(capsys, "mick", "solve", "--tau", "0.307", "--n", "4",
                "--out", str(path))
            obj = json.loads(path.read_text())
            del obj[drop]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "mick", "compare", "--report", str(bad), "--theta", "3"
        )
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ValueError"
        assert "density" in diag["message"]

    @pytest.mark.parametrize("field, value", [("n", None), ("masses", {"a": 1})])
    def test_mistyped_board_field_is_one_json_line(
        self, capsys, tmp_path, field, value
    ):
        path = tmp_path / "report.json"
        run(capsys, "mick", "solve", "--tau", "0.307", "--n", "4", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["density"][field] = value
        path.write_text(json.dumps(obj))
        code, out, err = run(
            capsys, "mick", "compare", "--report", str(path), "--theta", "3"
        )
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "ValueError"
        assert f"field '{field}'" in diag["message"]

    def test_nan_coordinate_is_one_json_line(self, capsys):
        code, out, err = run(
            capsys, "frank", "eval", "--theta", "3", "--u", "0.5", "--v", "nan"
        )
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ValueError"

    def test_solve_has_no_damping_option(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "mick", "solve", "--tau", "0.307", "--n", "8",
            "--damping", "0.5", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2


def subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def size_options():
    """(group, command, option, least) for each option gated as a size."""
    for group, group_parser in subcommands(_build_parser()).items():
        for command, parser in subcommands(group_parser).items():
            for a in parser._actions:
                if hasattr(a.type, "least"):
                    yield group, command, a.option_strings[0], a.type.least


def test_sizes_use_the_size_gate():
    # a size option is typed by the gate, so the contract below covers it
    # and with the least size the library accepts
    gated = {(g, c, o): least for g, c, o, least in size_options()}
    assert gated == {
        ("frank", "checkerboard", "--n"): 1, ("frank", "sample", "--count"): 1,
        ("frank", "sample", "--seed"): 0, ("mick", "solve", "--n"): 1,
        ("verify", "liouville", "--n"): LIOUVILLE_MIN_N,
    }
    for group_parser in subcommands(_build_parser()).values():
        for parser in subcommands(group_parser).values():
            assert all(a.type is not int for a in parser._actions)


@pytest.mark.parametrize("group, command, option, least", list(size_options()))
def test_size_below_its_minimum_is_a_usage_error(capsys, group, command, option, least):
    # the type check runs as the option is read, before required options
    code, out, err = run(capsys, group, command, option, str(least - 1))
    assert code == 2 and out == ""
    assert f"argument {option}: value must be an integer >= {least}" in err
    code, _, err = run(capsys, group, command, option, str(least))
    assert f"argument {option}" not in err


def test_every_option_is_in_readme():
    # each subcommand's options appear on its lines of README's CLI block
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    groups = subcommands(_build_parser())
    # and each command line of the block names a subcommand the parser has
    known = {f"frankmick {g} {c}" for g, gp in groups.items() for c in subcommands(gp)}
    for ln in block.splitlines():
        if ln.startswith("frankmick "):
            assert " ".join(ln.split()[:3]) in known, ln
    for group, group_parser in groups.items():
        for command, parser in subcommands(group_parser).items():
            prefix = f"frankmick {group} {command} "
            lines = [ln for ln in block.splitlines() if ln.startswith(prefix)]
            assert lines, prefix
            options = {o for a in parser._actions for o in a.option_strings}
            for opt in options - {"-h", "--help"}:
                pattern = re.escape(opt) + r"(?![\w-])"
                assert any(re.search(pattern, ln) for ln in lines), f"{prefix}{opt}"
            # and no README line shows an option the subcommand lacks
            for ln in lines:
                for opt in re.findall(r"--[\w-]+", ln):
                    assert opt in options, f"{prefix}{opt}"
