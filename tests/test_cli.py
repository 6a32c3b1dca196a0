"""Command-line surface: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from activevars import CostModel, build_spectrum, eval_cost, korobov_kernel, power_sum
from activevars.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_reference_row_passes(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,ceil_majorant,expected"
        assert lines[1] == "1,3,3"
        assert lines[10] == "10,17,17"


class TestBounds:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            "--eps-grid",
            "0.1,0.01",
            "--d-grid",
            "10",
            "--c0sq-mode",
            "paper",
            "--c-const",
            "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,d,m1,tail_at_m1,ceil_big_m,m2"
        first = lines[1].split(",")
        assert first[:3] == ["0.1", "10", "3"]
        assert first[5] == "1"

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--eps-grid", "0.1")
        assert code == 1


class TestSpectrum:
    def test_stdout_and_out_file_carry_the_same_document(self, capsys, tmp_path):
        argv = ["spectrum", "--kernel", "korobov:1", "--n-eigenvalues", "50"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 50 and doc["kind"] == "korobov"
        assert len(doc["eigenvalues"]) == 50
        target = tmp_path / "s.json"
        code, out_file_run, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out_file_run == ""
        assert target.read_text() == out


class TestCda:
    @pytest.mark.parametrize(
        "cost, model",
        [
            ("constant", CostModel(family="constant")),
            ("poly:2", CostModel(family="polynomial", q=2.0)),
            ("exp:1", CostModel(family="exponential", q=1.0)),
            ("doubleexp:0.5", CostModel(family="double_exponential", q=0.5)),
            ("linfloor:2", CostModel(family="linear_floor", c=2.0)),
        ],
    )
    def test_each_cost_family_prices_the_printed_plan(self, capsys, cost, model):
        code, out, _ = run(
            capsys,
            "cda",
            "--epsilon",
            "0.01",
            "--d",
            "10",
            "--kernel",
            "korobov:1",
            "--cost",
            cost,
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        direct = math.fsum(
            [eval_cost(model, 0)]
            + [
                math.comb(10, r["cardinality"]) * r["n_l"] * eval_cost(model, r["cardinality"])
                for r in doc["rows"]
            ]
        )
        assert doc["summary"]["exact_cost"] == direct
        assert doc["summary"]["exact_cost"] <= doc["summary"]["bound_cost"]

    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "cda",
            "--epsilon",
            "0.01",
            "--d",
            "10",
            "--kernel",
            "korobov:1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["m1"] == 2
        assert doc["summary"]["exact_cost"] <= doc["summary"]["bound_cost"]
        assert len(doc["rows"]) == doc["summary"]["m1"]


class TestOptimal:
    def test_custom_kernel_from_file(self, capsys, tmp_path):
        path = tmp_path / "eigenvalues.json"
        path.write_text("[0.5, 0.125]")
        code, out, _ = run(
            capsys,
            "optimal",
            "--epsilon",
            str(0.1**0.5),
            "--d",
            "2",
            "--kernel",
            f"custom:{path}",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["n"] == 3
        assert doc["summary"]["worst_case_error"] == 0.25
        assert doc["summary"]["max_act"] == 1
        assert "n_cap" not in doc["summary"]

    def test_n_cap_is_the_closed_form_term_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "optimal",
            "--epsilon",
            "0.1",
            "--d",
            "4",
            "--kernel",
            "korobov:1",
            "--tau",
            "1.5",
            "--c-const",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        ltau = power_sum(build_spectrum(korobov_kernel(1.0), 10_000), 1.5)
        eps_eff = 0.1 / math.sqrt(2.0)
        want = math.ceil(math.exp(ltau * 4 ** (1.0 - 1.5)) * eps_eff ** (-3.0)) - 1
        assert summary["n_cap"] == want == 2842
        assert summary["n"] <= summary["n_cap"]


SUMMARY_KEYS = {"flags", "p_str_fit", "p_str_residual", "qpt_c_fit", "qpt_residual", "qpt_t_fit"}


class TestComplexity:
    def test_wiener_refuses_an_orthogonality_constant(self, capsys):
        # --c-const 4 used to print the grid of --c-const 1, byte for byte.
        grid = ["--kernel", "wiener", "--eps-grid", "0.1,0.01", "--d-grid", "3,5"]
        code, out, err = run(capsys, "complexity", *grid, "--c-const", "4")
        assert code == 1 and not out
        assert err.startswith("error: ") and "c_const" in err
        assert run(capsys, "complexity", *grid, "--c-const", "1")[0] == 0

    def test_wiener_grid_carries_cda_upper_bounds(self, capsys):
        code, out, _ = run(
            capsys,
            "complexity",
            "--eps-grid",
            "0.1,0.01",
            "--d-grid",
            "2,5",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["flags"] == ["comp values are cda upper bounds"]
        for row in doc["rows"]:
            code, cda_out, _ = run(
                capsys,
                "cda",
                "--epsilon",
                str(row["epsilon"]),
                "--d",
                str(row["d"]),
                "--tau",
                "1",
                "--format",
                "json",
            )
            assert code == 0
            assert row["comp"] == json.loads(cda_out)["summary"]["exact_cost"]
            assert row["comp"] == row["n_terms"]  # constant cost: one per functional
            assert row["within_bound"] == 1

    def test_prices_beyond_double_range_print_inf(self, capsys):
        # The korobov grid ended in "error: ... $(4) exceeds double range".
        grid = ["--cost", "doubleexp:2", "--d-grid", "5", "--eps-grid", "1e-1,1e-2,1e-3,1e-4,1e-5"]
        korobov = ["--kernel", "korobov:1", "--n-eigenvalues", "40000"]
        code, out, err = run(capsys, "complexity", *korobov, *grid)
        assert (code, err) == (0, "")
        rows = out.splitlines()[-5:]
        assert rows[-1] == "5,1e-05,inf,inf,230051,4,1"
        assert all("inf" not in row for row in rows[:-1])
        code, out, _ = run(capsys, "complexity", "--kernel", "wiener", *grid)
        assert code == 0 and out.count(",inf,inf,") == 4

    def test_points_below_the_tail_certificate_are_flagged(self, capsys):
        code, out, _ = run(
            capsys,
            "complexity",
            "--kernel",
            "korobov:1",
            "--n-eigenvalues",
            "100",
            "--eps-grid",
            "0.1,0.01,0.001",
            "--d-grid",
            "2,5",
        )
        assert code == 0
        lines = out.splitlines()
        flags = next(line for line in lines if line.startswith("# flags="))
        assert flags.count("tail certificate") == 2
        assert "2,0.001,nan,nan,-1,-1,0" in lines
        assert "5,0.001,nan,nan,-1,-1,0" in lines
        # The bound is e^{L(1)} 1e4 rounded up (10869.040495212286 to nearest).
        assert "2,0.01,49.0,10869.0404952124,49,2,1" in lines

    def test_summary_fields(self, capsys):
        argv = ["complexity", "--kernel", "korobov:1", "--eps-grid", "0.1,0.01"]
        argv += ["--d-grid", "2,5", "--cost", "exp:1"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # Fits over the given grid only: no tractability label, no verdict.
        assert set(doc["summary"]) == SUMMARY_KEYS
        assert all(row["within_bound"] == 1 for row in doc["rows"])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        keys = {line[2:].split("=", 1)[0] for line in out.splitlines() if line.startswith("# ")}
        assert keys == SUMMARY_KEYS


class TestDeterminism:
    def test_identical_configs_write_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys,
                "bounds",
                "--eps-grid",
                "0.1,0.001,1e-06",
                "--d-grid",
                "1,10,100",
                "--out",
                str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mc_check_deterministic_and_passing(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys,
                "mc-check",
                "--kernel",
                "korobov:1",
                "--d",
                "3",
                "--trials",
                "10",
                "--samples",
                "20000",
                "--seed",
                "42",
                "--out",
                str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


def test_a_closed_output_pipe_exits_141_quietly():
    # `activevars spectrum ... | head -c 10` printed "error: [Errno 32] Broken
    # pipe" and exited 1.  The reader closes after 10 bytes of a ~1 MB document.
    argv = ["spectrum", "--kernel", "korobov:1", "--n-eigenvalues", "40000"]
    with subprocess.Popen(
        [sys.executable, "-m", "activevars.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "wat")[0] == 1

    def test_bad_kernel(self, capsys):
        assert run(capsys, "spectrum", "--kernel", "sobolev")[0] == 1

    def test_wiener_mc_check_is_rejected(self, capsys):
        code, _, err = run(capsys, "mc-check", "--d", "3")
        assert code == 1
        assert "orthogonal" in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('[0.5, "x"', "is not JSON"),
            ("3", "must hold a JSON list of numbers"),
            ('[0.5, "x"]', "must hold a JSON list of numbers"),
            ("[0.5, true]", "must hold a JSON list of numbers"),
            ('{"1": 0.5}', "must hold a JSON list of numbers"),
            ("[]", "one or more positive finite values"),
            ("[0.5, NaN]", "one or more positive finite values"),
        ],
    )
    def test_malformed_custom_file_is_an_error_line(self, capsys, tmp_path, text, reason):
        path = tmp_path / "kernel.json"
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", "--kernel", f"custom:{path}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-check", "--kernel", "korobov:1", "--d", "2", "--trials", "0"],
            ["mc-check", "--kernel", "korobov:1", "--d", "2", "--samples", "0"],
            ["mc-check", "--kernel", "korobov:1", "--d", "2", "--samples", "1"],
            ["optimal", "--kernel", "korobov:1", "--epsilon", "0.1", "--d", "2", "--top", "-1"],
            # A negative seed ended in a numpy ValueError traceback.
            ["mc-check", "--kernel", "korobov:1", "--d", "2", "--seed", "-1"],
        ],
    )
    def test_counts_below_their_minimum_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"argument {argv[-2]}: must be at least" in err

    def test_invalid_cost_model_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "cda", "--epsilon", "0.01", "--d", "10", "--cost", "poly:-1"
        )
        assert code == 1
        assert out == ""
        assert "q must be >= 0 to keep $ monotone" in err

    @pytest.mark.parametrize("cost", ["poly:nan", "exp:inf", "linfloor:inf", "linfloor:nan"])
    def test_non_finite_cost_parameters_are_usage_errors(self, capsys, cost):
        code, out, err = run(capsys, "cda", "--epsilon", "0.01", "--d", "10", "--cost", cost)
        assert code == 1
        assert out == ""
        assert "q and c must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cda", "--epsilon", "0.1", "--d", "4"],
            ["complexity", "--eps-grid", "1e-1,1e-2", "--d-grid", "2,4"],
        ],
        ids=["cda", "complexity"],
    )
    def test_costs_beyond_double_range_are_error_lines(self, capsys, argv):
        # Both ended in a raw OverflowError traceback from math.exp.
        code, out, err = run(capsys, *argv, "--kernel", "korobov:1", "--cost", "doubleexp:1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exceeds double range" in err

    @pytest.mark.parametrize("tau", ["400", "1e308", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cda", "--epsilon", "0.01", "--d", "10"],
            ["optimal", "--epsilon", "0.1", "--d", "4"],
        ],
        ids=["cda", "optimal"],
    )
    def test_budgets_beyond_double_range_are_error_lines(self, capsys, argv, tau):
        # cda ended in a ZeroDivisionError or ValueError traceback (L(inf) was
        # NaN), optimal's n_cap in an OverflowError or ValueError traceback.
        code, out, err = run(capsys, *argv, "--kernel", "korobov:1", "--tau", tau)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "outside double range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--seed", "3"],
            ["table", "--kernel", "korobov:1"],
            ["table", "--c0sq-mode", "paper"],
            ["table", "--n-eigenvalues", "5"],
            ["spectrum", "--format", "json"],
            ["spectrum", "--seed", "1"],
            ["bounds", "--eps-grid", "0.1", "--d-grid", "2", "--seed", "1"],
            ["cda", "--epsilon", "0.1", "--d", "2", "--seed", "1"],
            ["optimal", "--epsilon", "0.1", "--d", "2", "--kernel", "korobov:1", "--seed", "1"],
            ["complexity", "--eps-grid", "0.1", "--d-grid", "2", "--seed", "1"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


def readme_commands() -> list[list[str]]:
    """Every ``activevars ...`` command in README's ``## CLI`` code block."""
    text = README.read_text()
    section = text.split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("activevars ")
    ]


def test_readme_cli_examples_run(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "table", "bounds", "spectrum", "cda", "optimal", "complexity", "mc-check"
    }
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def _values(valid: str, invalid: str) -> st.SearchStrategy[str]:
    """One flag value: usually from ``valid``, one draw in eight from ``invalid``."""
    return st.sampled_from([False] * 7 + [True]).flatmap(
        lambda bad: st.sampled_from((invalid if bad else valid).split())
    )


_EPS = _values("0.5 0.1 0.05", "0 1 2 -0.1 nan x")
_DIM = _values("1 2 3 5", "0 -1 x")
_POSITIVE = _values("1 1.5 2", "0 -1 nan x")
_TAU = _values("1 1.5 2", "0 -1 nan x 400 1e308 inf")
_GRIDS = {
    "--eps-grid": st.lists(_EPS, min_size=1, max_size=3).map(",".join),
    "--d-grid": st.lists(_DIM, min_size=1, max_size=3).map(",".join),
}
_COSTS = _values(
    "constant poly:2 exp:1 doubleexp:0.5 linfloor:2",
    "poly:-1 linfloor:0.5 poly:nan linfloor:inf doubleexp:1000 x",
)
_SUBCOMMANDS = {
    "bounds": {**_GRIDS, "--c-const": _POSITIVE},
    "spectrum": {},
    "cda": {"--epsilon": _EPS, "--d": _DIM, "--tau": _TAU, "--cost": _COSTS},
    "optimal": {
        "--epsilon": _EPS,
        "--d": _DIM,
        "--c-const": _POSITIVE,
        "--tau": _TAU,
        "--top": _values("0 1 5", "-1 x"),
    },
    "complexity": {**_GRIDS, "--tau": _TAU, "--cost": _COSTS, "--c-const": _POSITIVE},
    "table": {},
    "mc-check": {
        "--d": _DIM,
        "--seed": _values("0 1 7", "-1 x"),
        "--samples": _values("2 10 100", "1 0 x"),
        "--trials": _values("1 3", "0 x"),
    },
}
_REQUIRED = {"--eps-grid", "--d-grid", "--epsilon", "--d"}


@pytest.fixture(scope="module")
def kernel_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernels")
    files = {"good": "[0.6, 0.3, 0.3, 0.1]", "text": '[0.5, "x"]', "number": "3"}
    for name, text in files.items():
        (root / f"{name}.json").write_text(text)
    return root


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generated_argv_exits_with_output_or_an_error_line(kernel_files, data):
    """Every run exits 0 or 2 with output, or 1 with an `error:` line; none raises."""
    name = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)), label="subcommand")
    flags = dict(_SUBCOMMANDS[name])
    if name != "table":
        custom = f"custom:{kernel_files}/"
        flags["--kernel"] = _values(
            f"wiener korobov:1 korobov:2 {custom}good.json",
            f"korobov:0 sobolev {custom}text.json {custom}number.json {custom}none.json",
        )
        flags["--c0sq-mode"] = _values("exact paper", "x")
        flags["--n-eigenvalues"] = _values("50 200", "1 0 x")
    if name != "spectrum":
        flags["--format"] = _values("csv json", "xml")
    argv = [name]
    for flag, values in flags.items():
        odds = [True] * 7 + [False] if flag in _REQUIRED else [True, False]
        if data.draw(st.sampled_from(odds), label=f"{flag} given"):
            argv += [flag, data.draw(values, label=flag)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{name} exits {code}")
    if code == 1:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), argv
    else:
        assert code in (0, 2), argv
        assert out.getvalue().strip(), argv
        if name == "spectrum" or "json" in argv:
            json.loads(out.getvalue())
