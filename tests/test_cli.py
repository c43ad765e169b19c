import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fdpb import fps
from fdpb.cli import COMMANDS, OPTIONS, REQUIRED, main
from fdpb.ring import X, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_expect_usage_error(*argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code


class TestTable:
    def test_fdpb_symbolic_csv(self, capsys):
        code, out = run(
            capsys, "table", "--family", "fdpb", "--k", "1", "--n-max", "2",
            "--symbolic", "--format", "csv",
        )
        assert code == 0
        assert out == "n,value\n0,1\n1,1/2\n2,(-1/2)*L + 1/6\n"

    def test_bernoulli_defaults(self, capsys):
        code, out = run(capsys, "table", "--family", "bernoulli", "--n-max", "2")
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,-1/2", "2,1/6"]

    def test_missing_k_is_usage_error(self):
        assert run_expect_usage_error("table", "--family", "fdpb", "--n-max", "3") == 2

    @pytest.mark.parametrize("cmd", ["table", "poly"])
    @pytest.mark.parametrize("family", ["bernoulli", "carlitz", "daehee"])
    def test_k_on_k_free_family_is_usage_error(self, capsys, cmd, family):
        size = "--n-max" if cmd == "table" else "--n"
        argv = (cmd, "--family", family, "--k", "5", size, "2")
        assert run_expect_usage_error(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k does not apply" in captured.err

    def test_malformed_rational_is_usage_error(self):
        assert (
            run_expect_usage_error(
                "table", "--family", "carlitz", "--n-max", "2", "--lambda", "nope"
            )
            == 2
        )

    def test_negative_n_max_is_usage_error(self):
        argv = ("table", "--family", "bernoulli", "--n-max", "-1")
        assert run_expect_usage_error(*argv) == 2

    def test_lambda_substitution(self, capsys):
        code, out = run(
            capsys, "table", "--family", "carlitz", "--n-max", "1",
            "--lambda", "1/3", "--format", "csv",
        )
        assert code == 0
        # beta_1 = (L - 1)/2 at L = 1/3
        assert out.splitlines()[2] == "1,-1/3"

    def test_json_round_trips(self, capsys):
        args = (
            "table", "--family", "fdpb", "--k", "2", "--n-max", "4",
            "--format", "json",
        )
        code, out = run(capsys, *args)
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == list(range(5))
        assert all(r["k"] == 2 and r["lambda"] == "symbolic" for r in rows)
        assert json.dumps(rows, indent=2) + "\n" == out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out = run(
            capsys, "table", "--family", "daehee", "--n-max", "1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,value\n")


TABLE = ("table", "--family", "fdpb", "--k", "2", "--n-max", "3")
POLY = ("poly", "--family", "fdpb", "--k", "2", "--n", "3")


class TestOut:
    @pytest.mark.parametrize("argv", [TABLE, POLY])
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.csv"
        assert run_expect_usage_error(*argv, "--out", str(target)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write --out" in captured.err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            TABLE,
            TABLE + ("--format", "json"),
            POLY,
            POLY + ("--format", "json"),
            POLY + ("--format", "csv", "--lambda", "-1/2"),
        ],
    )
    def test_out_gets_the_stdout_bytes(self, capsys, tmp_path, argv):
        _, printed = run(capsys, *argv)
        target = tmp_path / "out.txt"
        code, out = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes() == printed.encode()


class TestPoly:
    def test_fdpb_symbolic(self, capsys):
        code, out = run(
            capsys, "poly", "--family", "fdpb", "--k", "1", "--n", "1", "--symbolic"
        )
        assert code == 0
        assert out == "x + 1/2\n"

    def test_polybernoulli_matches_shifted_bernoulli(self, capsys):
        code, out = run(
            capsys, "poly", "--family", "polybernoulli", "--k", "1", "--n", "2"
        )
        _, shifted = run(capsys, "poly", "--family", "bernoulli", "--n", "2",
                         "--lambda", "0")
        # B_2(x+1) = x^2 + x + 1/6
        assert code == 0
        assert out == "x^2 + x + 1/6\n"
        assert shifted == "x^2 + (-1)*x + 1/6\n"

    def test_carlitz_degree_zero(self, capsys):
        code, out = run(capsys, "poly", "--family", "carlitz", "--n", "0")
        assert code == 0
        assert out == "1\n"

    def test_negative_n_is_usage_error(self):
        argv = ("poly", "--family", "fdpb", "--k", "1", "--n", "-1")
        assert run_expect_usage_error(*argv) == 2

    @pytest.mark.parametrize("cmd", ["poly", "table"])
    def test_negative_lambda_as_separate_token(self, capsys, cmd):
        size = "--n" if cmd == "poly" else "--n-max"
        base = (cmd, "--family", "carlitz", size, "3")
        code_sep, sep = run(capsys, *base, "--lambda", "-1/2")
        code_eq, eq = run(capsys, *base, "--lambda=-1/2")
        assert code_sep == code_eq == 0
        assert sep == eq
        assert sep != run(capsys, *base, "--lambda=1/2")[1]

    @pytest.mark.parametrize("lam", ["--symbolic", "--lambda=1/2"])
    def test_values_past_the_int_str_limit(self, capsys, lam):
        # beta_1^(k)(x) = x + 2^(-k): at k = 20000 the denominator has 6,021
        # digits, past the 4,300 that int/str conversions allow by default
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is not None:
            before = sys.get_int_max_str_digits()
            set_limit(4300)
        try:
            code, out = run(capsys, "poly", "--family", "fdpb", "--k", "20000", "--n", "1", lam)
            if set_limit is not None:
                assert sys.get_int_max_str_digits() == 4300
        finally:
            if set_limit is not None:
                set_limit(before)
        assert code == 0
        assert len(out) > 6021
        assert parse_poly(out) == X + Fraction(1, 2**20000)

    def test_json_record(self, capsys):
        code, out = run(
            capsys, "poly", "--family", "fdpb", "--k", "-1", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "fdpb"
        assert record["k"] == -1
        assert record["n"] == 2


class TestVerify:
    def test_named_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "THM3_K2", "--n-max", "1")
        assert code == 0
        assert out.startswith("THM3_K2: PASS")

    def test_unknown_suite_is_usage_error(self):
        assert run_expect_usage_error("verify", "--suite", "NO_SUCH") == 2

    def test_small_full_suite(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "all", "--n-max", "1",
            "--k-min", "1", "--k-max", "1",
        )
        assert code == 0
        assert len(out.splitlines()) == 15

    def test_negative_n_max_is_usage_error(self):
        assert run_expect_usage_error("verify", "--n-max", "-2") == 2

    def test_empty_k_range_is_usage_error(self):
        assert (
            run_expect_usage_error(
                "verify", "--k-min", "3", "--k-max", "-3", "--suite", "THM4_CLOSED"
            )
            == 2
        )

    def test_identity_without_cells_is_usage_error(self):
        # THM2 starts at n = 1, so n <= 0 leaves it nothing to check
        argv = ("verify", "--suite", "THM2_DIFFERENCE", "--n-max", "0")
        assert run_expect_usage_error(*argv) == 2

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "EQ9_DELTA", "--n-max", "2",
            "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["identity"] == "EQ9_DELTA"
        assert reports[0]["status"] == "pass"
        assert "error" not in reports[0]

    @pytest.fixture
    def broken_division(self, monkeypatch):
        def series_div(num, den):
            raise fps.NonUnitLeadingCoefficient("division by the zero series")

        monkeypatch.setattr(fps, "series_div", series_div)
        monkeypatch.setattr(fps, "_longest", {})  # no series built before the break

    def test_series_error_fails_its_identity_and_the_rest_still_report(
        self, capsys, broken_division
    ):
        code, out = run(capsys, "verify", "--suite", "all", "--n-max", "4")
        assert code == 1
        lines = out.splitlines()
        heads = [line for line in lines if not line.startswith(" ")]
        assert len(heads) == 15
        failed = [head for head in heads if ": FAIL " in head]
        errors = [line for line in lines if line.startswith("  error: ")]
        assert failed and len(errors) == len(failed)
        for line in errors:
            assert line.startswith(
                "  error: NonUnitLeadingCoefficient: division by the zero series ("
            )
        # these read no series, so a broken division leaves them passing
        for name in (
            "THM1_ADDITION", "THM2_DIFFERENCE", "THM5_RECURRENCE", "THM6_NEGATIVE",
            "THM7_DIFFERENCE_QUOTIENT", "THM8_INTEGRAL", "EQ38_FALLING_INTEGRAL",
            "DERIV_FORMULA", "EQ60_BASIS",
        ):
            assert f"{name}: PASS (n <= 4, k in [-3, 3])" in heads
        # THM3 builds its series before its first cell
        at = lines.index("THM3_K2: FAIL (n <= 4, k in [-3, 3])") + 1
        assert lines[at].endswith("(before the first cell)")

    def test_series_error_in_json_names_the_last_cell(self, capsys, broken_division):
        code, out = run(
            capsys, "verify", "--suite", "THM4_CLOSED", "--n-max", "4", "--format", "json",
        )
        assert code == 1
        (report,) = json.loads(out)
        assert report["status"] == "fail" and report["counterexample"] is None
        assert report["error"].startswith("NonUnitLeadingCoefficient: ")
        assert report["error"].endswith("(after the cell n=4, k=3)")


class TestDeterminism:
    def test_table_bytes_stable(self, capsys):
        args = ("table", "--family", "fdpb", "--k", "-2", "--n-max", "6",
                "--format", "json")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_verify_bytes_stable(self, capsys):
        args = ("verify", "--suite", "all", "--n-max", "2",
                "--k-min", "-1", "--k-max", "1", "--format", "json")
        code1, first = run(capsys, *args)
        code2, second = run(capsys, *args)
        assert code1 == code2 == 0
        assert first == second


class TestParser:
    @pytest.mark.parametrize(
        "first, second",
        [
            (POLY + ("--format", "json"), ("poly", "--format", "json", "--n", "3", "--k", "2",
                                           "--family", "fdpb")),
            (TABLE + ("--format", "json"), ("table", "--family=fdpb", "--k=2", "--n-max=3",
                                            "--format=json")),
            (("poly", "--family", "fdpb", "--k", "-3", "--n", "2"),
             ("poly", "--family", "fdpb", "--k=-3", "--n", "2")),
            (POLY + ("--format", "csv", "--format", "json"), POLY + ("--format", "json")),
            (POLY + ("--k", "5", "--k", "-1"), ("poly", "--family", "fdpb", "--k", "-1",
                                                "--n", "3")),
            (POLY + ("--symbolic", "--symbolic"), POLY),
        ],
    )
    def test_equivalent_spellings_print_the_same_bytes(self, capsys, first, second):
        code_first, out_first = run(capsys, *first)
        code_second, out_second = run(capsys, *second)
        assert code_first == code_second == 0
        assert out_first == out_second != ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (POLY + ("--colour", "red"), "unrecognized arguments: --colour"),
            (("poly", "--fam", "fdpb", "--k", "2", "--n", "3"), "unrecognized"),
            (("table", "--family", "fdpb", "--k", "2", "--n", "3"), "unrecognized"),
            (POLY + ("stray",), "unrecognized arguments: stray"),
            (POLY + ("--out",), "--out: expected one argument"),
            (POLY + ("--out", "--format", "json"), "--out: expected one argument"),
            (POLY + ("--lambda", "1/2", "--symbolic"), "not allowed with argument --lambda"),
            (POLY + ("--symbolic=yes",), "ignored explicit argument 'yes'"),
            (("poly", "--family", "euler", "--n", "3"), "invalid choice: 'euler'"),
            (POLY + ("--format", "xml"), "invalid choice: 'xml'"),
            (("poly", "--family", "fdpb", "--k", "two", "--n", "3"), "--k: invalid INT"),
            (("poly", "--k", "2", "--n", "3"), "required: --family"),
            (("poly", "--family", "fdpb", "--k", "2"), "required: --n"),
            (("table", "--k", "2"), "required: --family"),
            (("verify", "--n-max", "1.5"), "--n-max: invalid INT"),
            (("tabel", "--family", "fdpb"), "invalid choice: 'tabel'"),
            ((), "required: command"),
            (POLY + ("--lambda", "1/0"), "--lambda: invalid P/Q value: '1/0'"),
        ],
    )
    def test_usage_errors_exit_2_with_a_message(self, capsys, argv, message):
        assert run_expect_usage_error(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.startswith("usage: fdpb")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_the_commands(self, capsys, flag):
        code, out = run(capsys, flag)
        assert code == 0
        assert out.startswith("usage: fdpb ")
        assert all(f"  {name} " in out for name in COMMANDS)

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_every_option_its_choices_and_default(self, capsys, command):
        code, out = run(capsys, command, "-h")
        assert code == 0
        assert out.startswith(f"usage: fdpb {command} ")
        for option, (_, parse, default) in OPTIONS[command].items():
            row = next(line for line in out.splitlines() if line.split()[:1] == [option])
            if isinstance(parse, tuple):
                assert all(choice in row for choice in parse)
            if default is REQUIRED:
                assert "required" in row
            elif default is not None:
                assert f"default: {default}" in row

    @staticmethod
    def loaded_in_cold_process(script, modules):
        """Which of modules a fresh interpreter has loaded after script."""
        script = f"import sys\n{script}\nprint(sorted({set(modules)!r} & set(sys.modules)))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        return done.stdout.splitlines()[-1]

    def test_a_command_imports_no_argparse(self):
        # argparse's parser loads gettext and locale in a cold process
        script = (
            "from fdpb.cli import main\n"
            "main(['poly', '--family', 'fdpb', '--k', '2', '--n', '3', '--lambda', '-1/2'])"
        )
        assert self.loaded_in_cold_process(script, {"argparse", "gettext", "locale"}) == "[]"

    def test_import_loads_no_dataclasses(self):
        # the result records are NamedTuples; dataclasses would also load inspect
        assert self.loaded_in_cold_process("import fdpb", {"dataclasses", "inspect"}) == "[]"
