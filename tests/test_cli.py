import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, env=None):
    # The child process imports the package from this checkout's src/.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "weightbounds", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


@pytest.mark.parametrize("which", [1, 2, 3])
def test_tables_match_golden_files(which):
    result = run_cli("tables", "--which", str(which))
    assert result.returncode == 0
    golden = (GOLDEN / f"table{which}.txt").read_text(encoding="utf-8")
    assert result.stdout == golden


def test_golden_files_carry_flags_and_match_status():
    table1 = (GOLDEN / "table1.txt").read_text(encoding="utf-8")
    assert "exact-after-clamp" in table1
    assert "flags:" in table1
    assert "[90,5,46]_2 singleton" in table1
    table3 = (GOLDEN / "table3.txt").read_text(encoding="utf-8")
    assert table3.count("count annotation") == 3
    assert "summary: rows=7 exact=7 exact-after-clamp=0 mismatch=0" in table3


def test_spectrum_text_output():
    result = run_cli("spectrum", "fixtures/example_11_3_6.gen")
    assert result.returncode == 0
    assert result.stdout == "A_0=1 A_6=6 A_8=1\n"


def test_spectrum_json_omits_zero_counts():
    result = run_cli("spectrum", "fixtures/example_11_3_6.gen", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["counts"] == {"0": 1, "6": 6, "8": 1}
    assert payload["d"] == 6


def test_exclude_reports_griesmer_set():
    result = run_cli("exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "2",
                     "--method", "all")
    assert result.returncode == 0
    assert "griesmer  : 11, 10, 9, 7" in result.stdout


def test_exclude_csv_row_shape():
    result = run_cli("exclude", "--n", "15", "--k", "5", "--d", "7", "--q", "2",
                     "--format", "csv")
    lines = result.stdout.splitlines()
    assert lines[0].startswith('"n","k","d","q","chen_xie","singleton"')
    assert lines[1].startswith('15,5,7,2,"13 12","13 12 11"')


def test_exclude_raw_mode_keeps_values_past_n():
    result = run_cli("exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2",
                     "--raw", "--method", "chen-xie")
    assert result.stdout.strip() == "chen-xie: 95, 94, 93, 92, 91, 90"
    clamped = run_cli("exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2",
                      "--method", "chen-xie")
    assert clamped.stdout.strip() == "chen-xie: 93, 92, 91, 90"


def test_bounds_text_output():
    result = run_cli("bounds", "--n", "15", "--k", "5", "--d", "7", "--q", "2",
                     "--w", "7")
    assert result.returncode == 0
    assert "residual-griesmer  ok    15 >= 15  (tight)" in result.stdout


def test_residual_output_is_parseable_and_correct():
    from weightbounds.codes import parse_generator_text

    result = run_cli("residual", "fixtures/example_11_3_6.gen", "--weight", "6")
    assert result.returncode == 0
    code = parse_generator_text(result.stdout)
    assert (code.n, code.k, code.q) == (5, 2, 2)
    assert "residual parameters: [5,2,3]_2" in result.stdout


def test_residual_missing_weight_is_a_mismatch_exit():
    result = run_cli("residual", "fixtures/example_11_3_6.gen", "--weight", "7")
    assert result.returncode == 1
    assert "mismatch" in result.stderr


@pytest.mark.parametrize("flag", ["--weight", "--index"])
def test_residual_negative_weight_or_index_is_a_usage_error(flag):
    args = {"--weight": "6", "--index": "0", flag: "-1"}
    result = run_cli("residual", "fixtures/example_11_3_6.gen",
                     *(part for item in args.items() for part in item))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: need w >= 0 and index >= 0")


def test_residual_window_warning_is_one_stderr_line():
    result = run_cli("residual", "fixtures/hamming_13_10_3_ternary.gen",
                     "--weight", "5")
    assert result.returncode == 0
    assert result.stderr == (
        "warning: weight 5 is outside the window (5*(q-1) >= q*3); "
        "returned punctured code has rank 8\n"
    )
    assert result.stdout.startswith(
        "# residual of [13,10,3]_3 at the codeword of weight 5 with class index 0\n"
    )


def test_audit_fixture_passes():
    result = run_cli("audit", "fixtures/rm_1_4.gen")
    assert result.returncode == 0
    assert "no violations" in result.stdout


def test_selftest_deterministic():
    first = run_cli("selftest", "--trials", "40", "--seed", "5")
    second = run_cli("selftest", "--trials", "40", "--seed", "5")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("PASS\n")
    assert "violations=0" in first.stdout


def test_exclude_notes_trivially_absent_weights():
    result = run_cli("exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "2")
    assert "weights 1..5 are trivially absent" in result.stdout


def test_usage_errors_exit_2():
    result = run_cli("exclude", "--n", "11")
    assert result.returncode == 2
    result = run_cli("selftest", "--trials", "0")
    assert result.returncode == 2
    result = run_cli("tables", "--which", "9")
    assert result.returncode == 2
    result = run_cli("spectrum", "does-not-exist.gen")
    assert result.returncode == 2
    result = run_cli("bounds", "--n", "3", "--k", "9", "--d", "1", "--q", "2")
    assert result.returncode == 2  # k > n


@pytest.mark.parametrize("token", ["\u0661", "+1", "1_0"])
def test_generator_file_with_non_ascii_or_signed_number_exits_2(token, tmp_path):
    path = tmp_path / "bad.gen"
    path.write_text(f"2 3 1\n1 {token} 1\n", encoding="utf-8")
    result = run_cli("spectrum", str(path))
    assert result.returncode == 2
    assert "line 2" in result.stderr
    assert result.stdout == ""


def test_generator_file_with_a_byte_order_mark_is_read(tmp_path):
    plain = run_cli("spectrum", "fixtures/hamming_13_10_3_ternary.gen")
    path = tmp_path / "bom.gen"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "hamming_13_10_3_ternary.gen").read_bytes())
    result = run_cli("spectrum", str(path))
    assert (result.returncode, result.stdout, result.stderr) == (0, plain.stdout, "")


def test_enumeration_limit_env_override():
    env = dict(os.environ)
    env["WEIGHTBOUNDS_ENUM_LIMIT"] = "100"
    result = run_cli("spectrum", "fixtures/hamming_13_10_3_ternary.gen", env=env)
    assert result.returncode == 2
    assert "59049" in result.stderr
    # An explicit flag takes precedence over the environment.
    result = run_cli("spectrum", "fixtures/hamming_13_10_3_ternary.gen",
                     "--limit", "59049", env=env)
    assert result.returncode == 0


def test_tables_json_is_sorted_and_loadable():
    result = run_cli("tables", "--which", "3", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["table"] == 3
    assert len(payload["rows"]) == 7
    assert payload["tallies"]["exact"] == 7
    row7 = payload["rows"][6]
    cell = next(c for c in row7["cells"] if c["method"] == "griesmer")
    assert cell["printed_count"] == 143
    assert len(cell["printed"]) == 114
    assert cell["count_consistent"] is False


@pytest.mark.parametrize("command", ["bounds", "exclude"])
@pytest.mark.parametrize("q, message", [
    (6, "6 = 2^1 * 3 is not a prime power"),
    (12, "12 = 2^2 * 3 is not a prime power"),
    (65537, "field order 65537 exceeds 65536"),
])
def test_parameters_over_a_field_that_does_not_exist_exit_2(command, q, message):
    result = run_cli(command, "--n", "5", "--k", "2", "--d", "4", "--q", str(q))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_a_failed_internal_invariant_exits_3_with_one_line(monkeypatch, capsys):
    from weightbounds import cli

    def broken(trials, seed):
        raise AssertionError("residual rank 1 != k-1 = 2 inside the window")

    monkeypatch.setattr(cli, "run_selftest", broken)
    assert cli.main(["selftest", "--trials", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: residual rank 1 != k-1 = 2 inside the window\n"
