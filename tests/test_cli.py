import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import run_main

from weightbounds.codes import MAX_FILE_CHARS

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, env=None, **kwargs):
    # The child process imports the package from this checkout's src/ when it
    # exists; otherwise from the environment, as the installed package when
    # the suite runs with src/ removed.
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
        **kwargs,
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


def test_audit_builds_one_report_and_enumerates_once(monkeypatch):
    from weightbounds import cli, codes, exclusion

    calls = []
    original = exclusion.compare_methods

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # cli and exclusion each look the name up in their own globals.
    monkeypatch.setattr(cli, "compare_methods", counted)
    monkeypatch.setattr(exclusion, "compare_methods", counted)
    codes.spectrum.cache_clear()
    status, out, _, _ = run_main(["audit", str(FIXTURES / "hamming_13_10_3_ternary.gen")])
    assert (status, out.splitlines()[-1]) == (0, "no violations")
    assert len(calls) == 1
    assert codes.spectrum.cache_info().misses == 1


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


def test_the_environment_sets_no_limit():
    # Output depends on argv alone: the variable that earlier versions read is ignored.
    env = {k: v for k, v in os.environ.items() if k != "WEIGHTBOUNDS_ENUM_LIMIT"}
    for argv in (("spectrum", "fixtures/rm_1_4.gen"),
                 ("exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2")):
        plain = run_cli(*argv, env=env)
        result = run_cli(*argv, env={**env, "WEIGHTBOUNDS_ENUM_LIMIT": "1"})
        assert plain.returncode == 0
        assert (result.returncode, result.stdout, result.stderr) == (0, plain.stdout, "")


def run_cli_in_256_mib(*args):
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    return run_cli(*args, preexec_fn=cap_memory, timeout=60)


@pytest.mark.parametrize("argv", [("spectrum",), ("residual", "--weight", "1"), ("audit",)])
def test_an_endless_file_is_refused_in_bounded_memory(argv):
    # An endless file is refused after MAX_FILE_CHARS characters, well within
    # a 256 MiB address-space cap.
    result = run_cli_in_256_mib(argv[0], "/dev/zero", *argv[1:])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: /dev/zero: more than {MAX_FILE_CHARS} characters\n"


def test_a_file_of_many_rows_is_refused_in_bounded_memory(tmp_path):
    # Just under MAX_FILE_CHARS: a header claiming 2097140 one-entry rows, and
    # those rows.  No code has k > n, so q^k is never taken.
    path = tmp_path / "tall.gen"
    path.write_text("65521 1 2097140\n" + "0\n" * 2097140, encoding="utf-8")
    assert path.stat().st_size <= MAX_FILE_CHARS
    result = run_cli_in_256_mib("spectrum", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: header needs 1 <= k <= n, got n = 1, k = 2097140\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exclude_out_of_memory_is_one_error_line(fmt):
    # A 4 M-weight window is inside the default limit but not a 256 MiB cap;
    # a 400 k-weight window still fits.
    argv = ("exclude", "--k", "2", "--q", "2", "--format", fmt)
    result = run_cli_in_256_mib(*argv, "--n", "40000000", "--d", "36000000")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: out of memory\n"
    result = run_cli_in_256_mib(*argv, "--n", "4000000", "--d", "3600000")
    assert (result.returncode, result.stderr) == (0, "")


def identity_file(tmp_path, q, k):
    path = tmp_path / f"eye{k}.gen"
    rows = "\n".join(" ".join(str(int(i == j)) for j in range(k)) for i in range(k))
    path.write_text(f"{q} {k} {k}\n{rows}\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ("spectrum", "fixtures/example_11_3_6.gen"),
    ("residual", "fixtures/example_11_3_6.gen", "--weight", "1"),
    ("audit", "fixtures/example_11_3_6.gen"),
])
def test_default_enumeration_limit_refuses_a_file_before_enumerating(argv, tmp_path):
    result = run_cli(argv[0], identity_file(tmp_path, 2, 27), *argv[2:])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "a limit of at least 134217728 is required" in result.stderr


def test_an_over_limit_file_is_refused_before_its_field_is_built(monkeypatch, tmp_path):
    # The header alone settles 65536^4 = 2^64 > 2^26; GF(65536) takes about a second.
    from weightbounds import cli, codes

    def no_field(q):
        raise AssertionError(f"built GF({q}) before checking the limit")

    monkeypatch.setattr(codes, "make_field", no_field)
    monkeypatch.setattr(cli, "make_field", no_field)
    status, out, err, _ = run_main(["spectrum", identity_file(tmp_path, 65536, 4)])
    assert status == 2
    assert out == ""
    assert err == (
        f"error: enumerating q^k = {2**64} codewords exceeds the limit {2**26}; "
        f"a limit of at least {2**64} is required\n"
    )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit cap")
def test_a_count_too_long_to_print_in_decimal_is_named_as_a_power(tmp_path):
    # 65536^134 has 646 decimal digits, past a cap of 640.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, err, _ = run_main(
            ["spectrum", identity_file(tmp_path, 65536, 134), "--limit", "10"])
    finally:
        sys.set_int_max_str_digits(cap)
    assert status == 2
    assert out == ""
    assert err == (
        "error: enumerating q^k = 65536^134 codewords exceeds the limit 10; "
        "a limit of at least 65536^134 is required\n"
    )


@pytest.mark.parametrize("argv", [
    ("bounds", "--n=\u0661\u0661", "--k", "3", "--d", "6", "--q", "2"),
    ("bounds", "--n", " 11", "--k", "3", "--d", "6", "--q", "2"),
    ("bounds", "--n", "11", "--k", "3", "--d", "6", "--q", "+2"),
    ("spectrum", "fixtures/hamming_13_10_3_ternary.gen", "--limit=1_0"),
])
def test_integer_options_take_ascii_digits_and_a_leading_minus_only(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid integer value" in result.stderr


def test_exclude_refuses_a_window_wider_than_the_limit_at_once():
    # range(2, 2^40 + 1) alone once exhausted memory; the window's width settles it.
    start = time.perf_counter()
    status, out, err, _ = run_main(["exclude", *(f"--{p}={2**40}" for p in "nkd"), "--q=2"])
    assert time.perf_counter() - start < 0.5
    assert (status, out, err) == (2, "", (
        f"error: the excluded-weight window holds {2**40 - 1} weights, "
        f"more than the limit {2**26}\n"))


def test_exclude_window_counts_to_n_unless_raw():
    # [93,5,48]_2: weights 48..95, or 48..93 once cut at n.
    argv = ["exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2"]

    def status_and_err(*args):
        status, _, err, _ = run_main([*argv, *args])
        return status, err

    assert status_and_err("--limit", "46") == (0, "")
    assert status_and_err("--limit", "46", "--raw") == (
        2, "error: the excluded-weight window holds 48 weights, more than the limit 46\n")
    assert status_and_err("--limit", "48", "--raw") == (0, "")


@pytest.mark.parametrize("argv", [
    ("spectrum", "fixtures/example_11_3_6.gen"),
    ("residual", "fixtures/example_11_3_6.gen", "--weight", "6"),
    ("audit", "fixtures/example_11_3_6.gen"),
    ("exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "2"),
])
@pytest.mark.parametrize("limit", ["--limit=0", "--limit=1_0"])
def test_every_guarded_command_refuses_a_bad_limit_with_one_error(argv, limit, monkeypatch):
    monkeypatch.chdir(ROOT)
    status, out, err, _ = run_main([*argv, limit])
    assert (status, out) == (2, "")
    assert err.count("error:") == 1
    if limit == "--limit=0":
        assert err == "error: --limit must be >= 1, got 0\n"


def test_integer_token_rule():
    from weightbounds.cli import integer

    assert [integer(t) for t in ("0", "7", "-1", "-0", "00012")] == [0, 7, -1, 0, 12]
    for token in ("", "-", "+1", " 1", "1 ", "1_0", "\u0661", "0x1", "1e3", "--1", "1-"):
        with pytest.raises(ValueError):
            integer(token)


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


def test_a_failed_internal_invariant_exits_3_with_one_line(monkeypatch):
    from weightbounds import cli

    def broken(trials, seed):
        raise AssertionError("residual rank 1 != k-1 = 2 inside the window")

    monkeypatch.setattr(cli, "run_selftest", broken)
    status, out, err, _ = run_main(["selftest", "--trials", "1"])
    assert status == 3
    assert out == ""
    assert err == "internal error: residual rank 1 != k-1 = 2 inside the window\n"


def test_the_cached_parser_answers_each_call_like_a_fresh_process(monkeypatch):
    from weightbounds import cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # the usage message wraps at the width
    bounds = ["bounds", "--n", "11", "--k", "3", "--d", "6", "--q", "2", "--w", "7"]
    for argv in (
        bounds,
        ["exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "2", "--format", "json"],
        ["bounds", "--n", "11", "--k", "3", "--q", "2"],  # no --d: exit 2 with usage
        bounds,
    ):
        fresh = run_cli(*argv)
        assert run_main(argv)[:3] == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_help_follows_a_width_set_after_the_parser_was_built(monkeypatch):
    from weightbounds import cli

    cli.build_parser()
    helps = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        status, helps[columns], err, _ = run_main(["exclude", "--help"])
        assert (status, err) == (0, "")
        assert helps[columns] == run_cli("exclude", "--help").stdout
    assert helps["40"] != helps["120"]
