"""Mutant catalogue: each entry breaks one rule of the code in a copy of the
project, and names the tests that must then fail.

    python tests/mutants.py

For each entry the script copies src/, tests/, fixtures/, pyproject.toml and
README.md into a temporary directory, requires the entry's old text to occur
exactly once in its file, writes the new text in its place, and runs
`pytest -x` on the named tests there.  The mutant is killed when pytest
reports a failed test (exit 1); it survives when the tests pass, and any
other exit (a test id that is not found, a collection error) is an error.
The script exits 1 if a mutant survives or an entry errs.

List only mutants that change behaviour: a surviving mutant is a missing
test, and an entry is dropped only once it is shown equivalent.  pytest does
not collect this file (its name has no test_ prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml", "README.md")
EXCLUSION = "src/weightbounds/exclusion.py"
TESTS = "tests/test_exclusion.py::"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


MUTANTS = (
    Mutant(
        EXCLUSION,
        "    if k >= 2 and d <= n - k + 1 and not cx <= si:\n"
        '        raise AssertionError(f"singleton set fails to contain chen-xie set at {params}")\n',
        "",
        (TESTS + "test_compare_methods_checks_containment_before_any_note_is_read",
         TESTS + "test_exclude_exits_3_when_singleton_misses_chen_xie"),
        "the containment of the Chen-Xie set in the Singleton set goes unchecked",
    ),
    Mutant(
        EXCLUSION,
        "(params.q * params.d) // (params.q - 1) - 1",
        "(params.q * params.d - 1) // (params.q - 1)",
        (TESTS + "test_chen_xie_odd_ternary_upper_endpoint",
         TESTS + "test_chen_xie_closed_form_equals_slack_scan"),
        "the Chen-Xie endpoint one too high when q - 1 does not divide q*d",
    ),
    Mutant(
        EXCLUSION,
        "q * (n - k - d + 2) + 1",
        "q * (n - k - d + 2)",
        (TESTS + "test_singleton_examples",),
        "the Singleton interval starts one weight too low",
    ),
    Mutant(
        EXCLUSION,
        "if n >= d + k - 2 + ceil_div(d + 1, q - 1):",
        "if n >= d + k - 3 + ceil_div(d + 1, q - 1):",
        (TESTS + "test_the_cap_is_attained",
         TESTS + "test_griesmer_by_period_equals_the_scan"),
        "the Griesmer cap C one lower skips a scan that excludes a weight",
    ),
    Mutant(
        EXCLUSION,
        "period = q ** min(k - 1, (stop - d).bit_length())",
        "period = q ** min(k - 2, (stop - d).bit_length())",
        (TESTS + "test_griesmer_by_period_equals_the_scan",),
        "the Griesmer period q^(k-2), over which f does not grow by exactly 1",
    ),
    Mutant(
        EXCLUSION,
        "while i < k - 2 and m % q == 0:",
        "while i < k - 1 and m % q == 0:",
        (TESTS + "test_griesmer_by_period_equals_the_scan",),
        "the Griesmer unit step counts one ceiling term too many",
    ),
    Mutant(
        EXCLUSION,
        "        elif n < f:",
        "        elif n + 1 < f:",
        (TESTS + "test_compare_methods_progression_on_the_11_3_6_example",
         TESTS + "test_griesmer_by_period_equals_the_scan"),
        "a class with one window weight misses the weight with f(w) = n + 1",
    ),
    Mutant(
        EXCLUSION,
        "range(w0 + max(0, n + 1 - f) * period, stop, period)",
        "range(w0 + max(0, n + 2 - f) * period, stop, period)",
        (TESTS + "test_griesmer_by_period_equals_the_scan",),
        "a class with several window weights misses the weight with f(w) = n + 1",
    ),
)


def run(mutant: Mutant, tmp: Path) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', what went wrong) for one mutant in a
    copy of the project under tmp."""
    for name in COPIED:
        src, dst = ROOT / name, tmp / name
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst)
    target = tmp / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "error", f"the old text occurs {text.count(mutant.old)} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    if proc.returncode == 1:
        return "killed", ""
    if proc.returncode == 0:
        return "survived", ""
    return "error", f"pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            outcome, detail = run(mutant, Path(tmp))
        bad += outcome != "killed"
        print(f"{outcome:<9} {time.perf_counter() - start:5.1f} s  {mutant.path}: {mutant.why}")
        if detail:
            print(detail, file=sys.stderr)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
