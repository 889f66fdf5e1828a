"""Fuzzing the input surface: generator files through spectrum, residual
and audit, the enumeration limit, the bounds/exclude arguments, and the
tables/selftest arguments.

Every input must either succeed or fail cleanly with exit 2 and an error
message; exit 3 (a broken internal invariant) or an escaping exception is
a failure.  `bounds`, `residual`, `audit`, `tables` and `selftest` may
also exit 1, their verdict on a failed bound, a missing codeword, an
attained excluded weight, a table mismatch or a violated property.
The CLI runs in-process, so an uncaught exception fails the test with
its traceback.

Every example runs under a budget of BUDGET_S seconds of process time, so
a slow path fails its example instead of only slowing the suite down.
"""

import functools
import os
import signal
import tempfile

from conftest import run_main
from hypothesis import example, given, settings
from hypothesis import strategies as st

HUGE = [65535, 65536, 65537, 2**31, 2**40]
# Tokens int() reads differently or not at all: sign, ARABIC-INDIC DIGIT
# ONE and THREE, hex, digit separator, exponent, empty.
HOSTILE_TOKENS = ["-1", "+1", "١", "٣", "0x1", "1_0", "1e3", ""]


# Process seconds per example.  The slowest example seen, the first to build
# GF(65536), takes about 0.9 s, and the others under 0.1 s; a CPU timer does
# not count the time that other processes hold the machine.
BUDGET_S = 5


class OverBudget(Exception):
    """An example used more than BUDGET_S seconds of process time.  No
    handler of the CLI catches it, so it fails the example."""


def within_budget(test):
    """Run each call of `test` under a SIGPROF timer (process time, as
    `time.process_time()` counts it) that raises OverBudget after BUDGET_S."""

    def over(signum, frame):
        raise OverBudget(f"an example took more than {BUDGET_S} s of process time")

    @functools.wraps(test)
    def run(*args, **kwargs):
        previous = signal.signal(signal.SIGPROF, over)
        signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
        try:
            return test(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    return run


def check_clean(result, allowed):
    """`result` is run_main's; a status outside `allowed` fails with stderr."""
    status, _, stderr, _ = result
    assert status in allowed, stderr
    if status == 2:
        assert stderr.strip() and "Traceback" not in stderr


# --- generator files ---------------------------------------------------


FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 65536]
NOT_FIELDS = [-1, 0, 1, 6, 12, 65537, 2**31, 2**40]


@st.composite
def generator_texts(draw, clean=False):
    """A well-formed file of up to 4 rows of up to 6 entries, then up to
    three edits: a token replaced, dropped or added, a line dropped or
    repeated, a comment or a blank line inserted.  A clean file has a
    field order, a pivot in each row and no edits."""
    q = draw(st.sampled_from(FIELDS) if clean else
             st.sampled_from(FIELDS) | st.sampled_from(NOT_FIELDS))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4) if clean else 4))
    entry = st.integers(0, min(max(q, 2), 30) - 1).map(str)
    lines = [[str(q), str(n), str(k)]]
    lines += [[draw(entry) for _ in range(n)] for _ in range(k)]
    if clean:  # a pivot per row: the rows are independent
        for i in range(min(n, k)):
            lines[1 + i][i] = "1"
    for _ in range(draw(st.integers(0, 0 if clean else 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "drop", "add", "drop line", "repeat line",
                                     "comment"]))
        token = draw(st.sampled_from([*HOSTILE_TOKENS[:-1], str(q), *map(str, HUGE)])
                     | st.integers(0, 40).map(str))
        if edit == "replace" and j < len(line):
            line[j] = token
        elif edit == "drop" and j < len(line):
            del line[j]
        elif edit == "add":
            line.insert(j, token)
        elif edit == "drop line":
            del lines[i]
        elif edit == "repeat line":
            lines.insert(i, list(line))
        else:
            lines.insert(i, [draw(st.sampled_from(["# comment", "", "  "]))])
        if not lines:
            break
    return "".join(" ".join(line) + "\n" for line in lines)


def run_on_file(text, argv):
    """run_main() with `text` written to a file that replaces "{file}" in argv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.gen")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run_main([path if arg == "{file}" else arg for arg in argv])


@settings(max_examples=1000)
@given(text=generator_texts())
@within_budget
def test_generator_files_succeed_or_exit_2(text):
    check_clean(run_on_file(text, ["spectrum", "{file}", "--limit", "4096"]),
                allowed=(0, 2))


# --- argument tokens ---------------------------------------------------

SPECIAL = [*map(str, [0, -1, -(2**40), *HUGE]), *HOSTILE_TOKENS]
tokens = st.integers(1, 40).map(str) | st.integers(-3, 60).map(str) | st.sampled_from(SPECIAL)
q_tokens = st.sampled_from(FIELDS[:8]).map(str) | tokens


# --- residual, audit and the enumeration limit -------------------------

# Limits stay at or below 4096 codewords: a huge one would let a GF(65536)
# file with k = 4 enumerate 2^64 codewords.
limit_tokens = (st.sampled_from(["0", "1", *HOSTILE_TOKENS])
                | st.integers(-3, 4096).map(str))


@settings(max_examples=1000)
@given(
    text=generator_texts() | generator_texts(clean=True),
    command=st.sampled_from(["spectrum", "residual", "audit"]),
    weight=st.integers(0, 7).map(str) | tokens,  # n <= 6: most weights exist
    index=st.none() | st.integers(0, 3).map(str) | tokens,
    limit=st.none() | limit_tokens,
)
@within_budget
def test_file_commands_and_limits_succeed_or_exit_cleanly(
    text, command, weight, index, limit
):
    argv = [command, "{file}"]
    if command == "residual":
        argv.append(f"--weight={weight}")
        if index is not None:
            argv.append(f"--index={index}")
    if limit is not None:
        argv.append(f"--limit={limit}")
    allowed = (0, 2) if command == "spectrum" else (0, 1, 2)
    check_clean(run_on_file(text, argv), allowed)


# --- bounds and exclude ------------------------------------------------


@settings(max_examples=1000)
@given(
    command=st.sampled_from(["bounds", "exclude"]),
    nkdq=st.tuples(tokens, tokens, tokens, q_tokens),
    w=st.none() | tokens,
    raw=st.booleans(),
    fmt=st.sampled_from(["text", "md", "csv", "json", "xml"]),
)
# [2^31, 2^31, 23]_2: one step past the window, where the Griesmer loop must
# not step through k - 2 ceiling terms.
@example(command="exclude", nkdq=("2147483648", "2147483648", "23", "2"),
         w=None, raw=False, fmt="text")
@within_budget
def test_parameter_arguments_succeed_or_exit_2(command, nkdq, w, raw, fmt):
    argv = [command]
    for flag, token in zip(("--n", "--k", "--d", "--q"), nkdq):
        argv.append(f"{flag}={token}")
    if command == "bounds":
        allowed = (0, 1, 2)
        if w is not None:
            argv.append(f"--w={w}")
    else:
        # A window of up to 2^17 weights runs in well under a second; a wider
        # one, such as that of d = 2^40, is refused before any set is built.
        allowed = (0, 2)
        argv.append(f"--limit={2**17}")
        if raw:
            argv.append("--raw")
    argv.append(f"--format={fmt}")
    check_clean(run_main(argv), allowed)


# --- tables and selftest -----------------------------------------------

# Trials stay tiny so that no example runs a large corpus; seeds are huge
# or negative as well as ordinary.
trial_tokens = st.sampled_from(["-1", "0", "1", "2", *HOSTILE_TOKENS])
seed_tokens = (st.integers(-(2**80), 2**80).map(str)
               | st.sampled_from([str(-(2**63)), str(2**64), *HOSTILE_TOKENS]))


@settings(max_examples=300)
@given(
    command=st.sampled_from(["tables", "selftest"]),
    which=st.none() | st.integers(-1, 4).map(str) | st.sampled_from(SPECIAL),
    trials=trial_tokens,
    seed=st.none() | seed_tokens,
    fmt=st.none() | st.sampled_from(["text", "md", "csv", "json", "xml"]),
)
@within_budget
def test_tables_and_selftest_arguments_succeed_or_exit_cleanly(
    command, which, trials, seed, fmt
):
    argv = [command]
    if command == "tables":
        if which is not None:
            argv.append(f"--which={which}")
        if fmt is not None:
            argv.append(f"--format={fmt}")
    else:
        argv.append(f"--trials={trials}")
        if seed is not None:
            argv.append(f"--seed={seed}")
    check_clean(run_main(argv), allowed=(0, 1, 2))
