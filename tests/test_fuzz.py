"""Fuzzing the input surface: generator files and the bounds/exclude arguments.

Every input must either succeed or fail cleanly with exit 2 and an error
message; exit 3 (a broken internal invariant) or an escaping exception is
a failure.  `bounds` may also exit 1, its verdict when a bound fails.
The CLI runs in-process, so an uncaught exception fails the test with
its traceback.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weightbounds import cli
from weightbounds.errors import WeightBoundsError
from weightbounds.gf import check_field_order

HUGE = [65535, 65536, 65537, 2**31, 2**40]
# Tokens int() reads differently or not at all: sign, ARABIC-INDIC DIGIT
# ONE and THREE, hex, digit separator, exponent, empty.
HOSTILE_TOKENS = ["-1", "+1", "١", "٣", "0x1", "1_0", "1e3", ""]


def run(argv):
    """(exit status, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    return status, err.getvalue()


def check_clean(status, stderr, allowed):
    assert status in allowed, stderr
    if status == 2:
        assert stderr.strip() and "Traceback" not in stderr


# --- generator files ---------------------------------------------------


FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 65536]
NOT_FIELDS = [-1, 0, 1, 6, 12, 65537, 2**31, 2**40]


@st.composite
def generator_texts(draw):
    """A well-formed file of up to 4 rows of up to 6 entries, then up to
    three edits: a token replaced, dropped or added, a line dropped or
    repeated, a comment or a blank line inserted."""
    q = draw(st.sampled_from(FIELDS) | st.sampled_from(NOT_FIELDS))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = st.integers(0, min(max(q, 2), 30) - 1).map(str)
    lines = [[str(q), str(n), str(k)]]
    lines += [[draw(entry) for _ in range(n)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 3))):
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


@settings(max_examples=1000)
@given(text=generator_texts())
def test_generator_files_succeed_or_exit_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.gen")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        check_clean(*run(["spectrum", path, "--limit", "4096"]), allowed=(0, 2))


# --- bounds and exclude ------------------------------------------------

SPECIAL = [*map(str, [0, -1, -(2**40), *HUGE]), *HOSTILE_TOKENS]
tokens = st.integers(1, 40).map(str) | st.integers(-3, 60).map(str) | st.sampled_from(SPECIAL)
q_tokens = st.sampled_from(FIELDS[:8]).map(str) | tokens


def as_int(token):
    try:
        return int(token)  # what argparse's type=int does
    except ValueError:
        return None


def unguarded_exclusion(n, k, d, q):
    """Whether `exclude` gets a tuple CodeParams accepts, over a field, with d > 2^17.
    Its scan windows and sets grow with d and no guard bounds them yet, so
    such a tuple can run for minutes or exhaust memory; skipped until then."""
    if None in (n, k, d, q) or not (1 <= k <= n and 1 <= d <= n):
        return False
    try:
        check_field_order(q)
    except WeightBoundsError:
        return False
    return d > 2**17


@settings(max_examples=1000)
@given(
    command=st.sampled_from(["bounds", "exclude"]),
    nkdq=st.tuples(tokens, tokens, tokens, q_tokens),
    w=st.none() | tokens,
    method=st.sampled_from(["all", "chen-xie", "singleton", "griesmer", "bogus"]),
    raw=st.booleans(),
    fmt=st.sampled_from(["text", "md", "csv", "json", "xml"]),
)
def test_parameter_arguments_succeed_or_exit_2(command, nkdq, w, method, raw, fmt):
    argv = [command]
    for flag, token in zip(("--n", "--k", "--d", "--q"), nkdq):
        argv.append(f"{flag}={token}")
    if command == "bounds":
        allowed = (0, 1, 2)
        if w is not None:
            argv.append(f"--w={w}")
    else:
        allowed = (0, 2)
        assume(not unguarded_exclusion(*map(as_int, nkdq)))
        argv.append(f"--method={method}")
        if raw:
            argv.append("--raw")
    argv.append(f"--format={fmt}")
    check_clean(*run(argv), allowed)
