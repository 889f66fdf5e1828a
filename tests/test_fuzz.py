"""Fuzzing the input surface: generator files through spectrum, residual
and audit, the enumeration limit, and the bounds/exclude arguments.

Every input must either succeed or fail cleanly with exit 2 and an error
message; exit 3 (a broken internal invariant) or an escaping exception is
a failure.  `bounds`, `residual` and `audit` may also exit 1, their
verdict on a failed bound, a missing codeword or an attained excluded
weight.
The CLI runs in-process, so an uncaught exception fails the test with
its traceback.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

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


def run_on_file(text, argv, env_limit=None):
    """run() with `text` written to a file that replaces "{file}" in argv,
    and WEIGHTBOUNDS_ENUM_LIMIT set to env_limit unless that is None."""
    env = {} if env_limit is None else {cli.ENV_LIMIT: env_limit}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_limit is None:
            os.environ.pop(cli.ENV_LIMIT, None)
        path = os.path.join(tmp, "code.gen")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run([path if arg == "{file}" else arg for arg in argv])


@settings(max_examples=1000)
@given(text=generator_texts())
def test_generator_files_succeed_or_exit_2(text):
    check_clean(*run_on_file(text, ["spectrum", "{file}", "--limit", "4096"]),
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
    limits=st.tuples(st.none() | limit_tokens, limit_tokens)
    | st.tuples(limit_tokens, st.none() | limit_tokens),
)
def test_file_commands_and_limits_succeed_or_exit_cleanly(
    text, command, weight, index, limits
):
    flag, env_limit = limits
    argv = [command, "{file}"]
    if command == "residual":
        argv.append(f"--weight={weight}")
        if index is not None:
            argv.append(f"--index={index}")
    if flag is not None:
        argv.append(f"--limit={flag}")
    allowed = (0, 2) if command == "spectrum" else (0, 1, 2)
    check_clean(*run_on_file(text, argv, env_limit), allowed)


# --- bounds and exclude ------------------------------------------------


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
