"""Byte-for-byte replay of the CLI transcript in tests/golden/cli.txt.

Each record is one `weightbounds` invocation with its exit status,
stdout and stderr, one per `invocations()` in its order.  The replay
runs `cli.main` in-process through `conftest.run_main`, from the
repository root.  Left out are argparse's own usage errors (their
wording varies between Python versions).  No invocation may emit a
Python warning, which reaches stderr differently inside and outside
pytest: regeneration fails with the argv of one that does, and the
replay asserts that none does.

Regenerate with `PYTHONPATH=src python tests/test_cli_transcript.py`, only
for an intended output change, and review the diff.
"""

from __future__ import annotations

import os
import shlex
from pathlib import Path

from conftest import run_main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "golden" / "cli.txt"
FORMATS = ("text", "md", "csv", "json")
FIXTURES = (
    "fixtures/example_11_3_6.gen",
    "fixtures/cyclic_15_10_4_binary.gen",
    "fixtures/hamming_13_10_3_ternary.gen",
    "fixtures/ratio_4.gen",
    "fixtures/rm_1_4.gen",
)
# (n, k, d, q): table rows, fixture parameters, MDS, k = 1 and a tuple
# that violates the Singleton and Griesmer bounds.
TUPLES = (
    (15, 5, 7, 2),
    (11, 3, 6, 2),
    (93, 5, 48, 2),
    (5, 2, 4, 4),
    (5, 1, 5, 2),
    (267, 8, 132, 2),
    (27, 4, 18, 3),
    (13, 10, 3, 3),
    (10, 5, 7, 2),
    (16, 5, 8, 2),
    (4, 2, 3, 3),
)
# Residual weights per fixture; the 59049-codeword ternary Hamming code
# takes only the in-window and full-support weights that the recorded
# transcript holds.  Every weight is cheap: an absent one is settled from
# the spectrum, and an attained one walks only to the codeword it returns.
RESIDUAL_WEIGHTS = dict.fromkeys(FIXTURES, range(17))
RESIDUAL_WEIGHTS["fixtures/hamming_13_10_3_ternary.gen"] = (3, 4, 13)
ERRORS = (
    ("bounds", "--n", "3", "--k", "9", "--d", "1", "--q", "2"),
    ("bounds", "--n", "5", "--k", "2", "--d", "4", "--q", "4", "--w", "0"),
    ("bounds", "--n", "5", "--k", "2", "--d", "6", "--q", "4"),
    ("bounds", "--n", "5", "--k", "2", "--d", "4", "--q", "1"),
    ("exclude", "--n", "11", "--k", "0", "--d", "6", "--q", "2"),
    ("exclude", "--n", "11", "--k", "3", "--d", "6", "--q", "1", "--format", "json"),
    ("spectrum", "does-not-exist.gen"),
    ("spectrum", "fixtures/hamming_13_10_3_ternary.gen", "--limit", "100"),
    ("spectrum", "fixtures/rm_1_4.gen", "--limit", "0"),
    ("exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2", "--limit", "0"),
    ("audit", "fixtures/hamming_13_10_3_ternary.gen", "--limit", "59048"),
    ("audit", "does-not-exist.gen", "--format", "json"),
    ("residual", "fixtures/hamming_13_10_3_ternary.gen", "--weight", "3",
     "--limit", "10"),
    ("selftest", "--trials", "0"),
)


def _weights(n: int, k: int, d: int, q: int) -> list[int]:
    """Weights around every threshold that `bounds --w` reacts to."""
    window = (q * d - 1) // (q - 1)
    ws = {1, d - 1, d, d + 1, q, q + 1, window, window + 1, q * (n - d),
          q * (n - d) + 1, n}
    return sorted(w for w in ws if w >= 1)


def invocations() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for n, k, d, q in TUPLES:
        nkdq = ("--n", str(n), "--k", str(k), "--d", str(d), "--q", str(q))
        for fmt in FORMATS:
            out.append(("bounds", *nkdq, "--format", fmt))
            for w in _weights(n, k, d, q):
                out.append(("bounds", *nkdq, "--w", str(w), "--format", fmt))
            for raw in ((), ("--raw",)):
                out.append(("exclude", *nkdq, *raw, "--format", fmt))
    for path in FIXTURES:
        for fmt in FORMATS:
            out.append(("spectrum", path, "--format", fmt))
            out.append(("audit", path, "--format", fmt))
        for weight in RESIDUAL_WEIGHTS[path]:
            for index in range(3):
                out.append(("residual", path, "--weight", str(weight),
                            "--index", str(index)))
    # [93,5,48]_2 has 46 window weights clamped at n and 48 raw: each under,
    # at and over the limit.
    for raw, width in (((), 46), (("--raw",), 48)):
        for limit in (width + 1, width, width - 1):
            out.append(("exclude", "--n", "93", "--k", "5", "--d", "48", "--q", "2",
                        *raw, "--limit", str(limit)))
    for which in (1, 2, 3):
        for fmt in FORMATS:
            out.append(("tables", "--which", str(which), "--format", fmt))
    out.append(("selftest", "--trials", "20"))
    out.append(("selftest", "--trials", "12", "--seed", "7"))
    out.extend(ERRORS)
    return out


def record(argv: tuple[str, ...], code: int, out: str, err: str) -> str:
    for name, text in (("stdout", out), ("stderr", err)):
        if text and not text.endswith("\n"):
            raise ValueError(f"{shlex.join(argv)}: {name} lacks a final newline")
    return (
        f"$ weightbounds {shlex.join(argv)}\n"
        f"exit {code}; stdout {out.count(chr(10))} lines; "
        f"stderr {err.count(chr(10))} lines\n{out}{err}"
    )


def parse(text: str) -> list[tuple[tuple[str, ...], str]]:
    """Split a transcript into (argv, record text) pairs."""
    lines = text.splitlines(keepends=True)
    out, i = [], 0
    while i < len(lines):
        command, status = lines[i], lines[i + 1]
        argv = tuple(shlex.split(command.removeprefix("$ weightbounds ")))
        size = sum(int(part.split()[1]) for part in status.split("; ")[1:])
        out.append((argv, "".join(lines[i:i + 2 + size])))
        i += 2 + size
    return out


def transcript_records() -> list[tuple[tuple[str, ...], str]]:
    return parse(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_replays_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)
    records = transcript_records()
    assert [argv for argv, _ in records] == invocations()
    for argv, expected in records:
        code, out, err, warned = run_main(argv)
        assert not warned, argv
        assert record(argv, code, out, err) == expected


def test_transcript_covers_every_report_and_format():
    seen = {(argv[0], argv[argv.index("--format") + 1])
            for argv, _ in transcript_records() if "--format" in argv}
    for command in ("bounds", "exclude", "spectrum", "audit", "tables"):
        for fmt in FORMATS:
            assert (command, fmt) in seen


def main() -> None:
    os.chdir(ROOT)
    parts = []
    for argv in invocations():
        code, out, err, warned = run_main(argv)
        if warned:
            raise RuntimeError(f"{shlex.join(argv)}: emitted a Python warning")
        parts.append(record(argv, code, out, err))
    TRANSCRIPT.write_text("".join(parts), encoding="utf-8")
    print(f"wrote {len(parts)} records to {TRANSCRIPT}")


if __name__ == "__main__":
    main()
