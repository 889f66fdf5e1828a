"""Command-line front end.

Subcommands: bounds, exclude, spectrum, residual, tables, audit,
selftest.  Generator matrices are exchanged in the text format of
`codes.parse_generator_text`.  Exit status: 0 on success, 1 on a
violated check or mismatch, 2 on usage errors, 3 on a broken internal
invariant (an AssertionError, reported as one `internal error:` line).
Output depends only on argv and the files it names.

Integer options are ASCII digits 0-9 with at most one leading '-'.  One
limit, --limit (default 2^26), refuses a code file with more codewords
before its field is built and an `exclude` window with more weights
before any set is built; the library takes no limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import warnings

from .bounds import BoundVerdict, max_window_weight, parameter_verdicts
from .codes import (
    CodeParams, LinearCode, ResidualWindowWarning, WeightSpectrum, _read_matrix,
    code_from_matrix, code_params, find_codeword_of_weight, generator_text, residual, spectrum,
)
from .corpus import DEFAULT_SELFTEST_SEED, DEFAULT_SELFTEST_TRIALS
from .errors import EnumerationTooLargeError, WeightBoundsError
from .exclusion import AuditViolation, ExclusionReport, compare_methods
from .gf import check_field_order, make_field
from .selfcheck import run_selftest
from .tables import CLAMPED, EXACT, MISMATCH, compare_table, format_weights

DEFAULT_ENUMERATION_LIMIT = 1 << 26
FORMATS = ("text", "md", "csv", "json")


# --- shared shapes ----------------------------------------------------


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _md_table(header, rows) -> list[str]:
    return [
        "| " + " | ".join(str(cell) for cell in row) + " |"
        for row in (header, ["---"] * len(header), *rows)
    ]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_csv_row(*row) for row in rows)
    return buf.getvalue()


def _csv_row(*cells) -> tuple:
    """Every CSV cell one way: a bool in lower case, a weight set descending
    and space-separated ('-' if empty), any other cell as it is."""
    return tuple(str(c).lower() if isinstance(c, bool) else
                 (" ".join(map(str, _desc(c))) or "-") if isinstance(c, frozenset) else c
                 for c in cells)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _desc(weights) -> list[int]:
    return sorted(weights, reverse=True)


def _json_sets(sets: dict) -> dict:
    return {name.replace("-", "_"): _desc(s) for name, s in sets.items()}


def _set_lines(sets: dict) -> list[str]:
    return [f"{name:<10}: {format_weights(s)}" for name, s in sets.items()]


def _spectrum_line(counts: dict[int, int]) -> str:
    return " ".join(f"A_{w}={c}" for w, c in sorted(counts.items()))


# --- bounds -----------------------------------------------------------


def render_verdicts(verdicts: list[BoundVerdict], fmt: str) -> str:
    if fmt == "json":
        return _json_text({"bounds": [
            {**v._asdict(), "holds": v.holds, "tight": v.tight} for v in verdicts
        ]})
    if fmt == "csv":
        rows = [(v.name, v.holds, v.lhs, v.relation, v.rhs, v.tight) for v in verdicts]
        return _csv_text(("bound", "holds", "lhs", "relation", "rhs", "tight"), rows)
    if fmt == "md":
        return _lines(_md_table(("bound", "holds", "check", "tight"), [
            (v.name, "yes" if v.holds else "no", f"{v.lhs} {v.relation} {v.rhs}",
             "yes" if v.tight else "no")
            for v in verdicts
        ]))
    return _lines(
        f"{v.name:<19}{'ok' if v.holds else 'FAIL':<6}"
        f"{v.lhs} {v.relation} {v.rhs}" + ("  (tight)" if v.tight else "")
        for v in verdicts
    )


def cmd_bounds(args) -> int:
    verdicts = parameter_verdicts(args.n, args.k, args.d, args.q, args.w)
    check_field_order(args.q)
    sys.stdout.write(render_verdicts(verdicts, args.format))
    return 0 if all(v.holds for v in verdicts) else 1


# --- exclude ----------------------------------------------------------


def render_exclusion_report(report: ExclusionReport, fmt: str) -> str:
    """Every criterion's set, their union and the notes (never empty: each
    report has one left-endpoint note)."""
    p, sets = report.params, {**report.sets, "union": report.union}
    if fmt == "json":
        return _json_text({"params": p._asdict(), **_json_sets(sets),
                           "clamped": report.clamped, "notes": list(report.notes)})
    if fmt == "csv":
        return _csv_text(
            ("n", "k", "d", "q", *(name.replace("-", "_") for name in sets), "clamped"),
            [(*p, *sets.values(), report.clamped)],
        )
    raw = "" if report.clamped else " (raw intervals)"
    title = f"excluded weights for {p}{raw}"
    if fmt == "md":
        return _lines([title, "", *_md_table(
            ("method", "weights", "count"),
            [(name, format_weights(s), len(s)) for name, s in sets.items()],
        ), "", "notes:", *(f"- {note}" for note in report.notes)])
    return _lines([title, *_set_lines(sets), "notes:",
                   *(f"  - {note}" for note in report.notes)])


def cmd_exclude(args) -> int:
    params = CodeParams(n=args.n, k=args.k, d=args.d, q=args.q)
    check_field_order(args.q)
    # Every criterion's weights lie in this window, so its width bounds the sets.
    lo, hi = min(args.n - args.k + 2, args.d), max_window_weight(args.d, args.q)
    size, limit = (hi if args.raw else min(hi, args.n)) - lo + 1, _limit(args)
    if size > limit:
        raise EnumerationTooLargeError(
            f"the excluded-weight window holds {size} weights, more than the limit {limit}"
        )
    report = compare_methods(params, clamp=not args.raw)
    sys.stdout.write(render_exclusion_report(report, args.format))
    return 0


# --- spectrum ---------------------------------------------------------


def render_spectrum(code: LinearCode, spec: WeightSpectrum, fmt: str) -> str:
    counts = spec.nonzero()
    if fmt == "json":
        return _json_text({"n": code.n, "k": code.k, "q": code.q, "d": spec.min_distance,
                           "counts": {str(w): c for w, c in counts.items()}})
    if fmt == "csv":
        return _csv_text(("weight", "count"), sorted(counts.items()))
    if fmt == "md":
        return _lines(_md_table(("weight", "count"), sorted(counts.items())))
    return _spectrum_line(counts) + "\n"


def cmd_spectrum(args) -> int:
    code = _read_code(args)
    sys.stdout.write(render_spectrum(code, spectrum(code), args.format))
    return 0


# --- residual ---------------------------------------------------------


def cmd_residual(args) -> int:
    code = _read_code(args)
    try:
        cw = find_codeword_of_weight(code, args.weight, args.index)
    except ValueError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResidualWindowWarning)
        res = residual(code, cw)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    punctured = " ".join(str(j) for j, x in enumerate(cw) if x)
    comment = (
        f"residual of {code_params(code)} at the codeword of "
        f"weight {args.weight} with class index {args.index}\n"
        f"punctured columns: {punctured}\n"
        f"residual parameters: {code_params(res)}"
    )
    sys.stdout.write(generator_text(res, comment=comment))
    return 0


# --- tables -----------------------------------------------------------

# A table cell's columns, in csv order; json names its cell keys by them.
CELL_COLUMNS = ("method", "verdict", "printed", "computed_raw", "computed_clamped",
                "printed_count", "count_consistent")


def render_table_comparison(which: int, comps, fmt: str) -> str:
    all_flags = [flag for comp in comps for flag in comp.flags]
    tallies = {v: sum(c.verdict == v for c in comps) for v in (EXACT, CLAMPED, MISMATCH)}

    def columns(cell) -> tuple:
        return tuple(getattr(cell, col) for col in CELL_COLUMNS)

    def shown(cell) -> str:
        # Display the variant the printed table used; raw when neither matches.
        s = cell.computed_clamped if cell.verdict == CLAMPED else cell.computed_raw
        return format_weights(s, ranges=which == 3)

    if fmt == "json":
        rows = [
            {
                "params": comp.row.params._asdict(),
                "source": comp.row.source,
                "verdict": comp.verdict,
                "flags": list(comp.flags),
                "cells": [
                    {col: _desc(v) if isinstance(v, frozenset) else v
                     for col, v in zip(CELL_COLUMNS, columns(c))}
                    for c in comp.cells
                ],
            }
            for comp in comps
        ]
        return _json_text({"table": which, "rows": rows, "tallies": tallies})
    if fmt == "csv":
        rows = [
            (which, comp.row.source, *comp.row.params, *columns(c))
            for comp in comps
            for c in comp.cells
        ]
        return _csv_text(("table", "source", "n", "k", "d", "q", *CELL_COLUMNS), rows)
    if fmt == "md":
        lines = _md_table(
            ("parameters", *(c.method for c in comps[0].cells), "match"),
            [(str(comp.row.params),
              *(f"{shown(c)} ({len(c.printed)})" for c in comp.cells), comp.verdict)
             for comp in comps],
        )
        lines += ["", "discrepancies:"]
        lines += [f"- {flag}" for flag in all_flags] if all_flags else ["- none"]
        lines += ["", f"rows: {len(comps)}; exact: {tallies[EXACT]}; "
                  f"exact-after-clamp: {tallies[CLAMPED]}; mismatch: {tallies[MISMATCH]}"]
        return _lines(lines)
    lines = [f"table {which}: excluded-weight reproduction ({len(comps)} rows)", ""]
    for comp in comps:
        label = str(comp.row.params)
        for i, c in enumerate(comp.cells):
            prefix = f"{label:<16}" if i == 0 else " " * 16
            lines.append(f"{prefix}{c.method:<11}{c.verdict:<19}{shown(c)}")
    lines += ["", "flags:"]
    lines += [f"  - {flag}" for flag in all_flags] if all_flags else ["  - none"]
    lines.append(
        f"summary: rows={len(comps)} exact={tallies[EXACT]} "
        f"exact-after-clamp={tallies[CLAMPED]} mismatch={tallies[MISMATCH]}"
    )
    return _lines(lines)


def cmd_tables(args) -> int:
    comps = compare_table(args.which)
    sys.stdout.write(render_table_comparison(args.which, comps, args.format))
    return 0 if all(comp.verdict != MISMATCH for comp in comps) else 1


# --- audit ------------------------------------------------------------


def render_audit(
    report: ExclusionReport, counts: dict[int, int],
    violations: list[AuditViolation], fmt: str,
) -> str:
    """The code's spectrum and clamped sets next to the audit's violations."""
    if fmt == "json":
        return _json_text({
            "params": report.params._asdict(),
            "counts": {str(w): c for w, c in counts.items()},
            "excluded": _json_sets(report.sets),
            "violations": [v._asdict() for v in violations],
        })
    if fmt == "csv":
        return _csv_text(("criterion", "weight", "count"), violations)
    lines = [f"audit of {report.params}",
             f"spectrum: {_spectrum_line(counts)}", *_set_lines(report.sets)]
    if violations:
        lines.append("violations:")
        lines += [f"  - {v}" for v in violations]
    else:
        lines.append("no violations")
    return _lines(lines)


def cmd_audit(args) -> int:
    code = _read_code(args)
    report, spec = compare_methods(code_params(code)), spectrum(code)
    violations = report.audit(spec.counts)
    sys.stdout.write(render_audit(report, spec.nonzero(), violations, args.format))
    return 1 if violations else 0


# --- selftest ---------------------------------------------------------


def cmd_selftest(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    results = run_selftest(args.trials, args.seed)
    print(f"selftest: trials={args.trials} seed={args.seed}")
    for res in results:
        print(
            f"{res.name:<20} checked={res.checked:<7} "
            f"violations={len(res.violations)}"
        )
        for violation in res.violations:
            print(f"  - {violation}")
    ok = all(res.ok for res in results)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# --- parser -----------------------------------------------------------


def integer(token: str) -> int:
    """ASCII digits 0-9 with at most one leading '-': int() alone would also
    take '+', surrounding spaces, '_' separators and other scripts' digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{token!r} is not an integer in ASCII digits")
    return int(token)


def _limit(args) -> int:
    """The --limit of a guarded command, checked when the command reads it."""
    if args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    return args.limit


def _read_code(args) -> LinearCode:
    """The code in args.file, refused if its q^k codewords exceed the limit.  The
    only enumeration check: a command enumerates this code and its residuals."""
    q, rows = _read_matrix(args.file)
    check_field_order(q)  # caps q before q^k is taken
    limit, size = _limit(args), q ** len(rows)
    if size > limit:
        try:
            size_text = str(size)
        except ValueError:  # more digits than int-to-str conversion allows
            size_text = f"{q}^{len(rows)}"
        raise EnumerationTooLargeError(
            f"enumerating q^k = {size_text} codewords exceeds the limit {limit}; "
            f"a limit of at least {size_text} is required"
        )
    return code_from_matrix(make_field(q), rows)


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=FORMATS, default="text")


def _add_limit(sub) -> None:
    sub.add_argument("--limit", type=integer, default=DEFAULT_ENUMERATION_LIMIT,
                     help="most codewords in a code, or weights in a window (default 2^26)")


def _add_code_file(sub) -> None:
    """The arguments `_read_code` reads."""
    sub.add_argument("file")
    _add_limit(sub)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and help
    text reads the terminal width when it is formatted, not here."""
    parser = argparse.ArgumentParser(
        prog="weightbounds",
        description="Bounds and excluded weights for q-ary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate every applicable bound")
    for flag in ("--n", "--k", "--d", "--q"):
        p.add_argument(flag, type=integer, required=True)
    p.add_argument("--w", type=integer, help="also evaluate the weight-aware bounds")
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exclude", help="excluded-weight sets for (n, k, d, q)")
    for flag in ("--n", "--k", "--d", "--q"):
        p.add_argument(flag, type=integer, required=True)
    p.add_argument("--raw", action="store_true", help="keep formula intervals even past n")
    _add_limit(p)
    _add_format(p)
    p.set_defaults(func=cmd_exclude)

    p = sub.add_parser("spectrum", help="exact weight distribution of a code file")
    _add_code_file(p)
    _add_format(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("residual", help="puncture a code at one of its codewords")
    p.add_argument("--weight", type=integer, required=True)
    p.add_argument("--index", type=integer, default=0,
                   help="0-based position within the weight class (enumeration order)")
    _add_code_file(p)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("tables", help="reproduce an embedded comparison table")
    p.add_argument("--which", type=integer, choices=(1, 2, 3), required=True)
    _add_format(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("audit", help="check the exclusion criteria against a code")
    _add_code_file(p)
    _add_format(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--trials", type=integer, default=DEFAULT_SELFTEST_TRIALS)
    p.add_argument("--seed", type=integer, default=DEFAULT_SELFTEST_SEED)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WeightBoundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
