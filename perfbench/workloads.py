"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A workload is three functions over `wb`, a namespace of the package's
modules (gf, codes, bounds, exclusion, corpus, tables, selfcheck, cli)
and of `root`, the checkout's root directory:

* `setup(wb, rng)` builds the fields and the inputs from a seeded
  `random.Random`; it runs inside the `setup_s` timing.
* `run(wb, inputs)` is the timed pass: calls into the package, one after
  another, each starting when the previous one returned.
* `check(wb, inputs, out)` checks what the pass returned, untimed, and
  returns (operations attempted, operations failed, failure messages).

`final_check(wb)` runs once per benchmark run, untimed, on the
fixture files and returns the same triple.

The checks use exact arithmetic of their own (Griesmer sums, window
endpoints, a MacWilliams transform) rather than the package's, so a wrong
result in the package cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import perf_counter_ns
from types import SimpleNamespace

FORMATS = ("text", "md", "csv", "json")


def _attempt(op, *args):
    """Run one operation.  What it raises becomes its result, so that the
    check counts it as failed and the benchmark goes on."""
    try:
        return op(*args)
    except Exception as exc:  # every failure inside the package is counted
        return exc


def _tally(found_per_op) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) from one list of messages per operation."""
    found_per_op = list(found_per_op)
    failed = sum(1 for found in found_per_op if found)
    return len(found_per_op), failed, [m for found in found_per_op for m in found]


def _run_cli(wb, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = wb.cli.main(argv)
    return rc, buf.getvalue()


def _griesmer_min_n(k: int, d: int, q: int) -> int:
    return sum(-(-d // q**i) for i in range(k))


def _max_window_weight(d: int, q: int) -> int:
    """Largest w with w*(q-1) < q*d."""
    return (q * d - 1) // (q - 1)


# --- spectrum -------------------------------------------------------------

# (q, n, k): at least one shape per field class; each takes 0.2-0.6 s.
SPECTRUM_SHAPES = (
    (2, 48, 21),  # GF(2): Gray-code walk
    (3, 16, 10),  # odd prime
    (5, 16, 7),
    (4, 30, 8),  # GF(2^m)
    (256, 24, 2),  # GF(2^m), Reed-Solomon-like
    (9, 20, 4),  # GF(p^m), odd p
    (25, 12, 3),
)


def spectrum_setup(wb, rng):
    codes = []
    for q, n, k in SPECTRUM_SHAPES:
        field = wb.gf.make_field(q)
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            code = wb.codes.code_from_matrix(field, rows, auto_reduce=True)
            if code.k == k:
                break
        codes.append(code)
    return codes


def _spectrum_op(wb, code):
    return wb.codes.spectrum(code), wb.exclusion.audit_against_spectrum(code)


def spectrum_run(wb, codes):
    return [_attempt(_spectrum_op, wb, code) for code in codes]


def _spectrum_problems(code, result) -> list[str]:
    q, n, k = code.q, code.n, code.k
    label = f"[{n},{k}]_{q}"
    if isinstance(result, Exception):
        return [f"{label}: raised {result!r}"]
    spec, violations = result
    counts = spec.counts
    problems = [f"{label}: audit {v}" for v in violations]
    if len(counts) != n + 1:
        problems.append(f"{label}: {len(counts)} weight classes, expected {n + 1}")
    if sum(counts) != q**k:
        problems.append(f"{label}: sum of A_w is {sum(counts)}, expected {q**k}")
    if counts[0] != 1:
        problems.append(f"{label}: A_0 = {counts[0]}")
    bad = [w for w in range(1, len(counts)) if counts[w] % (q - 1)]
    if bad:
        problems.append(f"{label}: q-1 does not divide A_w at w = {bad}")
    return problems


def spectrum_check(wb, codes, out):
    return _tally(_spectrum_problems(code, result) for code, result in zip(codes, out))


def _hamming_13_10_3_spectrum() -> dict[int, int]:
    """MacWilliams transform of the dual [13,3] simplex code (26 words of weight 9)."""
    n, q, dual_size = 13, 3, 27

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def power(base, e):
        out = [1]
        for _ in range(e):
            out = poly_mul(out, base)
        return out

    # W(z) = (1/|C^perp|) * sum_w B_w (1 + (q-1) z)^(n-w) (1 - z)^w
    total = [0] * (n + 1)
    for w, b in ((0, 1), (9, 26)):
        term = poly_mul(power([1, q - 1], n - w), power([1, -1], w))
        for i, c in enumerate(term):
            total[i] += b * c
    if any(c % dual_size for c in total):
        raise ArithmeticError("MacWilliams transform is not integral")
    return {w: c // dual_size for w, c in enumerate(total) if c}


def spectrum_final_check(wb):
    known = {
        "example_11_3_6": {0: 1, 6: 6, 8: 1},
        "rm_1_4": {0: 1, 8: 30, 16: 1},
        "hamming_13_10_3_ternary": _hamming_13_10_3_spectrum(),
        "cyclic_15_10_4_binary": wb.corpus.EXTERNAL_SPECTRA["cyclic_15_10_4_binary"],
    }

    def problems(name, expected):
        path = wb.root / "fixtures" / f"{name}.gen"
        got = _attempt(lambda: wb.codes.spectrum(wb.codes.read_generator_file(path)))
        if isinstance(got, Exception):
            return [f"fixture {name}: raised {got!r}"]
        got = got.nonzero()
        return [] if got == expected else [f"fixture {name}: spectrum {got} != {expected}"]

    return _tally(problems(name, expected) for name, expected in known.items())


# --- selftest ---------------------------------------------------------------

SELFTEST_TRIALS = 1000
SELFTEST_SUITES = 4


def selftest_setup(wb, rng):
    for q in (2, 3, 4):
        wb.gf.make_field(q)
    return rng.randrange(1 << 63)


def selftest_run(wb, seed):
    return _attempt(wb.selfcheck.run_selftest, SELFTEST_TRIALS, seed)


def selftest_check(wb, seed, results):
    """One operation per suite."""
    if isinstance(results, Exception):
        return SELFTEST_SUITES, SELFTEST_SUITES, [f"seed {seed}: raised {results!r}"]
    found = [
        [f"seed {seed}: suite {r.name} checked {r.checked}, "
         f"{len(r.violations)} violation(s) {list(r.violations[:3])}"]
        if not r.ok or r.checked <= 0 else []
        for r in results
    ]
    if len(results) != SELFTEST_SUITES:
        found.append([f"seed {seed}: {len(results)} suites, expected {SELFTEST_SUITES}"])
    return _tally(found)


# --- sweep ------------------------------------------------------------------

SWEEP_TUPLES = 6000
SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 256)
SWEEP_CLI_SHARE = 0.02


def sweep_setup(wb, rng):
    """Valid (n, k, d, q) tuples, three weights each, and the CLI slice."""
    tuples = []
    while len(tuples) < SWEEP_TUPLES:
        q = rng.choice(SWEEP_QS)
        k = rng.randint(2, 12)
        n = rng.randint(max(6, k), 300)
        d = rng.randint(1, n - k + 1)
        if _griesmer_min_n(k, d, q) > n:
            continue
        weights = (d, _max_window_weight(d, q), rng.randint(1, n))
        argv = None
        if rng.random() < SWEEP_CLI_SHARE:
            command = rng.choice(("exclude", "bounds"))
            argv = [command, "--n", str(n), "--k", str(k), "--d", str(d),
                    "--q", str(q), "--format", rng.choice(FORMATS)]
            if command == "bounds":
                argv += ["--w", str(weights[2])]
        tuples.append(((n, k, d, q), weights, argv))
    return tuples


def _sweep_op(wb, n, k, d, q, weights, argv):
    params = wb.codes.CodeParams(n=n, k=k, d=d, q=q)
    clamped = wb.exclusion.compare_methods(params, clamp=True)
    raw = wb.exclusion.compare_methods(params, clamp=False)
    verdicts = [wb.bounds.parameter_verdicts(n, k, d, q, w) for w in weights]
    cli = _run_cli(wb, argv) if argv else None
    return clamped, raw, verdicts, cli


def sweep_run(wb, tuples):
    results, tuple_spans = [], []
    for params, weights, argv in tuples:
        t0 = perf_counter_ns()
        results.append(_attempt(_sweep_op, wb, *params, weights, argv))
        tuple_spans.append((t0, perf_counter_ns()))
    tables = {
        (which, fmt): _attempt(
            _run_cli, wb, ["tables", "--which", str(which), "--format", fmt]
        )
        for which in (1, 2, 3)
        for fmt in FORMATS
    }
    return SimpleNamespace(results=results, tables=tables, tuple_spans=tuple_spans)


def _tuple_problems(params, weights, argv, result) -> list[str]:
    n, k, d, q = params
    label = f"[{n},{k},{d}]_{q}"
    if isinstance(result, Exception):
        return [f"{label}: raised {result!r}"]
    clamped, raw, verdicts, cli = result
    hi = _max_window_weight(d, q)
    problems = []
    for method in ("chen_xie", "singleton", "griesmer", "union"):
        c, r = getattr(clamped, method), getattr(raw, method)
        if any(not 1 <= w <= n for w in c):
            problems.append(f"{label}: clamped {method} leaves [1, n]")
        if not c <= r:
            problems.append(f"{label}: clamped {method} not within raw")
    for report in (clamped, raw):
        if any(not d <= w <= hi for w in report.griesmer):
            problems.append(f"{label}: griesmer set leaves [d, {hi}]")
    for w, vs in zip(weights, verdicts):
        held = {v.name: v.holds for v in vs}
        if not (held.get("singleton") and held.get("griesmer")):
            problems.append(f"{label} w={w}: singleton/griesmer verdicts {held}")
    if cli is not None:
        rc, text = cli
        if argv[0] == "bounds":
            expected = 0 if all(v.holds for v in verdicts[2]) else 1
            if rc != expected:
                problems.append(f"{label}: cli bounds exit {rc}, library says {expected}")
        elif rc != 0:
            problems.append(f"{label}: cli exclude exit {rc}")
        elif argv[-1] == "json" and json.loads(text)["union"] != sorted(
            clamped.union, reverse=True
        ):
            problems.append(f"{label}: cli exclude json union differs from library")
        if not text:
            problems.append(f"{label}: cli {argv[0]} printed nothing")
    return problems


def _table_problems(which, fmt, result, golden) -> list[str]:
    label = f"tables --which {which} --format {fmt}"
    if isinstance(result, Exception):
        return [f"{label}: raised {result!r}"]
    rc, text = result
    expected_rc = 0 if golden.rstrip().endswith("mismatch=0") else 1
    problems = []
    if rc != expected_rc or not text:
        problems.append(f"{label}: exit {rc}, expected {expected_rc}")
    if fmt == "text" and text != golden:
        problems.append(f"{label}: differs from tests/golden/table{which}.txt")
    return problems


def sweep_check(wb, tuples, out):
    """One operation per tuple (with its CLI call, if any) and per table render."""
    golden = {
        which: (wb.root / "tests" / "golden" / f"table{which}.txt").read_text(
            encoding="utf-8"
        )
        for which in (1, 2, 3)
    }
    found = [
        _tuple_problems(params, weights, argv, result)
        for (params, weights, argv), result in zip(tuples, out.results)
    ]
    found += [
        _table_problems(which, fmt, result, golden[which])
        for (which, fmt), result in out.tables.items()
    ]
    return _tally(found)


# `items` is the work of one pass, reported per second under `items_name`.
WORKLOADS = {
    "spectrum": SimpleNamespace(
        setup=spectrum_setup, run=spectrum_run, check=spectrum_check,
        final_check=spectrum_final_check, items_name="codewords_per_s",
        items=sum(q**k for q, _, k in SPECTRUM_SHAPES),
    ),
    "selftest": SimpleNamespace(
        setup=selftest_setup, run=selftest_run, check=selftest_check,
        final_check=None, items_name="codes_per_s", items=SELFTEST_TRIALS,
    ),
    "sweep": SimpleNamespace(
        setup=sweep_setup, run=sweep_run, check=sweep_check, final_check=None,
        items_name="tuples_per_s", items=SWEEP_TUPLES,
    ),
}
