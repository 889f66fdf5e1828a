"""Acceptance suite: one test per criterion, every tolerance exact-integer.

Each test prints a single pass line (visible with pytest -s); a failed
assertion suppresses the line and fails the run.
"""

from conftest import fixture_code, ratio_rows

from weightbounds.bounds import (
    global_weight_max,
    griesmer_min_n,
    residual_griesmer_min_n,
    residual_singleton_max_d,
)
from weightbounds.codes import CodeParams, LinearCode, min_distance, spectrum
from weightbounds.exclusion import (
    chen_xie_excluded,
    griesmer_excluded,
    singleton_excluded,
)
from weightbounds.gf import make_field
from weightbounds.selfcheck import (
    check_distance_ratio,
    check_exclusion_soundness,
    check_global_weight,
    check_residual_lemma,
)
from weightbounds.tables import CLAMPED, EXACT, MISMATCH, compare_table, table_rows


def _ok(num: int, label: str) -> None:
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_bound_equalities():
    assert residual_singleton_max_d(13, 10, 3, 4) == 3
    assert residual_singleton_max_d(27, 8, 3, 20) == 14
    assert residual_singleton_max_d(15, 10, 2, 6) == 4
    assert residual_griesmer_min_n(5, 7, 2, 7) == 15
    assert residual_griesmer_min_n(5, 16, 2, 16) == 31
    assert global_weight_max(16, 8, 2) == 16
    rm = fixture_code("rm_1_4")
    assert spectrum(rm).counts[16] == 1  # the cap is attained
    _ok(1, "bound equalities")


def test_criterion_2_explicit_11_3_6_pipeline():
    code = fixture_code("example_11_3_6")
    spec = spectrum(code)
    assert spec.nonzero() == {0: 1, 6: 6, 8: 1}
    params = CodeParams(11, 3, 6, 2)
    assert chen_xie_excluded(params) == {10, 11}
    assert singleton_excluded(params) == {9, 10, 11}
    assert griesmer_excluded(params) == {7, 9, 10, 11}
    survivors = set(range(6, 12)) - griesmer_excluded(params) - singleton_excluded(
        params
    ) - chen_xie_excluded(params)
    actual = {w for w in spec.nonzero() if w > 0}
    assert survivors == actual == {6, 8}
    _ok(2, "[11,3,6]_2 pipeline")


def test_criterion_3_table_reproduction():
    # Tables 1 and 2: every printed cell matches under the tri-state rule;
    # at most the documented [90,5,46] row may fail to match outright.
    for which in (1, 2):
        comps = compare_table(which)
        mismatched = {
            (c.row.params.n, c.row.params.k, c.row.params.d)
            for c in comps
            if c.verdict == MISMATCH
        }
        assert mismatched <= {(90, 5, 46)}
        assert all(c.verdict in (EXACT, CLAMPED, MISMATCH) for c in comps)
    # The [90,5,46] row is flagged: alone in this table its singleton cell
    # is printed clamped while its siblings print raw values above n.
    anomaly = next(
        c for c in compare_table(1) if (c.row.params.n, c.row.params.d) == (90, 46)
    )
    assert anomaly.flags
    assert any("singleton" in flag for flag in anomaly.flags)

    # Table 3: computed Griesmer sets equal the printed sets exactly; the
    # printed "(N weights)" annotations are (32, 33, 71, 34, 79, 83, 143)
    # as published, and the three annotations that contradict their own
    # printed sets are flagged rather than reconciled.
    comps = compare_table(3)
    assert [row.printed_counts[2] for row in table_rows(3)] == [
        32, 33, 71, 34, 79, 83, 143,
    ]
    for comp in comps:
        cell = next(c for c in comp.cells if c.method == "griesmer")
        assert cell.printed == cell.computed_raw
    sizes = [
        len(next(c for c in comp.cells if c.method == "griesmer").printed)
        for comp in comps
    ]
    assert sizes == [32, 33, 71, 34, 74, 75, 114]
    flagged = [
        comp.row.source
        for comp in comps
        for c in comp.cells
        if not c.count_consistent
    ]
    assert flagged == ["table3:04", "table3:05", "table3:06"]
    _ok(3, "tables 1-3 reproduction")


def test_criterion_4_residual_lemma_suite(corpus1000):
    result = check_residual_lemma(corpus1000)
    assert result.checked > 0
    assert result.violations == ()
    _ok(4, f"residual lemma over {result.checked} window codewords")


def test_criterion_5_soundness_suite(corpus1000):
    soundness = check_exclusion_soundness(corpus1000)
    weight_cap = check_global_weight(corpus1000)
    ratio = check_distance_ratio(corpus1000)
    assert soundness.checked == weight_cap.checked == ratio.checked == 1000
    assert soundness.violations == ()
    assert weight_cap.violations == ()
    assert ratio.violations == ()
    _ok(5, "criterion soundness, weight cap and ratio over 1000 codes")


def test_criterion_6_arithmetic_identities():
    for q in (2, 3, 4):
        for d in range(1, 41):
            for k in range(2, 9):
                assert residual_griesmer_min_n(k, d, q, d) == griesmer_min_n(k, d, q)
    # Set containment on every grid tuple that a code could actually have.
    for q in (2, 3, 4):
        for d in range(1, 41):
            for k in range(2, 9):
                for n in range(k, 61):
                    if d > n - k + 1 or (q - 1) * (n - k + 2) >= q * d:
                        continue
                    params = CodeParams(n, k, d, q)
                    assert chen_xie_excluded(params) <= singleton_excluded(params)
    _ok(6, "w=d telescoping and endpoint dominance grids")


def test_criterion_7_ratio_code_tightness():
    for q in (2, 3, 4, 5):
        code = LinearCode(make_field(q), ratio_rows(q))
        d = min_distance(code)
        assert (code.n, code.k, d) == (q + 1, 2, q)
        assert sum(spectrum(code).counts) == q**2
        assert (q + 1) * d == q * code.n
    _ok(7, "ratio-code tightness for q in {2,3,4,5}")
