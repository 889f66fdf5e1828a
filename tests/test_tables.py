import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightbounds import tables
from weightbounds.codes import CodeParams
from weightbounds.errors import ParamRangeError
from weightbounds.tables import (
    CLAMPED, EXACT, MISMATCH, CellComparison, RowComparison, TableRow, compare_table,
    format_weights, parse_weights, table_rows,
)


# Sets in [1, 400] drawn as unions of runs, so that long, adjacent and
# overlapping runs are common rather than rare.
weight_sets = st.lists(st.tuples(st.integers(1, 400), st.integers(0, 30))).map(
    lambda runs: frozenset(w for a, span in runs for w in range(a, min(a + span, 400) + 1))
)


@given(weight_sets)
def test_printed_cells_read_back_as_formatted(weights):
    ranged = format_weights(weights, ranges=True)
    assert parse_weights(format_weights(weights)) == weights
    assert parse_weights(ranged) == weights
    # One part per maximal run of consecutive weights ("-" for no weights).
    runs = sum(w + 1 not in weights for w in weights)
    assert len(ranged.split(",")) == max(runs, 1)


def test_verdicts_and_flags_are_derived_from_the_cells():
    def cell(method, printed, raw, clamped, count):
        return CellComparison(method, frozenset(printed), frozenset(raw),
                              frozenset(clamped), count)

    row = TableRow(CodeParams(10, 3, 6, 2), printed=(), printed_counts=(), source="t")
    exact = cell("chen-xie", {9, 10}, {9, 10}, {9, 10}, 2)
    clamped = cell("singleton", {9, 10}, {9, 10, 11}, {9, 10}, 2)
    mismatch = cell("griesmer", {7}, {8}, {8}, 1)
    miscounted = cell("griesmer", {7, 8}, {7, 8}, {7, 8}, 3)
    assert [c.verdict for c in (exact, clamped, mismatch, miscounted)] == [
        EXACT, CLAMPED, MISMATCH, EXACT]
    assert [c.count_consistent for c in (exact, clamped, mismatch, miscounted)] == [
        True, True, True, False]

    assert RowComparison(row, (exact,)).verdict == EXACT
    assert RowComparison(row, (exact,)).flags == ()
    assert RowComparison(row, (exact, clamped)).verdict == CLAMPED
    assert RowComparison(row, (clamped, mismatch)).verdict == MISMATCH
    assert RowComparison(row, (clamped, mismatch, miscounted)).flags == (
        "[10,3,6]_2 singleton: printed cell matches only after clamping to n=10 "
        "(raw: 11, 10, 9)",
        "[10,3,6]_2 griesmer: printed 7 matches neither raw 8 nor clamped 8",
        "[10,3,6]_2 griesmer: printed count annotation (3 weights) disagrees "
        "with the printed set itself (2 weights)",
    )


def test_table1_all_rows_match_under_tri_state():
    comps = compare_table(1)
    assert len(comps) == 35
    assert all(c.verdict in (EXACT, CLAMPED) for c in comps)
    assert sum(1 for c in comps if c.verdict == MISMATCH) == 0


def test_table1_clamp_pattern():
    comps = compare_table(1)
    clamped_cells = {
        (comp.row.source, cell.method)
        for comp in comps
        for cell in comp.cells
        if cell.verdict == CLAMPED
    }
    # Five chen-xie cells are printed clamped; only [90,5,46] also prints
    # its singleton cell clamped (its convention-siblings print raw values
    # above n), which is the documented anomaly of this table.
    assert clamped_cells == {
        ("table1:21", "chen-xie"),  # [78,5,40]
        ("table1:26", "chen-xie"),  # [86,5,44]
        ("table1:30", "chen-xie"),  # [90,5,46]
        ("table1:30", "singleton"),
        ("table1:32", "chen-xie"),  # [92,5,47]
        ("table1:34", "chen-xie"),  # [93,5,48]
    }
    anomaly = next(c for c in comps if c.row.source == "table1:30")
    assert (anomaly.row.params.n, anomaly.row.params.d) == (90, 46)
    assert any("after clamping" in flag for flag in anomaly.flags)


def test_table1_counts_consistent():
    for comp in compare_table(1):
        for cell in comp.cells:
            assert cell.count_consistent


def test_table2_all_exact():
    comps = compare_table(2)
    assert len(comps) == 24
    assert all(c.verdict == EXACT for c in comps)
    assert all(cell.count_consistent for c in comps for cell in c.cells)
    # Three singleton cells legitimately list weights above n (raw values).
    over_n = [
        comp.row.source
        for comp in comps
        if max(comp.row.printed[1]) > comp.row.params.n
    ]
    assert over_n == ["table2:09", "table2:15", "table2:21"]


def test_table3_sets_exact_and_annotations_flagged():
    comps = compare_table(3)
    assert len(comps) == 7
    assert all(c.verdict == EXACT for c in comps)
    for comp in comps:
        gr = next(cell for cell in comp.cells if cell.method == "griesmer")
        assert gr.printed == gr.computed_raw
    inconsistent = [
        comp.row.source
        for comp in comps
        for cell in comp.cells
        if not cell.count_consistent
    ]
    # The published count annotations of the last three rows disagree with
    # their own printed sets; the sets themselves are exact.
    assert inconsistent == ["table3:04", "table3:05", "table3:06"]
    flags = [flag for comp in comps for flag in comp.flags]
    assert len(flags) == 3
    assert all("count annotation" in flag for flag in flags)


def test_each_griesmer_pass_evaluates_f_once(monkeypatch):
    from weightbounds import exclusion

    calls = []
    original = exclusion.residual_griesmer_min_n

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exclusion, "residual_griesmer_min_n", counted)
    rows = [comp.row.params for comp in compare_table(3)]
    # A raw and a clamped Griesmer pass per row, each of which evaluates f
    # once, at w = d, and steps to the rest of its window.
    assert calls == [(p.k, p.d, p.q, p.d) for p in rows for _ in range(2)]


def test_table_row_counts():
    assert len(table_rows(1)) == 35
    assert len(table_rows(2)) == 24
    assert len(table_rows(3)) == 7
    with pytest.raises(ParamRangeError):
        table_rows(4)


@pytest.mark.parametrize("which", [True, False, 1.0, 0, 4, "1"])
def test_table_rows_takes_only_the_ints_1_2_and_3(which):
    # True equals 1 and 1.0 hashes like it: neither may stand for table 1.
    with pytest.raises(ParamRangeError, match=f"table index must be 1, 2 or 3, got {which}$"):
        table_rows(which)


def test_rows_are_parsed_once_and_returned_in_a_fresh_list(monkeypatch):
    # Every printed cell is parsed on the first call for its table and never
    # again, however often the tables are compared; each call still gets a
    # list of its own, so a caller that clears it leaves the next call alone.
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_weights(text)

    monkeypatch.setattr(tables, "parse_weights", counted)
    tables._parsed_rows.cache_clear()
    try:
        for _ in range(3):
            for which in (1, 2, 3):
                compare_table(which)
                first = table_rows(which)
                assert first is not table_rows(which)
                first.clear()
        assert len(parsed) == 2 * 35 + 2 * 24 + 3 * 7
        assert [len(table_rows(which)) for which in (1, 2, 3)] == [35, 24, 7]
    finally:
        tables._parsed_rows.cache_clear()


def test_table1_first_row():
    row = table_rows(1)[0]
    assert (row.params.n, row.params.k, row.params.d, row.params.q) == (15, 5, 7, 2)
    assert row.printed[0] == {12, 13}
    assert row.printed[1] == {11, 12, 13}
    assert len(row.printed) == 2
    assert row.printed_counts == (2, 3)


def test_table2_first_row():
    row = table_rows(2)[0]
    assert (row.params.n, row.params.k, row.params.d, row.params.q) == (27, 4, 18, 3)
    assert row.printed[1] == set(range(22, 27))


def test_table3_counts_as_printed():
    rows = table_rows(3)
    assert [row.printed_counts[2] for row in rows] == [32, 33, 71, 34, 79, 83, 143]
    assert len(rows[0].printed[2]) == 32
    # Three published annotations disagree with their own printed sets.
    actual_sizes = [len(row.printed[2]) for row in rows]
    assert actual_sizes == [32, 33, 71, 34, 74, 75, 114]


def test_parse_and_format_weights():
    assert parse_weights("13, 12") == {12, 13}
    assert parse_weights("145-147, 159") == {145, 146, 147, 159}
    assert parse_weights("-") == frozenset()
    assert parse_weights("13") == {13}
    assert parse_weights("12-13") == parse_weights("13-12") == {12, 13}
    for text in ("5-", "5-6-7"):
        with pytest.raises(ValueError):
            parse_weights(text)
    assert format_weights({12, 13}) == "13, 12"
    assert format_weights(set()) == "-"
    assert format_weights({145, 146, 147, 159}, ranges=True) == "159, 145-147"
