"""Reproduction harness for the embedded comparison tables.

A row's printed cells are zipped, in order, with the criteria of
`exclusion.CRITERIA`; each cell keeps only what was printed and what
was computed, raw and clamped to n.  Verdicts and flags are derived from
those on access, under a tri-state rule: `exact` (equals the raw formula
set), `exact-after-clamp` (equals the set cut at n, and clamping
mattered), or `mismatch`.  The printed "(N weights)" annotations are also
checked against the printed sets themselves; a handful of published
annotations are internally inconsistent, and those are flagged rather
than silently reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import TableRow, format_weights, table_rows
from .exclusion import CRITERIA, chen_xie_excluded, griesmer_excluded, singleton_excluded

EXACT = "exact"
CLAMPED = "exact-after-clamp"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class CellComparison:
    """One table cell versus the computed exclusion set."""

    method: str
    printed: frozenset[int]
    computed_raw: frozenset[int]
    computed_clamped: frozenset[int]
    printed_count: int

    @property
    def verdict(self) -> str:
        if self.printed == self.computed_raw:
            return EXACT
        if self.printed == self.computed_clamped:
            return CLAMPED
        return MISMATCH

    @property
    def count_consistent(self) -> bool:
        """The printed annotation equals the size of the printed set."""
        return self.printed_count == len(self.printed)


@dataclass(frozen=True)
class RowComparison:
    row: TableRow
    cells: tuple[CellComparison, ...]

    @property
    def verdict(self) -> str:
        """The worst cell verdict: mismatch, then exact-after-clamp, then exact."""
        verdicts = {c.verdict for c in self.cells}
        return next((v for v in (MISMATCH, CLAMPED) if v in verdicts), EXACT)

    @property
    def flags(self) -> tuple[str, ...]:
        """One line per clamped or mismatched cell and per wrong annotation."""
        p = self.row.params
        flags = []
        for c in self.cells:
            if c.verdict == CLAMPED:
                flags.append(
                    f"{p} {c.method}: printed cell matches only after clamping "
                    f"to n={p.n} (raw: {format_weights(c.computed_raw)})"
                )
            elif c.verdict == MISMATCH:
                flags.append(
                    f"{p} {c.method}: printed {format_weights(c.printed)} "
                    f"matches neither raw {format_weights(c.computed_raw)} nor "
                    f"clamped {format_weights(c.computed_clamped)}"
                )
            if not c.count_consistent:
                flags.append(
                    f"{p} {c.method}: printed count annotation "
                    f"({c.printed_count} weights) disagrees with the printed set "
                    f"itself ({len(c.printed)} weights)"
                )
        return tuple(flags)


def compare_row(row: TableRow) -> RowComparison:
    """Tri-state comparison of one table row, cell by cell in criterion order."""
    # Read from the module globals on each call, so wrappers put on them are seen.
    functions = (chen_xie_excluded, singleton_excluded, griesmer_excluded)
    cells = []
    for method, excluded, printed, count in zip(
        CRITERIA, functions, row.printed, row.printed_counts
    ):
        # Each criterion is evaluated once; its clamped set is the raw set cut at n.
        raw = excluded(row.params, clamp=False)
        clamped = frozenset(w for w in raw if w <= row.params.n)
        cells.append(CellComparison(method, printed, raw, clamped, count))
    return RowComparison(row, tuple(cells))


def compare_table(which: int) -> list[RowComparison]:
    """Compare every row of table 1, 2 or 3."""
    return [compare_row(row) for row in table_rows(which)]
