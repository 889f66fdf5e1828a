"""The paper's comparison tables: embedded rows, cell format, reproduction.

Rows keep the printed cells verbatim; `parse_weights` reads a cell and
`format_weights` writes one.  A row's printed cells are zipped, in order,
with the criteria of `exclusion.CRITERIA`; each cell keeps only what was
printed and what was computed, raw and clamped to n.  Verdicts and flags
are derived from those on access, under a tri-state rule: `exact` (equals
the raw formula set), `exact-after-clamp` (equals the set cut at n, and
clamping mattered), or `mismatch`.  The printed "(N weights)" annotations
are also checked against the printed sets themselves; a handful of
published annotations are internally inconsistent, and those are flagged
rather than silently reconciled.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import CodeParams
from .errors import ParamRangeError
from .exclusion import CRITERIA, chen_xie_excluded, griesmer_excluded, singleton_excluded

EXACT = "exact"
CLAMPED = "exact-after-clamp"
MISMATCH = "mismatch"


class TableRow(NamedTuple):
    """One comparison-table row: parameters plus the printed excluded sets.

    `printed` holds the printed cells and `printed_counts` their
    "(N weights)" annotations, both in cell order (chen-xie, singleton[,
    griesmer]).  A few annotations disagree with their own printed sets
    and are preserved as printed so the reproduction harness can flag
    them.
    """

    params: CodeParams
    printed: tuple[frozenset[int], ...]
    printed_counts: tuple[int, ...]
    source: str


def parse_weights(text: str) -> frozenset[int]:
    """Parse a printed weight cell: comma-separated values and a-b ranges."""
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part or part == "-":
            continue
        a, *b = part.split("-")  # a single weight a is the run a-a
        lo, hi = sorted(map(int, (a, *(b or [a]))))
        out.update(range(lo, hi + 1))
    return frozenset(out)


def format_weights(weights, ranges: bool = False) -> str:
    """Render a weight set descending; collapse runs to a-b when asked."""
    ws = sorted(weights, reverse=True)
    if not ws:
        return "-"
    if not ranges:
        return ", ".join(str(w) for w in ws)
    runs = []
    start = prev = ws[0]
    for w in ws[1:]:
        if w == prev - 1:
            prev = w
            continue
        runs.append((start, prev))
        start = prev = w
    runs.append((start, prev))
    return ", ".join(f"{b}-{a}" if a != b else f"{a}" for a, b in runs)


# (n, k, d, chen-xie cell, count, singleton cell, count); binary codes.
_TABLE1 = (
    (15, 5, 7, "13, 12", 2, "13, 12, 11", 3),
    (21, 9, 8, "15, 14", 2, "15, 14, 13", 3),
    (31, 5, 16, "31, 30, 29, 28", 4, "31, 30, 29, 28, 27, 26, 25", 7),
    (32, 6, 16, "31, 30, 29, 28", 4, "31, 30, 29, 28, 27, 26, 25", 7),
    (47, 5, 24, "47, 46, 45, 44", 4, "47, 46, 45, 44, 43, 42, 41", 7),
    (48, 6, 24, "47, 46, 45, 44", 4, "47, 46, 45, 44, 43, 42, 41", 7),
    (55, 5, 28, "55, 54, 53, 52", 4, "55, 54, 53, 52, 51, 50, 49", 7),
    (56, 6, 28, "55, 54, 53, 52", 4, "55, 54, 53, 52, 51, 50, 49", 7),
    (59, 5, 30, "59, 58, 57, 56", 4, "59, 58, 57, 56, 55, 54, 53", 7),
    (60, 6, 30, "59, 58, 57, 56", 4, "59, 58, 57, 56, 55, 54, 53", 7),
    (61, 5, 31, "61, 60, 59, 58", 4, "61, 60, 59, 58, 57, 56, 55", 7),
    (62, 6, 31, "61, 60, 59, 58", 4, "61, 60, 59, 58, 57, 56, 55", 7),
    (63, 5, 32, "63, 62, 61, 60", 4, "63, 62, 61, 60, 59, 58, 57", 7),
    (63, 6, 32, "63, 62, 61, 60, 59", 5, "63, 62, 61, 60, 59, 58, 57, 56, 55", 9),
    (63, 7, 31, "61, 60, 59, 58", 4, "61, 60, 59, 58, 57, 56, 55", 7),
    (64, 6, 32, "63, 62, 61, 60", 4, "63, 62, 61, 60, 59, 58, 57", 7),
    (64, 7, 32, "63, 62, 61, 60, 59", 5, "63, 62, 61, 60, 59, 58, 57, 56, 55", 9),
    (65, 7, 32, "63, 62, 61, 60", 4, "63, 62, 61, 60, 59, 58, 57", 7),
    (71, 5, 36, "71, 70, 69, 68", 4, "71, 70, 69, 68, 67, 66, 65", 7),
    (75, 5, 38, "75, 74, 73, 72", 4, "75, 74, 73, 72, 71, 70, 69", 7),
    (77, 5, 39, "77, 76, 75, 74", 4, "77, 76, 75, 74, 73, 72, 71", 7),
    (78, 5, 40, "78, 77, 76, 75", 4, "79, 78, 77, 76, 75, 74, 73, 72, 71", 9),
    (79, 5, 40, "79, 78, 77, 76", 4, "79, 78, 77, 76, 75, 74, 73", 7),
    (80, 6, 40, "79, 78, 77, 76", 4, "79, 78, 77, 76, 75, 74, 73", 7),
    (83, 5, 42, "83, 82, 81, 80", 4, "83, 82, 81, 80, 79, 78, 77", 7),
    (85, 5, 43, "85, 84, 83, 82", 4, "85, 84, 83, 82, 81, 80, 79", 7),
    (86, 5, 44, "86, 85, 84, 83", 4, "87, 86, 85, 84, 83, 82, 81, 80, 79", 9),
    (87, 5, 44, "87, 86, 85, 84", 4, "87, 86, 85, 84, 83, 82, 81", 7),
    (88, 6, 44, "87, 86, 85, 84", 4, "87, 86, 85, 84, 83, 82, 81", 7),
    (89, 5, 45, "89, 88, 87, 86", 4, "89, 88, 87, 86, 85, 84, 83", 7),
    (90, 5, 46, "90, 89, 88, 87", 4, "90, 89, 88, 87, 86, 85, 84, 83", 8),
    (91, 5, 46, "91, 90, 89, 88", 4, "91, 90, 89, 88, 87, 86, 85", 7),
    (92, 5, 47, "92, 91, 90, 89", 4, "93, 92, 91, 90, 89, 88, 87, 86, 85", 9),
    (92, 6, 46, "91, 90, 89, 88", 4, "91, 90, 89, 88, 87, 86, 85", 7),
    (93, 5, 48, "93, 92, 91, 90", 4, "95, 94, 93, 92, 91, 90, 89, 88, 87, 86, 85", 11),
)

# Same layout, ternary codes.
_TABLE2 = (
    (27, 4, 18, "26, 25", 2, "26, 25, 24, 23, 22", 5),
    (36, 4, 24, "35, 34", 2, "35, 34, 33, 32, 31", 5),
    (80, 4, 54, "80, 79, 78", 3, "80, 79, 78, 77, 76, 75, 74, 73", 8),
    (81, 5, 54, "80, 79, 78", 3, "80, 79, 78, 77, 76, 75, 74, 73", 8),
    (107, 4, 72, "107, 106, 105", 3, "107, 106, 105, 104, 103, 102, 101, 100", 8),
    (108, 5, 72, "107, 106, 105", 3, "107, 106, 105, 104, 103, 102, 101, 100", 8),
    (116, 4, 78, "116, 115, 114", 3, "116, 115, 114, 113, 112, 111, 110, 109", 8),
    (117, 5, 78, "116, 115, 114", 3, "116, 115, 114, 113, 112, 111, 110, 109", 8),
    (119, 4, 80, "119, 118, 117", 3, "119, 118, 117, 116, 115, 114, 113, 112", 8),
    (120, 4, 81, "120, 119, 118", 3,
     "121, 120, 119, 118, 117, 116, 115, 114, 113, 112", 10),
    (120, 5, 80, "119, 118, 117", 3, "119, 118, 117, 116, 115, 114, 113, 112", 8),
    (121, 5, 81, "120, 119, 118", 3,
     "121, 120, 119, 118, 117, 116, 115, 114, 113, 112", 10),
    (134, 4, 90, "134, 133, 132", 3, "134, 133, 132, 131, 130, 129, 128, 127", 8),
    (143, 4, 96, "143, 142, 141", 3, "143, 142, 141, 140, 139, 138, 137, 136", 8),
    (146, 4, 98, "146, 145, 144", 3, "146, 145, 144, 143, 142, 141, 140, 139", 8),
    (147, 4, 99, "147, 146, 145", 3,
     "148, 147, 146, 145, 144, 143, 142, 141, 140, 139", 10),
    (152, 4, 102, "152, 151, 150", 3, "152, 151, 150, 149, 148, 147, 146, 145", 8),
    (155, 4, 104, "155, 154, 153", 3, "155, 154, 153, 152, 151, 150, 149, 148", 8),
    (162, 5, 108, "161, 160, 159", 3, "161, 160, 159, 158, 157, 156, 155, 154", 8),
    (189, 5, 126, "188, 187, 186", 3, "188, 187, 186, 185, 184, 183, 182, 181", 8),
    (198, 5, 132, "197, 196, 195", 3, "197, 196, 195, 194, 193, 192, 191, 190", 8),
    (201, 4, 135, "201, 200, 199", 3,
     "202, 201, 200, 199, 198, 197, 196, 195, 194, 193", 10),
    (201, 5, 134, "200, 199, 198", 3, "200, 199, 198, 197, 196, 195, 194, 193", 8),
    (202, 5, 135, "201, 200, 199", 3,
     "202, 201, 200, 199, 198, 197, 196, 195, 194, 193", 10),
)

# (n, k, d, chen-xie, count, singleton, count, griesmer, count); binary.
_TABLE3 = (
    (267, 8, 132, "261-263", 3, "259-263", 5,
     "133-135, 167, 183, 191, 195, 197-199, 215, 223, 227, 229-231, 239, 243, "
     "245-247, 251, 253-255, 257-263", 32),
    (271, 8, 134, "265-267", 3, "263-267", 5,
     "135, 137-139, 171, 187, 195, 199, 201-203, 219, 227, 231, 233-235, 243, "
     "247, 249-251, 255, 257-259, 261-267", 33),
    (274, 8, 136, "268-271", 4, "265-271", 7,
     "137-143, 159, 167, 171, 173-175, 183, 187, 189-191, 195, 197-199, "
     "201-207, 215, 219, 221-223, 227, 229-231, 233-239, 243, 245-247, "
     "249-255, 257-271", 71),
    (279, 8, 138, "273-275", 3, "271-275", 5,
     "139, 143, 145-147, 179, 195, 203, 207, 209-211, 227, 235, 239, 241-243, "
     "251, 255, 257-259, 263, 265-267, 269-275", 34),
    (282, 8, 140, "276-279", 4, "273-279", 7,
     "141-143, 145-151, 167, 175, 179, 181-183, 191, 195, 197-199, 203, "
     "205-207, 209-215, 223, 227, 229-231, 235, 237-239, 241-247, 251, "
     "253-255, 257-263, 265-279", 79),
    (286, 8, 142, "280-283", 4, "277-283", 7,
     "143, 145-147, 149-155, 171, 179, 183, 185-187, 195, 199, 201-203, 207, "
     "209-211, 213-219, 227, 231, 233-235, 239, 241-243, 245-251, 255, "
     "257-259, 261-267, 269-283", 83),
    (289, 8, 144, "283-287", 5, "279-287", 9,
     "145-159, 167, 171, 173-175, 179, 181-183, 185-191, 195, 197-199, "
     "201-207, 209-215, 216-223, 227, 229-231, 233-239, 241-247, 248-255, "
     "257-263, 264-271, 272-279, 280-287", 143),
)


def table_rows(which: int) -> list[TableRow]:
    """The embedded rows of comparison table 1, 2, or 3."""
    if which not in (1, 2, 3):
        raise ParamRangeError(f"table index must be 1, 2 or 3, got {which}")
    raw, q = ((_TABLE1, 2), (_TABLE2, 3), (_TABLE3, 2))[which - 1]
    return [
        TableRow(
            params=CodeParams(n=n, k=k, d=d, q=q),
            printed=tuple(parse_weights(cell) for cell in cells[::2]),
            printed_counts=tuple(cells[1::2]),
            source=f"table{which}:{i:02d}",
        )
        for i, (n, k, d, *cells) in enumerate(raw)
    ]


class CellComparison(NamedTuple):
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


class RowComparison(NamedTuple):
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
        raw, clamped = excluded(row.params, clamp=False), excluded(row.params)
        cells.append(CellComparison(method, printed, raw, clamped, count))
    return RowComparison(row, tuple(cells))


def compare_table(which: int) -> list[RowComparison]:
    """Compare every row of table 1, 2 or 3."""
    return [compare_row(row) for row in table_rows(which)]
