"""Generated mutants of the formulas: one per comparison, binary operation and
integer constant in each module of TARGETS (bounds.py and selfcheck.py).

    python tests/mutate_formulas.py [--workers N] [--list]

Each site gets one mutant: a comparison swaps `<`/`<=`, `>`/`>=`, `==`/`!=`
and `in`/`not in`; a binary or augmented operation turns `+` into `-`, `-`
into `+`, `*` into `+`, `//` into `*`, `**` into `*` and `%` into `//`; an
integer constant grows by one.  The module is parsed with `ast`, one site is
changed, and `ast.unparse` writes the whole module into a copy of the project
(made as `tests/mutants.py` makes it), where `pytest -x --assert=plain` runs
the module's tests (plain asserts, as in `tests/mutants.py`).  Each
unchanged module goes through the same round trip first and must pass, so a
failure is the mutant's, not the unparse's.

A mutant is killed when pytest fails.  A survivor is either a missing test,
or an equivalent mutant listed in EQUIVALENT with the reason no test can
tell it apart.  The script prints one line per mutant and exits 1 on an
unlisted survivor, on a listed one that is killed or no longer exists, or on
any other pytest exit.  It starts at most two workers, and no more than
there are cores.  pytest does not collect this file; `--list` prints the
sites without running them.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from mutants import ROOT, copy_project

# Each mutated module with the tests run on its mutants.
TARGETS = (
    ("src/weightbounds/bounds.py", ("tests/test_bounds.py",)),
    ("src/weightbounds/selfcheck.py", ("tests/test_selfcheck.py",)),
)
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Pow: ast.Mult, ast.Mod: ast.FloorDiv,
}

# (module, function, code before, code after) of each mutant no test can tell
# apart from the module, with the reason.
EQUIVALENT = {
    ("src/weightbounds/bounds.py", "ceil_div_sum", "power >= a", "power > a"):
        "at power == a the term ceil(a/power) is 1, the same whether divided out or counted",
    ("src/weightbounds/bounds.py", "_classical_verdicts", "maxsize=256", "maxsize=257"):
        "the LRU's size changes which tuples are rebuilt, not what any call returns",
    ("src/weightbounds/selfcheck.py", "run_selftest", "len(codes) or 1", "len(codes) or 2"):
        "the stop matters only for an empty corpus, whose slices are all empty and merge to"
        " the same zero records however many there are",
}


class Site(NamedTuple):
    path: str
    index: int  # the site's place in source order
    function: str
    line: int
    before: str
    after: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return self.path, self.function, self.before, self.after

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.function}: {self.before} -> {self.after}"


def sites(tree: ast.Module) -> list[tuple[ast.AST, str, int, object]]:
    """Every mutable site in source order: (node, enclosing function, line,
    what to change: the index of a comparison operator, the operator node of a
    binary operation, or None for an integer constant)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            found.extend((node, function, node.lineno, i)
                         for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, function, node.lineno, node.op))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, function, node.lineno, None))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def mutate(path: str, source: str, index: int) -> tuple[str, Site]:
    """The module at `path` with site `index` changed, and that site."""
    tree = ast.parse(source)
    node, function, line, what = sites(tree)[index]
    shown = parents(tree)[node] if what is None else node  # a constant is shown in context
    before = ast.unparse(shown)
    if what is None:
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[what] = SWAPS[type(node.ops[what])]()
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), Site(path, index, function, line, before, ast.unparse(shown))


def run(path: str, module: str) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', pytest's output) with the module at
    `path` replaced by `module` in a copy of the project."""
    with tempfile.TemporaryDirectory() as tmp:
        env = copy_project(Path(tmp))
        (Path(tmp) / path).write_text(module)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--assert=plain", *dict(TARGETS)[path]],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, proc.stdout + proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()
    sources = {path: (ROOT / path).read_text() for path, _ in TARGETS}
    mutants = [mutate(path, source, i) for path, source in sources.items()
               for i in range(len(sites(ast.parse(source))))]
    if args.list:
        for _, site in mutants:
            print(site)
        return 0
    start, bad = time.perf_counter(), 0
    for path, source in sources.items():
        outcome, output = run(path, ast.unparse(ast.parse(source)))
        if outcome != "survived":
            print(f"unmutated {path} fails after the ast round trip:\n{output}")
            return 1
    workers = max(1, min(args.workers, 2, os.cpu_count() or 1))
    seen = set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for (_, site), (outcome, output) in zip(
            mutants, pool.map(lambda m: run(m[1].path, m[0]), mutants)
        ):
            seen.add(site.key)
            listed = site.key in EQUIVALENT
            if outcome == "survived" and listed:
                outcome = "equivalent"
            ok = outcome in ("killed", "equivalent") and not (listed and outcome == "killed")
            bad += not ok
            note = "" if ok else "  <- " + ("listed as equivalent" if listed else "unlisted")
            print(f"{outcome:<10} {site}{note}", flush=True)
            if outcome == "error":
                print(output, file=sys.stderr)
    for key in EQUIVALENT.keys() - seen:
        bad += 1
        print(f"stale      {key}: listed as equivalent, but no such mutant exists")
    print(f"{len(mutants)} mutants, {bad} failing the run,"
          f" in {time.perf_counter() - start:.1f} s with {workers} workers")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
