"""Guard against dead code: every function, class, method, property and
annotated field defined in ``src/fuseforge`` must be named, as a whole word,
somewhere in the package's or the benchmark's Python sources outside its own
definition.  Tests do not count as readers; exempt names carry a reason."""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fuseforge"
SEARCHED = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "ReduceAllResult.final_value_sets": "oracle API that acceptance criterion 2 reads",
    "DynamicStateRef.fold_op": "part of plan equality: aggregators of different folds differ",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions() -> list[tuple[str, str, Path, int, int]]:
    """(qualified name, identifier, file, first line, last line) of every
    module-level function or class and every class-level method, property or
    annotated field in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.append((node.name, node.name, path, node.lineno, node.end_lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not _is_dunder(name):
                    found.append((f"{node.name}.{name}", name, path, member.lineno,
                                  member.end_lineno))
    return found


def word_lines() -> dict[str, list[tuple[Path, int]]]:
    """Every whole-word occurrence in the searched sources, by word."""
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for root in SEARCHED:
        for path in sorted(root.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                for word in re.findall(r"\w+", line):
                    where[word].append((path, lineno))
    return where


def dead_names() -> list[str]:
    where = word_lines()
    dead = []
    for qualname, name, path, first, last in definitions():
        used = any(p != path or not first <= line <= last for p, line in where[name])
        if not used:
            dead.append(f"{qualname} ({path.relative_to(ROOT)}:{first})")
    return dead


def test_every_definition_has_a_reader():
    dead = [d for d in dead_names() if d.split(" ")[0] not in ALLOWED]
    assert dead == [], "defined but never named outside its definition: " + ", ".join(dead)


def test_allowlisted_names_still_exist():
    defined = {qualname for qualname, *_ in definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
