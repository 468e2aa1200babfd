"""Every function and class in ``src/`` is named somewhere besides its own
``def`` line.

A definition whose name appears nowhere else in the repository — not in
the library, its tests, docs, tools, harnesses, examples, perfbench or CI —
cannot be called and is dead weight.  The search is by whole word, so a
definition that shares its name with live code passes; this is a floor, not
a reachability proof.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where a name counts as used.
SEARCHED = ("src", "tests", "docs", "tools", "benchmarks", "examples",
            "perfbench", ".github", "README.md")

#: ``http.server`` dispatches these by name; nothing in the repo calls them.
FRAMEWORK_HOOKS = {"do_GET", "do_POST", "log_message"}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions():
    """``name -> {(path, def line)}`` for every function and class in src."""
    found = defaultdict(set)
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found[node.name].add((path, node.lineno))
    return found


def _searched_files():
    for entry in SEARCHED:
        path = REPO_ROOT / entry
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from (f for f in sorted(path.rglob("*"))
                        if f.is_file() and "__pycache__" not in f.parts)


def test_every_definition_is_named_outside_its_def_line():
    definitions = {
        name: lines for name, lines in _definitions().items()
        if name not in FRAMEWORK_HOOKS
        and not (name.startswith("__") and name.endswith("__"))
    }
    unnamed = set(definitions)
    for path in _searched_files():
        try:
            text = path.read_text()
        except (UnicodeDecodeError, OSError):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in unnamed.intersection(_WORD.findall(line)):
                if (path, lineno) not in definitions[word]:
                    unnamed.discard(word)
    orphans = sorted(
        f"{path.relative_to(REPO_ROOT)}:{lineno} {name}"
        for name in unnamed for path, lineno in definitions[name]
    )
    assert not orphans, (
        "definitions named nowhere but on their own def line:\n"
        + "\n".join(orphans)
    )
