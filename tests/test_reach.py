"""Every function and class that src/tabmark defines is named by the program.

A definition counts as reached when its name appears as a Name, an Attribute
or an import alias anywhere in src/, perfbench/, demos/ or scripts/; dunder
methods, which Python calls itself, are skipped.  A reference that tests
compare against belongs in tests/references.py, not in src/.

The match is by name only, so a definition whose name is also spelled for
something else (swapaxes, validate) escapes this check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "perfbench", "demos", "scripts")

# definitions the program reaches without spelling their names
ALLOWED = {
    "handle_data": "html.parser.HTMLParser calls it on teds.py's parser",
    "handle_startendtag": "html.parser.HTMLParser calls it on teds.py's parser",
    "masked_softmax": "perfbench's tracer patches it by a string name; it can leave src/ "
    "once the benchmark reads a trace the program owns",
}


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_reached():
    used = set()
    for _, tree in _trees(p for top in PROGRAM for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    unreached = {}
    for path, tree in _trees(sorted((ROOT / "src" / "tabmark").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in used:
                    unreached[name] = f"{path.name}:{node.lineno}"
    assert set(unreached) == set(ALLOWED), {
        "unreached, not allowed": {n: at for n, at in unreached.items() if n not in ALLOWED},
        "allowed, but reached or gone": sorted(set(ALLOWED) - set(unreached)),
    }


def test_every_export_resolves():
    import tabmark

    assert len(tabmark.__all__) == len(set(tabmark.__all__))
    missing = [name for name in tabmark.__all__ if not hasattr(tabmark, name)]
    assert not missing, missing
