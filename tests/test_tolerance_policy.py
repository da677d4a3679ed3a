"""The tolerance policy: every threshold of the package is a named constant of
the one table in ``framescale.numerics``, and the only tolerance a caller can
pass is ``is_tight``'s.  Both rules are read off the source with ``ast``."""

import ast
import re
from pathlib import Path

from framescale import numerics

SRC = Path(numerics.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
SMALL = 1e-6  # a float literal below this is a threshold
TABLE = ("ZERO_TOL", "RANK_TOL", "PIVOT_TOL", "RESIDUAL_TOL", "IDENTITY_TOL", "STRICT_MARGIN")


def _modules():
    return sorted(SRC.glob("*.py"))


def _table_nodes(tree):
    """The literal of each module-level ``NAME = <float>`` of the table."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id in TABLE}


def test_thresholds_live_only_in_the_table():
    stray = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _table_nodes(tree) if path.name == "numerics.py" else set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < SMALL and id(node) not in allowed):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_the_table_is_complete_and_documented():
    tree = ast.parse((SRC / "numerics.py").read_text(encoding="utf-8"))
    assert len(_table_nodes(tree)) == len(TABLE)
    section = README.read_text(encoding="utf-8").split("## Numerics and tolerance")[1]
    section = section.split("\n## ")[0]
    for name in TABLE:
        row = re.search(rf"^\| `{name}` \| `([^`]+)` \|", section, re.MULTILINE)
        assert row and float(row.group(1)) == getattr(numerics, name), name


def test_only_is_tight_takes_a_tolerance():
    knobs = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg.lower().endswith("tol"):
                    knobs.append(f"{path.name}:{getattr(node, 'name', 'lambda')}({arg.arg})")
    assert knobs == ["frame_core.py:is_tight(tol)"]
