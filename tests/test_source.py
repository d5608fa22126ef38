"""Guards over the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cwsense"


def test_no_assert_statements():
    """Invariants must be exceptions: `python -O` strips assert."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_field_element_stays_in_field_module():
    """FieldElement is the schoolbook reference: library code outside
    field.py works on int-coded elements and never names it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.alias):
                names.append(node.name)
            if "FieldElement" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
