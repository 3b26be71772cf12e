import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # Contracts must raise; ``python -O`` strips assert statements.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
