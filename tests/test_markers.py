"""CI reruns the tests marked differential with fresh hypothesis examples,
so a hypothesis test that calls a reference from tests/oracles.py and
lacks the mark would drop out of that run unseen."""

import ast
from pathlib import Path


def _oracle_names(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "oracles" for alias in node.names}


def test_hypothesis_tests_calling_an_oracle_are_marked_differential():
    unmarked = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        oracles = _oracle_names(tree)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            decorators = [ast.unparse(d) for d in node.decorator_list]
            called = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & oracles
            if called and any(d.startswith("given(") for d in decorators):
                if "pytest.mark.differential" not in decorators:
                    unmarked.append(f"{path.name}::{node.name}")
    assert unmarked == []
