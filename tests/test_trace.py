"""Traceability completeness: registry covers the inventory, references exist."""

import ast
from pathlib import Path

from traceability import TRACE, missing_keys, resolve_operation, unknown_keys

TESTS_DIR = Path(__file__).parent


def collect_test_functions(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    }


def test_inventory_fully_covered():
    assert missing_keys() == []
    assert unknown_keys() == []


def test_every_operation_resolves():
    for entry in TRACE:
        for op in entry.operations:
            assert resolve_operation(op) is not None, (entry.key, op)


def test_every_referenced_test_exists():
    cache = {}
    for entry in TRACE:
        assert entry.tests, entry.key
        for ref in entry.tests:
            file_name, _, func = ref.partition("::")
            path = TESTS_DIR / file_name
            assert path.exists(), (entry.key, ref)
            if file_name not in cache:
                cache[file_name] = collect_test_functions(path)
            assert func in cache[file_name], (entry.key, ref)
