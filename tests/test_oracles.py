"""The references in oracles.py stand apart from the entries they check."""

import ast
from pathlib import Path

# the library's one-row entries: each is a call of an array path, checked
# against a loop in oracles.py, so a loop that called one would check the
# array path against itself
ONE_ROW_ENTRIES = {
    "g_add",
    "g_sub",
    "project_pi",
    "section_sigma",
    "first_nonzero_position",
    "character",
    "walsh_exponent",
    "walsh_eval",
    "character_sum_over",
    "in_E",
    "dual_contains",
}
# the kernel rules the loops in oracles.py check: the diagonal coefficient
# and the flat-index read of a band-limited kernel
KERNEL_RULES = {"r_rows", "khat"}


def test_oracles_call_no_one_row_entry():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("badicnet"):
            found += [f"import of {a.name} at line {node.lineno}" for a in node.names if a.name in ONE_ROW_ENTRIES | KERNEL_RULES]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ONE_ROW_ENTRIES | KERNEL_RULES:
                found.append(f"call of {name} at line {node.lineno}")
    assert found == []
