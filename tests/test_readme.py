"""The README's library example runs and prints what its comments say, and
its Layout rows stay short."""

import ast
import re
from pathlib import Path

from badicnet import WceResult

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    return re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)


def shown(value, comment: str) -> bool:
    """Does the comment open with the value: leading digits then '...' for
    a float, 'value <digits>..., terms_used <N>' for a WceResult, and the
    repr otherwise?"""
    if isinstance(value, WceResult):
        m = re.match(r"value (\d\.\d+)\.\.\., terms_used (\d+)", comment)
        return bool(m) and str(value.value).startswith(m[1]) and value.terms_used == int(m[2])
    if isinstance(value, float):
        m = re.match(r"(\d\.\d+)\.\.\.", comment)
        return bool(m) and str(value).startswith(m[1])
    return comment.startswith(repr(value))


def test_library_use_block_matches_its_comments():
    source = library_use_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            expr, _, comment = lines[node.lineno - 1].partition("#")
            checked[expr.strip()] = (value, comment.strip())
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert len(checked) == 8
    # "same mass from the dual side, plus tail bound"
    spectral, _ = checked.pop("wce_spectral(sym, K, cap=8).value")
    tail = namespace["wce_spectral"](namespace["sym"], namespace["K"], cap=8).tail_bound
    assert abs(checked["wce_direct(pts, K)"][0].value - spectral) <= tail
    wrong = {expr: (value, comment) for expr, (value, comment) in checked.items() if not shown(value, comment)}
    assert wrong == {}


def test_layout_rows_stay_short():
    # a Layout row names the module's public entries and the guarantees a
    # caller relies on, not how the module works inside
    layout = re.search(r"^## Layout\n\n(.*?)\n\n", README.read_text(), re.S | re.M).group(1)
    rows = [line for line in layout.splitlines() if line.startswith("| `badicnet.")]
    assert len(rows) == 7
    assert {row.split("`")[1]: len(row) for row in rows if len(row) > 640} == {}
