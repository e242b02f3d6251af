"""The README's library example runs and prints what its comments say, and
its Layout rows stay short and name what their modules hold."""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import badicnet
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


def layout_rows() -> list[str]:
    layout = re.search(r"^## Layout\n\n(.*?)\n\n", README.read_text(), re.S | re.M).group(1)
    return [line for line in layout.splitlines() if line.startswith("| `badicnet.")]


def test_layout_rows_stay_short():
    # a Layout row names the module's public entries and the guarantees a
    # caller relies on, not how the module works inside
    rows = layout_rows()
    assert len(rows) == 7
    assert {row.split("`")[1]: len(row) for row in rows if len(row) > 640} == {}


# backticked names that are no attribute: a parameter and the command
NOT_ATTRIBUTES = {"max_candidates", "badicnet"}


def resolves(module, name: str) -> bool:
    """Is name (dotted or not) an attribute of module, a builtin, or, for
    a dotted name such as badic.integer_array, one of the package?  A
    class or function must bear the name itself, so an alias of another
    name does not resolve."""
    head, *rest = name.split(".")
    roots = (module, builtins) + ((badicnet,) if rest else ())
    obj = next((getattr(root, head) for root in roots if hasattr(root, head)), None)
    for part in rest:
        obj = getattr(obj, part, None)
    named = inspect.isclass(obj) or inspect.isroutine(obj)
    return obj is not None and (not named or obj.__name__ == name.rsplit(".", 1)[-1])


def test_layout_names_resolve():
    # a row naming a moved or renamed entry fails here
    unresolved = {}
    for row in layout_rows():
        module_name, *names = re.findall(r"`([^`]+)`", row)
        module = importlib.import_module(module_name)
        names = {v for v in names if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", v)} - NOT_ATTRIBUTES
        unresolved[module_name] = sorted(v for v in names if not resolves(module, v))
    assert unresolved == dict.fromkeys(unresolved, [])


# result types of entries the README names, exempt from being named themselves
RESULT_TYPES = {"DiscrepancyResult", "WceResult", "Rho2Result", "IndependenceReport", "IntegrationResult", "WeightProfile"}


def test_package_exports_are_named_in_the_readme():
    # an export the README names neither in backticks nor in the Library
    # use block is one no reader is told of
    text = README.read_text()
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", text)) + library_use_block()))
    exports = {name for name, value in vars(badicnet).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exports - RESULT_TYPES - named) == []
