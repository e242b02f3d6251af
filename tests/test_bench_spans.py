"""The benchmark's span tracer names only functions that exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    # spans.py is stdlib only and not a package module: load it by path
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{function}"
        for module, function, _, _ in targets
        if not callable(getattr(importlib.import_module(f"badicnet.{module}"), function, None))
    ]
    assert missing == []
