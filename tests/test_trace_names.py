"""Every function the benchmark's tracer wraps must exist under its name.

The tracer in ``perfbench/spans.py`` replaces functions where they are
looked up (``merge_methods.trim_topk``, not ``delta_ops.trim_topk``).  A
renamed or dropped import there breaks every traced benchmark run; this
catches it in the test suite instead.  Names are resolved, not wrapped.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import WRAPS  # noqa: E402


@pytest.mark.parametrize(
    "module_name,path", [(module, path) for module, path, _, _ in WRAPS], ids=lambda v: v
)
def test_traced_name_resolves_to_a_callable(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
