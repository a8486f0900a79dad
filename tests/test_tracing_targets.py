"""Every function the benchmark's tracer wraps still exists under its name.

`bench/tracing.py` wraps functions by module and qualified name. A rename or
deletion in the program would otherwise surface only when a traced
benchmark run fails. The module is loaded by path; no wrapper is installed.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()


@pytest.mark.parametrize("module_name, qualname, layer", _TRACING.TARGETS)
def test_target_resolves(module_name, qualname, layer):
    owner, attr = _TRACING._resolve(importlib.import_module(module_name), qualname)
    assert callable(getattr(owner, attr))
