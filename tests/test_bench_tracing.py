"""Every function the benchmark's tracer rebinds must exist in framescale,
or ``bench/run.py --trace 1`` breaks on a rename or deletion."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.skipif(not TRACING.is_file(), reason="bench/tracing.py is absent")
def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    missing = [f"{module}.{func}" for module, funcs in traced.items() for func in funcs
               if not callable(getattr(importlib.import_module(f"framescale.{module}"),
                                       func, None))]
    assert missing == []
