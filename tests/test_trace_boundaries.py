"""The benchmark's span tracer wraps library functions by module attribute
(``perfbench/tracing.py``, ``BOUNDARIES``); a refactor that rebinds or drops
one of those attributes would silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries(monkeypatch) -> dict:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


def _resolve(location: str):
    module, attr = location.rsplit(".", 1)
    return getattr(importlib.import_module("seedbank." + module), attr)


def test_every_traced_location_holds_the_function_it_names(monkeypatch):
    boundaries = _boundaries(monkeypatch)
    assert boundaries
    for span, locations in boundaries.items():
        fn = _resolve(span)
        assert callable(fn), span
        for location in locations:
            assert _resolve(location) is fn, (span, location)
