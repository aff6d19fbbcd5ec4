"""The benchmark's tracer finds every entry point it names.

`perfbench/spans.py` reports an entry point that no longer exists as "not
observed" and drops its layer metric instead of failing. This test makes a
rename or deletion of a traced function fail here instead.
"""

import importlib.util
from pathlib import Path

import textlime  # noqa: F401
import textlime.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_observed():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.not_observed == []
    finally:
        tracer.uninstall()
