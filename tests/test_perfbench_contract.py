"""The benchmark's outside-in tracer (perfbench/tracer.py) wraps library
functions by name. These tests fail when a rename or deletion in the library
would leave `perfbench/run.py --trace 1` with a function it cannot find or a
binding it does not wrap."""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions(module):
    for layer, attrs in module.TRACED.items():
        for attr in attrs:
            owner = sys.modules[f"emocue.{layer}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            yield f"{layer}.{attr}", owner


def test_tracer_wraps_every_binding():
    module = _tracer_module()
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        wrapped = dict(_traced_functions(module))
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
    finally:
        tracer.uninstall()
    assert not [name for name, fn in _traced_functions(module)
                if hasattr(fn, "__wrapped__")]
