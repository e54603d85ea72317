"""The benchmark tracer patches adinash names where they are looked up; every
target it lists must still resolve, or the traced benchmark stops with a
LookupError."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "layer,module,path", tracer.TARGETS, ids=[f"{m}.{p}" for _, m, p in tracer.TARGETS]
)
def test_trace_target_resolves(layer, module, path):
    owner, attr, original = tracer._resolve(module, path)
    assert callable(original)
    assert vars(owner)[attr] is original
