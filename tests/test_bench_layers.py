"""The benchmark's traced layers must all name functions that exist.

perfbench/tracing.py reports a layer whose function has gone as absent
instead of failing, so a rename would silently empty a benchmark metric.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_traced_layer_resolves(layer):
    assert tracing._resolve(layer) is not None
