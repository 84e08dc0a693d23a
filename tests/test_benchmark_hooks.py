"""The benchmark tracer patches trievolve functions by module attribute.

``perfbench/tracer.py`` names each hook in ``PATCH_POINTS``; a renamed or
deleted hook would break only the benchmark, so tier-1 checks them here.
The tracer module is imported, never modified.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_patch_point_is_a_callable_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCH_POINTS
    for module, attr in tracer.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
