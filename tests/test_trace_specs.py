"""Every function and method the benchmark's tracer wraps exists on the package.

perfbench's tracer looks each (module, attribute) up by name when a traced
run starts, so a rename or an inlined function would only show as a failed
``--trace 1`` run.  These tests make it a tier-1 failure instead.
"""

import importlib

import pytest

from perfbench.tracer import FUNCTION_SPECS, METHOD_SPECS


@pytest.mark.parametrize("module, attr", [spec[:2] for spec in FUNCTION_SPECS],
                         ids=[".".join(spec[:2]) for spec in FUNCTION_SPECS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr", [spec[:3] for spec in METHOD_SPECS],
                         ids=[".".join(spec[:3]) for spec in METHOD_SPECS])
def test_traced_method_resolves(module, cls, attr):
    # the tracer reads the class's own __dict__, not an inherited attribute
    assert callable(vars(getattr(importlib.import_module(module), cls)).get(attr))
