"""Every name a module lists in ``__all__`` resolves to an attribute.

Tools that wrap the public functions of each module (such as the span
tracer of the benchmark) look every listed name up, so a stale entry
breaks them at start-up.
"""

import importlib
import pkgutil

import pytest

import ceslab

MODULES = ["ceslab"] + [
    f"ceslab.{info.name}" for info in pkgutil.iter_modules(ceslab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
