"""The ``>>>`` examples in the package's docstrings run and hold."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import collabmarket

MODULES = [
    module
    for module in (importlib.import_module(f"collabmarket.{info.name}")
                   for info in pkgutil.iter_modules(collabmarket.__path__))
    if ">>>" in inspect.getsource(module)
]


def test_some_module_holds_an_example():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_examples_hold(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted >= 1
    assert result.failed == 0
