"""Tests for the names the package exports."""

import importlib
import pkgutil

import pytest

import symcrit
from symcrit import cli, surface

MODULES = ["symcrit"] + [
    f"symcrit.{m.name}" for m in pkgutil.iter_modules(symcrit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_every_cli_generator_is_exported_by_surface():
    exported = {getattr(surface, n) for n in surface.__all__}
    assert set(cli.GENERATORS.values()) <= exported
