"""The package's public names: each is loaded from the module that defines
it on first use, so ``import homlab`` stays cheap and the names stay the same
objects as in their modules."""

import importlib
import pkgutil
import types

import pytest

import homlab

SUBMODULES = {m.name for m in pkgutil.iter_modules(homlab.__path__)}


def test_names_are_their_modules_objects():
    modules = [importlib.import_module(f"homlab.{name}") for name in sorted(SUBMODULES)]
    for name in homlab.__all__:
        value = getattr(homlab, name)
        binders = [m for m in modules if hasattr(m, name)]
        assert binders, name
        assert all(getattr(m, name) is value for m in binders), name
        if isinstance(value, (type, types.FunctionType)):
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from homlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(homlab.__all__)


def test_all_lists_no_submodule():
    assert not SUBMODULES & set(homlab.__all__)
    assert len(set(homlab.__all__)) == len(homlab.__all__)


def test_dir_lists_all():
    assert set(homlab.__all__) <= set(dir(homlab))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        homlab.no_such_name  # noqa: B018
    assert not hasattr(homlab, "bs_prob")
