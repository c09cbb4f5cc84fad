"""The package's public names: each is loaded from the module that defines
it on first use, so ``import homlab`` stays cheap and the names stay the same
objects as in their modules."""

import ast
import dataclasses
import glob
import importlib
import os
import pkgutil
import re
import types
from fractions import Fraction

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


#: names in __all__ that need no caller, each for the reason given
NO_CALLER_NEEDED = {
    # records that public functions return
    "ZeroSet": "returned by bfs_zeros",
    "VerifyResult": "returned by verify_parametric",
    "CnlReport": "returned by cnl_scan",
    # constructors that parse_state dispatches to
    "odd_cat": "parse_state's oddcat:",
    "photon_added_smss": "parse_state's pasmss:",
    "fock_superposition": "parse_state's super:",
    "load_custom": "parse_state's custom:",
    # the paper's tables
    "BALANCED_N3_FAMILIES": "the paper's n = 3 families at T = 1/2",
    "T34_N2_FAMILIES": "the paper's n = 2 families at T = 3/4",
}


def _caller_texts():
    """Path -> text of the package's modules (but __init__), the demos, the
    benchmark's scripts and the README."""
    package, root = homlab.__path__[0], os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    texts = {}
    for path in [*(os.path.join(package, f"{name}.py") for name in SUBMODULES),
                 *glob.glob(os.path.join(root, "demos", "*.py")),
                 *glob.glob(os.path.join(root, "bench", "*.py")), os.path.join(root, "README.md")]:
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    return texts


def test_every_public_name_has_a_caller():
    # a whole-word use counts, in any of those texts but the name's own module
    texts, package = _caller_texts(), homlab.__path__[0]
    uncalled = [name for name in homlab.__all__
                if not any(re.search(rf"\b{re.escape(name)}\b", text)
                           for path, text in texts.items()
                           if path != os.path.join(package, f"{homlab._MODULE_OF[name]}.py"))]
    assert uncalled == sorted(NO_CALLER_NEEDED)


def _public_members(cls):
    """The public methods and properties of a class, its own and those of its
    homlab base classes, but not its record fields."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) \
        else set(getattr(cls, "_fields", ()))
    return {name for base in cls.__mro__ if base.__module__.startswith("homlab.")
            for name, value in vars(base).items()
            if not name.startswith("_") and name not in fields
            and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))}


def test_every_public_member_has_a_caller():
    # an attribute read .name counts, in any of the texts, its own module included
    text = "\n".join(_caller_texts().values())
    classes = [value for name in homlab.__all__ if isinstance(value := getattr(homlab, name), type)]
    members = {(cls.__name__, name) for cls in classes for name in _public_members(cls)}
    assert ("PureState", "trace") in members and ("BeamSplitterSetting", "parse") in members
    assert not [member for member in sorted(members)
                if not re.search(rf"\.{re.escape(member[1])}\b", text)]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        homlab.no_such_name  # noqa: B018
    assert not hasattr(homlab, "bs_prob")


# (module, record, keyword fields, a bad field, its error) for the records of
# the modules that commands without numpy load
RECORDS = [
    ("bs_core", "BeamSplitterSetting", {"exact_t": Fraction(1, 2), "theta": None},
     {"exact_t": Fraction(3, 2)}, "transmittance must lie in [0, 1]"),
    ("detector", "LossConfig", {"eta_a": 0.9, "eta_b": 0.8},
     {"eta_b": 1.2}, "efficiency must lie in [0, 1]"),
    ("detector", "SqueezedSource", {"r": 1.5},
     {"r": -1}, "squeezing parameter r must be non-negative"),
    ("nodal", "ParametricSolution",
     {"a_coeffs": (0, 1, 2), "b_coeffs": (1, 3, 2), "n": 2, "t": Fraction(1, 2)},
     {"b_coeffs": (1, 0, 0, 0, 1)}, "polynomial degree must be at most 3"),
    ("nodal", "ZeroSet", {"n": 1, "t": Fraction(1, 2), "m_max": 1, "zeros": ((1, 1),)},
     None, None),
    ("nodal", "VerifyResult", {"valid": True, "residual_coefficients": (0,),
                               "first_nonzero": None, "certificates_agree": True},
     None, None),
]


@pytest.mark.parametrize("module, name, fields, bad, message", RECORDS)
def test_records_are_immutable_values(module, name, fields, bad, message):
    cls = getattr(importlib.import_module(f"homlab.{module}"), name)
    record = cls(**fields)
    assert record == cls(**fields) and hash(record) == hash(cls(**fields))
    assert {key: getattr(record, key) for key in fields} == fields
    for key in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, key, 0)
    if bad is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**fields, **bad})


def test_record_defaults_and_normal_form():
    from homlab.bs_core import BeamSplitterSetting
    from homlab.nodal import ParametricSolution
    assert BeamSplitterSetting(theta=1.0).exact_t is None
    with pytest.raises(ValueError, match="specify exactly one of exact_t or theta"):
        BeamSplitterSetting()
    sol = ParametricSolution(a_coeffs=[0, 1, 0], b_coeffs=(0, 1), n=3, t="1/2")
    assert sol == ParametricSolution(a_coeffs=(0, 1), b_coeffs=(0, 1), n=3, t=Fraction(1, 2))
    assert type(sol.t) is Fraction


def _unread_imports(source: str) -> list[str]:
    """The names that the module's import statements bind and that no
    expression of the module reads; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_import_guard_sees_an_unread_name():
    assert _unread_imports("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n") \
        == ["field"]
    assert _unread_imports("import os.path as p, sys\nimport json\np, json.dumps\n") == ["sys"]


@pytest.mark.parametrize("name", sorted(SUBMODULES | {"__init__"}))
def test_every_import_is_read(name):
    path = os.path.join(homlab.__path__[0], f"{name}.py")
    with open(path) as fh:
        assert _unread_imports(fh.read()) == []
