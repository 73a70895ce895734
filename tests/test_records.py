"""The records made by geometry.record_class against frozen dataclasses.

Each record class is compared with a twin that dataclasses.make_dataclass
builds from its fields with frozen=True: on drawn field values the two must
agree in repr, ==, != and hash, and the record must stay frozen, pickle,
copy and replace like one.
"""

import copy
import importlib
import inspect
import math
import pickle
import pkgutil
from dataclasses import (MISSING, FrozenInstanceError, field, fields, is_dataclass,
                         make_dataclass, replace)

import pytest
from hypothesis import given, settings, strategies as st

import compmap
import compmap.geometry
from compmap import Rect
from compmap.planarmap import SIDE_MODES

RECORDS = [obj for info in pkgutil.iter_modules(compmap.__path__)
           for mod in (importlib.import_module(f"compmap.{info.name}"),)
           for obj in vars(mod).values()
           if inspect.isclass(obj) and is_dataclass(obj) and obj.__module__ == mod.__name__]

values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(allow_nan=False),
    st.text(max_size=6), st.tuples(st.floats(allow_nan=False), st.integers(0, 9)))
tolerances = st.floats(1e-15, 1.0)
# fields whose __post_init__ refuses most of `values`
FIELD_VALUES = {
    ("Rect", "x_lo"): st.floats(-1e6, 0.0), ("Rect", "x_hi"): st.floats(0.0, 1e6),
    ("Rect", "y_lo"): st.floats(-1e6, 0.0), ("Rect", "y_hi"): st.floats(0.0, 1e6),
    ("SideOptions", "mode"): st.sampled_from(SIDE_MODES),
    ("SideOptions", "epsilon_margin"): tolerances,
    ("SideOptions", "max_iter"): st.integers(1, 10**6),
    ("SideOptions", "conv_tol"): tolerances,
    ("CurveOptions", "mode"): st.sampled_from((None,) + SIDE_MODES),
    ("CurveOptions", "columns"): st.integers(1, 10**6),
    ("CurveOptions", "curve_tol"): tolerances,
    ("CurveOptions", "max_iter"): st.integers(1, 10**6),
    ("Var", "name"): st.sampled_from("xy"),
    ("BinOp", "op"): st.sampled_from("+-*/"),
}


def _twin(cls):
    spec = [(f.name, f.type, field(default=f.default, default_factory=f.default_factory,
                                   repr=f.repr, hash=f.hash, compare=f.compare))
            for f in fields(cls)]
    return make_dataclass(cls.__qualname__, spec, frozen=True)


def _draw_kwargs(data, cls):
    """Field values by name; a field with a default is left out at random."""
    kwargs = {}
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if not (has_default and data.draw(st.booleans())):
            kwargs[f.name] = data.draw(FIELD_VALUES.get((cls.__name__, f.name), values))
    return kwargs


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:  # a dict field, as PlanarMap.params
        return TypeError


def test_records_are_found():
    # the records of geometry, expr, planarmap, fixedpoints, classification,
    # curves, basins, systems and cli at the time of writing
    assert len(RECORDS) >= 33


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_methods_are_not_generated_code(cls):
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__"):
        assert getattr(cls, name).__code__.co_filename == compmap.geometry.__file__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_record_behaves_like_a_frozen_dataclass(cls, data):
    twin = _twin(cls)
    ka, kb = _draw_kwargs(data, cls), _draw_kwargs(data, cls)
    if data.draw(st.booleans()):
        kb = dict(ka)
    a, b, ta, tb = cls(**ka), cls(**kb), twin(**ka), twin(**kb)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert (a == b, a != b) == (ta == tb, ta != tb)
    assert a == a and a != ta and a.__eq__(ta) is NotImplemented
    assert _hash(a) == _hash(ta)
    names = [f.name for f in fields(cls)]
    assert cls(*(getattr(a, name) for name in names)) == a
    for name in (*names, "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a
    name = data.draw(st.sampled_from(names))
    if name in kb:
        assert replace(a, **{name: kb[name]}) == cls(**{**ka, name: kb[name]})
    values_a = [getattr(a, name) for name in names]
    with pytest.raises(TypeError):
        cls(*values_a, 0)
    with pytest.raises(TypeError):
        cls(*values_a, not_a_field=0)
    with pytest.raises(TypeError):
        cls(values_a[0], **{names[0]: values_a[0]})
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    if required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in ka.items() if k != required[-1]})


def test_replace_runs_post_init_again():
    r = Rect(0.0, 1.0, 0.0, 2.0)
    assert replace(r, x_hi=3.0) == Rect(0.0, 3.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        replace(r, x_lo=math.nan)
