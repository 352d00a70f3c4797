"""`words.record` against `dataclasses.dataclass(frozen=True)`.

The same class bodies are decorated both ways, and every behaviour the
package's records rely on must match: equality, hashing, repr,
construction (positional, keyword and default), argument errors,
`__post_init__`, immutability, copying and pickling.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from sweepwords.errors import InvalidModulus
from sweepwords.exactalg import ScalarRing
from sweepwords.words import FrozenInstanceError, record


def _define(decorate, prefix: str) -> SimpleNamespace:
    """The test classes, decorated, reachable (for pickle) as prefix.Name."""

    class Point:
        x: int
        y: int

    class Ring:  # a default, and a __post_init__ that validates
        kind: str
        p: int | None = None

        def __post_init__(self):
            if self.kind not in ("prime_field", "big_integer"):
                raise ValueError(f"unknown ring kind {self.kind!r}")

    class Single:  # one field: its field tuple still has one entry
        items: object

    classes = SimpleNamespace()
    for cls in (Point, Ring, Single):
        cls.__qualname__ = f"{prefix}.{cls.__name__}"
        setattr(classes, cls.__name__, decorate(cls))
    return classes


R = _define(record, "R")
D = _define(dataclass(frozen=True), "D")

# (class name, positional arguments, keyword arguments)
CALLS = [
    ("Point", (1, 2), {}),
    ("Point", (1,), {"y": 2}),
    ("Point", (), {"y": 2, "x": 1}),
    ("Point", (1.0, 2), {}),
    ("Point", (2, 1), {}),
    ("Point", ((1, 2), None), {}),
    ("Ring", ("big_integer",), {}),
    ("Ring", ("prime_field", 101), {}),
    ("Ring", ("prime_field",), {"p": 101}),
    ("Ring", (), {"kind": "big_integer", "p": None}),
    ("Single", ((1, 2),), {}),
    ("Single", (), {"items": (1, 2)}),
    ("Single", ((),), {}),
]


def _both(name, args, kwargs):
    return getattr(R, name)(*args, **kwargs), getattr(D, name)(*args, **kwargs)


def _bare(text: str) -> str:
    return text.removeprefix("R.").removeprefix("D.")


@pytest.mark.parametrize("call", CALLS)
def test_construction_repr_and_hash(call):
    r, d = _both(*call)
    assert vars(r) == vars(d)
    assert _bare(repr(r)) == _bare(repr(d))
    assert hash(r) == hash(d)


def test_equality_within_and_across_classes():
    built = [_both(*call) for call in CALLS]
    for r1, d1 in built:
        for r2, d2 in built:
            assert (r1 == r2) == (d1 == d2)
            assert (r1 != r2) == (d1 != d2)
        # a record never equals a dataclass, a tuple or None
        for other in (d1, tuple(vars(r1).values()), None):
            assert (r1 == other) is False and (r1 != other) is True


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        ("Point", (1,), {}),  # missing
        ("Point", (1, 2, 3), {}),  # one too many
        ("Point", (1, 2), {"z": 3}),  # unknown keyword
        ("Point", (1,), {"x": 2}),  # x given twice
        ("Ring", (), {}),  # missing, although p has a default
        ("Single", (), {}),
    ],
)
def test_argument_errors(name, args, kwargs):
    for classes in (R, D):
        with pytest.raises(TypeError):
            getattr(classes, name)(*args, **kwargs)


def test_post_init_runs_after_the_fields_are_set():
    for classes in (R, D):
        with pytest.raises(ValueError, match="'other'"):
            classes.Ring("other")


@pytest.mark.parametrize("field", ["x", "y", "z"])
def test_fields_cannot_be_assigned_or_deleted(field):
    for classes in (R, D):
        point = classes.Point(1, 2)
        with pytest.raises(AttributeError):
            setattr(point, field, 5)
        with pytest.raises(AttributeError):
            delattr(point, field)
        assert vars(point) == {"x": 1, "y": 2}
    with pytest.raises(FrozenInstanceError, match=f"'{field}'"):
        R.Point(1, 2).__setattr__(field, 5)


@pytest.mark.parametrize("call", CALLS)
def test_copy_deepcopy_and_pickle(call):
    for original in _both(*call):
        for twin in (
            copy.copy(original),
            copy.deepcopy(original),
            pickle.loads(pickle.dumps(original)),
        ):
            assert type(twin) is type(original)
            assert twin == original and hash(twin) == hash(original)


def test_deepcopy_copies_mutable_fields():
    for classes in (R, D):
        original = classes.Single([1, [2]])
        twin = copy.deepcopy(original)
        assert twin == original
        assert twin.items is not original.items
        assert copy.copy(original).items is original.items


def test_package_records():
    ring = ScalarRing("prime_field", 101)
    assert repr(ring) == "ScalarRing(kind='prime_field', p=101)"
    assert hash(ring) == hash(("prime_field", 101))
    assert ring == ScalarRing(kind="prime_field", p=101)
    assert ring != ScalarRing("prime_field", 103)
    assert ScalarRing("big_integer").p is None
    with pytest.raises(InvalidModulus):
        ScalarRing("prime_field", 100)
