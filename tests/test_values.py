"""Value semantics shared by every exported value type.

Each type is a small immutable value: its repr is ``Name(field=value!r, ...)``,
equality compares the fields of two values of one type, equal values hash
equal, and no field can be assigned or deleted.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from temperedk import (
    RING_Z2,
    ComplexCharacter,
    ComplexComponent,
    IsotropyDescriptor,
    KClass,
    RealCharacter,
    RealComponent,
    RealDiscreteSummand,
    RepRingElement,
    TemperedPoint,
    complex_components,
    k_bc_hom,
    k_group,
    real_components,
    real_parameter,
)


def _values():
    """(value, a second value built the same way, its repr, its field names) per type."""
    builders = [
        (lambda: ComplexCharacter(-2, "1/3"),
         "ComplexCharacter(ell=-2, t=Fraction(1, 3))", ("ell", "t")),
        (lambda: RealCharacter(1, 0),
         "RealCharacter(eps=1, t=Fraction(0, 1))", ("eps", "t")),
        (lambda: RealDiscreteSummand(3, F(-1, 2)),
         "RealDiscreteSummand(ell=3, t=Fraction(-1, 2))", ("ell", "t")),
        (lambda: real_parameter(RealDiscreteSummand(-2, 1), RealCharacter(0, 0)),
         "LParameter(side='R', summands=(RealCharacter(eps=0, t=Fraction(0, 1)), "
         "RealDiscreteSummand(ell=2, t=Fraction(1, 1))))", ("side", "summands")),
        (lambda: RealComponent((3, 1), 1, 2),
         "RealComponent(discrete=(1, 3), id_count=1, sgn_count=2)",
         ("discrete", "id_count", "sgn_count")),
        (lambda: ComplexComponent((4, -1)),
         "ComplexComponent(labels=(-1, 4))", ("labels",)),
        (lambda: IsotropyDescriptor((3, 2)),
         "IsotropyDescriptor(factors=(2, 3))", ("factors",)),
        (lambda: TemperedPoint(RealComponent((2,), 0, 1), (("sgn", "1/2"), (2, -1))),
         "TemperedPoint(component=RealComponent(discrete=(2,), id_count=0, sgn_count=1), "
         "coords=((2, Fraction(-1, 1)), ('sgn', Fraction(1, 2))))", ("component", "coords")),
        (lambda: real_components(3, 2).blocks[0],
         "ListingBlock(r=1, id_counts=range(1, -1, -1), labels=range(1, 3), k=1, repeat=True)",
         ("r", "id_counts", "labels", "k", "repeat")),
        (lambda: complex_components(1, 1),
         "ComponentListing(blocks=(ListingBlock(r=None, id_counts=range(0, 0), "
         "labels=range(-1, 2), k=1, repeat=True),))", ("blocks",)),
        (lambda: KClass(1, ((ComplexComponent((1,)), 2), (ComplexComponent((-1,)), -1))),
         "KClass(degree=1, terms=((ComplexComponent(labels=(-1,)), -1), "
         "(ComplexComponent(labels=(1,)), 2)))", ("degree", "terms")),
        (lambda: k_group("R", 4, 6),
         "GradedKGroup(field='R', n=4, max_label=6)", ("field", "n", "max_label")),
        (lambda: k_bc_hom(1, 2),
         "KHomomorphism(name='base-change', domain=GradedKGroup(field='C', n=1, max_label=2), "
         "codomain=GradedKGroup(field='R', n=1, max_label=2))",
         ("name", "domain", "codomain", "rule")),
        (lambda: RepRingElement(RING_Z2, (("eps", 2), ("1", -1))),
         "RepRingElement(ring='Z/2Z', coeffs=(('1', -1), ('eps', 2)))", ("ring", "coeffs")),
    ]
    return [pytest.param(build(), build(), text, fields, id=text.split("(")[0])
            for build, text, fields in builders]


VALUES = _values()


def test_one_value_per_type():
    assert len({type(value) for value, *_ in (p.values for p in VALUES)}) == 14


@pytest.mark.parametrize("value, twin, text, fields", VALUES)
def test_repr(value, twin, text, fields):
    assert repr(value) == text


@pytest.mark.parametrize("value, twin, text, fields", VALUES)
def test_equal_values_hash_equal(value, twin, text, fields):
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)


@pytest.mark.parametrize("value, twin, text, fields", VALUES)
def test_fields_cannot_be_set_or_deleted(value, twin, text, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, twin, text, fields", VALUES)
def test_copies_are_equal(value, twin, text, fields):
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    if "rule" not in fields:  # a rule is a closure, which pickle refuses
        assert pickle.loads(pickle.dumps(value)) == value


def test_values_of_different_types_differ():
    assert RealCharacter(1, 0) != RealDiscreteSummand(1, 0)
    assert not RealCharacter(1, 0) == RealDiscreteSummand(1, 0)
    assert ComplexCharacter(1, 0) != RealDiscreteSummand(1, 0)
    assert RealCharacter(1, 0) != (1, F(0))
    assert ComplexComponent((1,)) != (1,)


def test_unequal_fields_differ():
    assert RealComponent((1,), 1, 0) != RealComponent((1,), 0, 1)
    assert k_group("R", 4, 6) != k_group("R", 4, 7)
    assert KClass(0) != KClass(1)


def test_hom_rule_is_not_compared():
    a, b = k_bc_hom(1, 2), k_bc_hom(1, 2)
    assert a.rule is not b.rule
    assert a == b and hash(a) == hash(b)
    assert a != k_bc_hom(1, 3)
