"""Tempered parameters of the Weil groups of the real and complex field.

Over C every irreducible tempered parameter is a unitary character
``chi_{ell,t}(z) = (z/|z|)^ell |z|^{it}`` of the multiplicative group,
labeled by an integer winding number ``ell`` and a scalar ``t``.  Over R
the irreducibles come in two families: one-dimensional characters (a
sign twist ``eps`` in {0,1} together with a scalar ``t``) and the
two-dimensional summands induced from ``chi_{ell,t}``.  The labels
``ell`` and ``-ell`` give equivalent two-dimensional summands, and
``ell = 0`` degenerates into the sum of the two sign characters, so a
canonical two-dimensional summand always carries ``ell >= 1``.

A full parameter is a finite direct sum of irreducibles, kept as a
multiset, in normal form from the moment it is built, so structural
equality is equivalence.  All scalars are exact rationals
(``fractions.Fraction``), so every operation in this package is exact
and equality is decidable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union

from .errors import InvalidLabel, InvalidN, SideMismatch

REAL = "R"
COMPLEX = "C"

Rational = Union[Fraction, int, str]


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is not an integer
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what: str):
    """``value``; TypeError naming ``what`` and the value if it is not an integer."""
    if type(value) is not int and not _is_int(value):
        raise TypeError(f"{what} must be integers, got {value!r}")
    return value


class _Value:
    """Base of the value types: immutable and slotted; compared, hashed and
    shown by its ``_fields`` (``__slots__`` unless the type names fewer).  A
    type that checks its input sets each field once in its own ``__init__``;
    the others take their slots positionally here."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        # reads, in C, the one field or the tuple of several that is compared and hashed
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class ComplexCharacter(_Value):
    """Unitary character of C^* with winding label ``ell`` and scalar ``t``."""

    __slots__ = ("ell", "t")
    side = COMPLEX
    dim = 1

    def __init__(self, ell: int, t: Rational) -> None:
        object.__setattr__(self, "ell", _check_int(ell, "labels ell"))
        object.__setattr__(self, "t", Fraction(t))


class RealCharacter(_Value):
    """One-dimensional summand over R: sign twist ``eps`` in {0,1}, scalar ``t``."""

    __slots__ = ("eps", "t")
    side = REAL
    dim = 1

    def __init__(self, eps: int, t: Rational) -> None:
        if _check_int(eps, "sign twists eps") not in (0, 1):
            raise InvalidLabel(f"eps must be 0 or 1, got {eps!r}")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "t", Fraction(t))


class RealDiscreteSummand(_Value):
    """Two-dimensional summand over R with winding label ``ell`` and scalar ``t``.

    Raw labels ``ell <= 0`` are accepted on input; ``LParameter``
    rewrites ``-ell`` as ``ell`` and splits ``ell = 0`` into the two sign
    characters.  Parameters only ever contain ``ell >= 1``.
    """

    __slots__ = ("ell", "t")
    side = REAL
    dim = 2

    def __init__(self, ell: int, t: Rational) -> None:
        object.__setattr__(self, "ell", _check_int(ell, "labels ell"))
        object.__setattr__(self, "t", Fraction(t))


Summand = Union[ComplexCharacter, RealCharacter, RealDiscreteSummand]


def _check_side(side: str) -> str:
    if side not in (REAL, COMPLEX):
        raise SideMismatch(f"side must be {REAL!r} or {COMPLEX!r}, got {side!r}")
    return side


def _summand_key(s: Summand):
    # total order: characters before two-dimensional summands,
    # then by (eps, t) resp. (ell, t)
    if isinstance(s, RealDiscreteSummand):
        return (1, s.ell, s.t)
    if isinstance(s, RealCharacter):
        return (0, s.eps, s.t)
    return (0, s.ell, s.t)


class LParameter(_Value):
    """Finite direct sum of irreducible summands over one side (R or C).

    The summands may be given raw and in any order.  Over R every
    two-dimensional summand is stored with label >= 1: a negative label
    is replaced by its absolute value and a label-0 summand splits into
    RealCharacter(0, t) + RealCharacter(1, t).  Summands are then sorted
    in the canonical total order.
    """

    __slots__ = ("side", "summands")

    def __init__(self, side: str, summands: Iterable[Summand]) -> None:
        _check_side(side)
        out: list[Summand] = []
        for s in summands:
            if s.side != side:
                raise SideMismatch(f"summand {s!r} does not live over side {side!r}")
            if isinstance(s, RealDiscreteSummand) and s.ell < 1:
                if s.ell == 0:
                    out += (RealCharacter(0, s.t), RealCharacter(1, s.t))
                    continue
                s = RealDiscreteSummand(-s.ell, s.t)
            out.append(s)
        if not out:
            raise InvalidN("a parameter needs at least one summand")
        out.sort(key=_summand_key)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "summands", tuple(out))

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)

    def __add__(self, other: "LParameter") -> "LParameter":
        if not isinstance(other, LParameter):
            return NotImplemented
        if self.side != other.side:
            raise SideMismatch("cannot sum parameters over different sides")
        return LParameter(self.side, self.summands + other.summands)


def real_parameter(*summands: Summand) -> LParameter:
    return LParameter(REAL, tuple(summands))


def complex_parameter(*summands: Summand) -> LParameter:
    return LParameter(COMPLEX, tuple(summands))


def direct_sum(parameters: Iterable[LParameter]) -> LParameter:
    """Concatenate parameters over a common side into one direct sum."""
    parts = list(parameters)
    if not parts:
        raise InvalidN("direct_sum needs at least one parameter")
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def galois_conjugate(chi: ComplexCharacter) -> ComplexCharacter:
    """Precompose a character of C^* with complex conjugation: negates ell."""
    return ComplexCharacter(-chi.ell, chi.t)


def canonical_form(p: LParameter) -> LParameter:
    """The canonical multiset representative of ``p``: ``p`` itself.

    ``LParameter`` normalizes its summands when it is built, so this is
    the identity; it is kept as the named normal-form map of the API.
    """
    return p


def equivalent(a: LParameter, b: LParameter) -> bool:
    """Whether two parameters are equivalent (equal canonical multisets)."""
    if a.side != b.side:
        raise SideMismatch("cannot compare parameters over different sides")
    return a == b


def decompose(p: LParameter) -> tuple[Summand, ...]:
    """Multiset of canonical irreducible summands, in canonical order."""
    return p.summands


def restrict_to_C(p: LParameter) -> LParameter:
    """Restrict a parameter of W_R to the index-two subgroup C^*.

    A sign character (eps, t) restricts to chi_{0, 2t} (the sign twist
    dies and the scalar doubles under the change of norm), and a
    two-dimensional summand with label ell restricts to the conjugate
    pair chi_{ell, t} + chi_{-ell, t}.
    """
    if p.side != REAL:
        raise SideMismatch("restrict_to_C expects a parameter over R")
    out: list[Summand] = []
    for s in p.summands:
        if isinstance(s, RealCharacter):
            out.append(ComplexCharacter(0, 2 * s.t))
        else:
            out.append(ComplexCharacter(s.ell, s.t))
            out.append(ComplexCharacter(-s.ell, s.t))
    return LParameter(COMPLEX, tuple(out))


def induce_to_R(chi: ComplexCharacter) -> LParameter:
    """Induce a character of C^* to W_R.

    For ell != 0 the induced parameter is irreducible, the
    two-dimensional summand with label |ell|.  For ell = 0 it splits
    into the two sign characters at scalar t/2, the normalization that
    makes restrict_to_C(induce_to_R(chi)) = chi + galois_conjugate(chi)
    hold exactly.
    """
    if chi.ell != 0:
        summands: tuple[Summand, ...] = (RealDiscreteSummand(abs(chi.ell), chi.t),)
    else:
        half = chi.t / 2
        summands = (RealCharacter(0, half), RealCharacter(1, half))
    return LParameter(REAL, summands)


def hom_dim(a: LParameter, b: LParameter) -> int:
    """Dimension of the space of intertwiners between two parameters.

    Both are semisimple, so this is the inner product of multiplicity
    vectors over canonical irreducible summands.
    """
    if a.side != b.side:
        raise SideMismatch("hom_dim expects parameters over a common side")
    mult_a = Counter(a.summands)
    mult_b = Counter(b.summands)
    return sum(m * mult_b[s] for s, m in mult_a.items())
