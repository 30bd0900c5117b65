"""The tempered correspondence and functorial maps on points.

``llc_real`` / ``llc_complex`` translate a Weil-group parameter into a
point of the tempered dual (and back with the ``_inv`` versions): each
two-dimensional summand fills a discrete slot, each character a sign or
character slot.  ``base_change_point`` restricts along C/R (a real point
of GL(n) goes to a complex point of GL(n)); ``auto_induce_point``
induces (a complex point of GL(n) goes to a real point of GL(2n)).
Parameters and points are in normal form from construction, so every
map is well defined on slot permutation orbits and builds its result
once.
"""

from __future__ import annotations

from .dual import (
    SIGN_ID,
    SIGN_SGN,
    SIGNS,
    ComplexComponent,
    RealComponent,
    TemperedPoint,
)
from .errors import SideMismatch
from .weil import (
    COMPLEX,
    REAL,
    ComplexCharacter,
    LParameter,
    RealCharacter,
    RealDiscreteSummand,
)


def llc_real(p: LParameter) -> TemperedPoint:
    """Tempered point of GL(n, R) attached to an n-dimensional parameter."""
    if p.side != REAL:
        raise SideMismatch("llc_real expects a parameter over R")
    discrete, coords = [], []
    sign_counts = [0, 0]
    for s in p.summands:
        if isinstance(s, RealDiscreteSummand):
            discrete.append(s.ell)
            coords.append((s.ell, s.t))
        else:
            sign_counts[s.eps] += 1
            coords.append((SIGNS[s.eps], s.t))
    comp = RealComponent(tuple(discrete), *sign_counts)
    return TemperedPoint(comp, tuple(coords))


def llc_real_inv(p: TemperedPoint) -> LParameter:
    """Parameter attached to a tempered point of GL(n, R)."""
    if not isinstance(p.component, RealComponent):
        raise SideMismatch("llc_real_inv expects a point over R")
    summands = tuple(
        RealCharacter(SIGNS.index(label), t) if isinstance(label, str)
        else RealDiscreteSummand(label, t)
        for label, t in p.coords
    )
    return LParameter(REAL, summands)


def llc_complex(p: LParameter) -> TemperedPoint:
    """Tempered point of GL(n, C) attached to an n-dimensional parameter."""
    if p.side != COMPLEX:
        raise SideMismatch("llc_complex expects a parameter over C")
    comp = ComplexComponent(tuple(s.ell for s in p.summands))
    return TemperedPoint(comp, tuple((s.ell, s.t) for s in p.summands))


def llc_complex_inv(p: TemperedPoint) -> LParameter:
    """Parameter attached to a tempered point of GL(n, C)."""
    if not isinstance(p.component, ComplexComponent):
        raise SideMismatch("llc_complex_inv expects a point over C")
    return LParameter(COMPLEX, tuple(ComplexCharacter(label, t) for label, t in p.coords))


def base_change_point(p: TemperedPoint) -> TemperedPoint:
    """Base change along C/R on tempered points, GL(n, R) to GL(n, C).

    A discrete slot (ell, t) contributes the conjugate pair of character
    slots (ell, t), (-ell, t); a sign slot (tau, t) contributes the
    single slot (0, 2t).  Matches restriction of parameters under the
    correspondence on both sides.
    """
    if not isinstance(p.component, RealComponent):
        raise SideMismatch("base_change_point expects a point over R")
    coords = []
    for label, t in p.coords:
        if isinstance(label, str):
            coords.append((0, 2 * t))
        else:
            coords.append((label, t))
            coords.append((-label, t))
    comp = ComplexComponent(tuple(label for label, _ in coords))
    return TemperedPoint(comp, tuple(coords))


def auto_induce_point(p: TemperedPoint) -> TemperedPoint:
    """Automorphic induction on tempered points, GL(n, C) to GL(2n, R).

    A character slot (ell, t) with ell != 0 fills the discrete slot
    (|ell|, t); a slot (0, t) fills the sign pair (id, t/2), (sgn, t/2).
    Matches induction of parameters under the correspondence.
    """
    if not isinstance(p.component, ComplexComponent):
        raise SideMismatch("auto_induce_point expects a point over C")
    discrete, coords = [], []
    zeros = 0
    for label, t in p.coords:
        if label == 0:
            zeros += 1
            coords.append((SIGN_ID, t / 2))
            coords.append((SIGN_SGN, t / 2))
        else:
            discrete.append(abs(label))
            coords.append((abs(label), t))
    comp = RealComponent(tuple(discrete), zeros, zeros)
    return TemperedPoint(comp, tuple(coords))
