"""K-theory of the reduced C*-algebras of GL(n, R) and GL(n, C).

Each non-cone component of the tempered dual is a euclidean space and
contributes one free generator in the degree matching its dimension mod
2; cone components contribute nothing.  The two graded pieces are free
abelian on closed-form generator families:

* GL(2q, R): degree q mod 2 has one generator per q-element set of
  distinct positive labels (all blocks of size 2); the other degree has
  one generator per (q-1)-element set together with the sign pair
  {id, sgn}.
* GL(2q+1, R): degree (q+1) mod 2 has one generator per q-element set
  of distinct positive labels times a choice of sign character; the
  other degree vanishes.
* GL(n, C): degree n mod 2 has one generator per n-element set of
  distinct integer labels; the other degree vanishes.

``k_group`` truncates the families at a label bound and returns a
``GradedKGroup`` that stores only (field, n, max_label).  Each degree's
generators form a one-block ``ComponentListing`` of distinct label sets,
built from the closed form above: the block is the only description of
the family.  Its size, the rank, is a binomial coefficient; its
components are built only when it is iterated; ``gen in listing``
checks one component's shape and labels against the block's ranges; and
the schema strings, read off the block, describe the untruncated
families.
``k_bc_hom`` and ``k_ai_hom`` build the base-change and
automorphic-induction maps on K-theory, with rules defined label-wise
so they extend beyond any truncation.  A rule returns the image terms
of one generator; ``apply_hom`` checks each term against the domain
listing and sums the images in one dict into one class.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from .dual import (
    Component,
    ComplexComponent,
    ComponentListing,
    ListingBlock,
    RealComponent,
    _check_bounds,
    component_sort_key,
    is_cone,
)
from .errors import DegreeMismatch, RingMismatch, UnknownGenerator
from .weil import COMPLEX, REAL, _Value, _check_int, _check_side, _is_int

RING_U1 = "U(1)"
RING_Z2 = "Z/2Z"

# the image of one generator under a rule: (generator, coefficient) terms, empty for zero
ImageTerms = tuple[tuple[Component, int], ...]


def _check_degree(degree: int) -> int:
    if degree not in (0, 1):
        raise DegreeMismatch(f"degree must be 0 or 1, got {degree!r}")
    return degree


def _normalized(terms, sort_key, check_key=None) -> tuple:
    """``terms``, (key, coefficient) pairs or a mapping, in normal form:
    coefficients checked, those of equal keys summed, zeros dropped, the
    rest sorted by ``sort_key``.  ``check_key`` sees each key before it is
    hashed; a mapping without one has distinct keys already and is not copied."""
    acc = terms
    if check_key is not None or not isinstance(terms, Mapping):
        acc = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if check_key is not None:
                check_key(key)
            acc[key] = acc.get(key, 0) + _check_int(coeff, "coefficients")
    kept = ((key, coeff) for key, coeff in acc.items() if _check_int(coeff, "coefficients"))
    return tuple(sorted(kept, key=sort_key))


def _coefficient(terms, key) -> int:
    return next((coeff for k, coeff in terms if k == key), 0)


class KClass(_Value):
    """Integer combination of component generators in one degree.

    Terms are normalized on construction: coefficients of equal
    generators are combined, zero terms dropped, and the rest sorted by
    the component order, so structural equality is semantic equality.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=()) -> None:
        object.__setattr__(self, "degree", _check_degree(degree))
        object.__setattr__(self, "terms", _normalized(terms, lambda term: component_sort_key(term[0])))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, gen: Component) -> int:
        return _coefficient(self.terms, gen)

    def __add__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatch("cannot add classes of different degrees")
        return KClass(self.degree, self.terms + other.terms)

    def __neg__(self) -> "KClass":
        return KClass(self.degree, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "KClass":
        return KClass(self.degree, tuple((g, scalar * c) for g, c in self.terms))


# schema text after "one generator per k-element set of distinct ", by the
# block's sign slot count r (None over C)
_SCHEMA_TAIL = {
    0: "positive discrete labels (r = 0 components)",
    1: "positive discrete labels and a sign character id or sgn (r = 1 components)",
    2: "positive discrete labels with the sign pair {id, sgn} (r = 2 components)",
    None: "integer labels (components with trivial isotropy)",
}


class GradedKGroup(_Value):
    """The two K-groups of one reduced group C*-algebra, truncated at a label bound.

    Only (field, n, max_label) is stored: each degree's generators are one
    ``ListingBlock`` of distinct label sets, built from the closed form when
    asked for, and its ranges give the rank, the schema and membership.
    """

    __slots__ = ("field", "n", "max_label")

    def listing(self, degree: int) -> ComponentListing:
        """The generators of one degree, in ``component_sort_key`` order, unbuilt."""
        _check_degree(degree)
        n, positive = self.n, range(1, self.max_label + 1)
        q = n // 2
        # combinations of an increasing range come out in lexicographic order;
        # a real block's sign splits are (i, r - i) for i in its id counts
        if self.field == COMPLEX:
            if degree != n % 2:
                return ComponentListing()
            block = ListingBlock(None, range(0), range(-self.max_label, self.max_label + 1), n, False)
        elif n % 2:
            if degree != (q + 1) % 2:
                return ComponentListing()
            block = ListingBlock(1, range(1, -1, -1), positive, q, False)
        elif degree == q % 2:
            block = ListingBlock(0, range(0, -1, -1), positive, q, False)
        else:
            block = ListingBlock(2, range(1, 0, -1), positive, q - 1, False)
        return ComponentListing((block,))

    def rank(self, degree: int) -> int:
        return self.listing(degree).size

    def schema(self, degree: int) -> str:
        blocks = self.listing(degree).blocks
        if not blocks:
            return "0"
        (block,) = blocks
        return f"free abelian, one generator per {block.k}-element set of distinct {_SCHEMA_TAIL[block.r]}"

    def generators(self, degree: int) -> tuple[Component, ...]:
        return tuple(self.listing(degree))


def k_ranks_component(c: Component) -> tuple[int, int]:
    """(rank in degree 0, rank in degree 1) contributed by one component."""
    if is_cone(c):
        return (0, 0)
    return (1, 0) if c.dim % 2 == 0 else (0, 1)


def k_group(field_name: str, n: int, max_label: int) -> GradedKGroup:
    """Both K-groups for GL(n) over the named field, labels bounded by max_label."""
    _check_bounds(n, max_label)
    return GradedKGroup(_check_side(field_name), n, max_label)


class KHomomorphism(_Value):
    """Graded-group map given by a label-wise rule: ``rule(degree, gen)`` is ``gen``'s image terms."""

    __slots__ = ("name", "domain", "codomain", "rule")
    _fields = __slots__[:3]  # maps are compared and shown without their rule

    def on_generator(self, degree: int, gen: Component) -> KClass:
        return apply_hom(self, KClass(degree, ((gen, 1),)))


def apply_hom(h: KHomomorphism, x: KClass) -> KClass:
    """Image of a K-class: its terms' images summed into one class; each must be a domain generator."""
    degree, generators, rule = x.degree, h.domain.listing(x.degree), h.rule
    acc: dict[Component, int] = {}
    for gen, coeff in x.terms:
        if gen not in generators:
            raise UnknownGenerator(f"{gen!r} is not a degree-{degree} domain generator")
        for image_gen, c in rule(degree, gen):
            acc[image_gen] = acc.get(image_gen, 0) + coeff * c
    return KClass(degree, acc)


def k_bc_hom(n: int, max_label: int) -> KHomomorphism:
    """Base change on K-theory: K of GL(n, C) to K of GL(n, R).

    Zero for n > 1.  For n = 1 the only nonzero values are in degree 1,
    where the label-0 generator goes to the sum of the id and sgn
    generators and every other character generator goes to 0.
    """
    domain = k_group(COMPLEX, n, max_label)
    codomain = k_group(REAL, n, max_label)
    target = ((RealComponent((), 1, 0), 1), (RealComponent((), 0, 1), 1))

    def rule(degree: int, gen: Component) -> ImageTerms:
        if n == 1 and degree == 1 and isinstance(gen, ComplexComponent) and gen.labels == (0,):
            return target
        return ()

    return KHomomorphism("base-change", domain, codomain, rule)


def k_ai_hom(n: int, max_label: int) -> KHomomorphism:
    """Automorphic induction on K-theory: K of GL(2n, R) to K of GL(n, C).

    In degree n mod 2 the generator made of n distinct discrete labels
    goes to the complex generator with the same labels; the sign-pair
    family in the other degree goes to 0.
    """
    # the codomain first, so a bad n is reported as given
    codomain = k_group(COMPLEX, n, max_label)
    domain = k_group(REAL, 2 * n, max_label)

    def rule(degree: int, gen: Component) -> ImageTerms:
        if degree == n % 2 and isinstance(gen, RealComponent) and gen.r == 0:
            return ((ComplexComponent.from_sorted(gen.discrete), 1),)
        return ()

    return KHomomorphism("automorphic-induction", domain, codomain, rule)


class RepRingElement(_Value):
    """Element of a character ring: R(U(1)) with integer labels, or
    R(Z/2Z) with labels "1" (trivial) and "eps" (sign)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: str, coeffs: Iterable[tuple[Union[int, str], int]] = ()) -> None:
        if ring not in (RING_U1, RING_Z2):
            raise RingMismatch(f"unknown ring {ring!r}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", _normalized(coeffs, self._label_key, self._check_label))

    def _check_label(self, label) -> None:
        if self.ring == RING_U1:
            if type(label) is not int and not _is_int(label):
                raise RingMismatch(f"R(U(1)) labels are integers, got {label!r}")
        elif label not in ("1", "eps"):
            raise RingMismatch(f'R(Z/2Z) labels are "1" or "eps", got {label!r}')

    def _label_key(self, item):
        label = item[0]
        return (0, label) if self.ring == RING_U1 else (0, 0 if label == "1" else 1)

    def coefficient(self, label) -> int:
        return _coefficient(self.coeffs, label)

    def __add__(self, other: "RepRingElement") -> "RepRingElement":
        if not isinstance(other, RepRingElement):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch("cannot add elements of different rings")
        return RepRingElement(self.ring, self.coeffs + other.coeffs)

    def __rmul__(self, scalar: int) -> "RepRingElement":
        return RepRingElement(self.ring, tuple((l, scalar * c) for l, c in self.coeffs))


def repring_bc(x: RepRingElement) -> RepRingElement:
    """Restriction map R(U(1)) to R(Z/2Z) underlying base change for n = 1.

    The trivial character (label 0) restricts to 1 + eps; every other
    character restricts to 0.  Matches k_bc_hom(1) under the dictionary
    label ell = character generator, 1 = id, eps = sgn.
    """
    if x.ring != RING_U1:
        raise RingMismatch("repring_bc expects an element of R(U(1))")
    c0 = x.coefficient(0)
    return RepRingElement(RING_Z2, (("1", c0), ("eps", c0)))
