"""Connected components of the tempered duals of GL(n, R) and GL(n, C).

A component over R is indexed by a Levi class (q blocks of size 2, r
blocks of size 1, n = 2q + r), a multiset of q positive discrete-series
labels and a multiset of r sign characters.  Over C a component is a
multiset of n integer character labels.  Each component is a quotient
of a real vector space (one scalar per block) by the finite group
permuting equal labels; when that isotropy is nontrivial the component
is a closed cone and contributes nothing to K-theory.

Families of components are listed by a ``ComponentListing``: a
re-iterable value made of blocks, each the k-element label sets (or
multisets) of one range, every set taken with each sign split of the
block.  Its ``size`` is a sum of binomial coefficients (``count(cap)``
stops multiplying once past a cap) and ``in`` checks a component against
each block's ranges, so a listing is counted and searched without
building it; ``enumerate_components_real`` and
``enumerate_components_complex`` are lists of the listings that
``real_components`` and ``complex_components`` return.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import comb, factorial
from typing import Iterable, Iterator, Union

from .errors import InvalidLabel, InvalidN, InvalidTruncation, LabelMismatch
from .weil import _Value, _check_int, _is_int

SIGN_ID = "id"
SIGN_SGN = "sgn"
# sign slot labels, indexed by the sign twist eps of the character
SIGNS = (SIGN_ID, SIGN_SGN)

SlotLabel = Union[int, str]


def _sorted_labels(labels) -> tuple[int, ...]:
    """``labels`` as a sorted tuple; TypeError naming a label that is not an int."""
    labels = list(labels)
    for label in labels:
        if type(label) is not int:
            _check_int(label, "component labels")
    labels.sort()
    return tuple(labels)


class RealComponent(_Value):
    """Component of the tempered dual of GL(n, R).

    ``discrete`` holds the q discrete-series labels (sorted, each >= 1)
    and the sign characters are stored as counts, id_count + sgn_count = r.
    """

    __slots__ = ("discrete", "id_count", "sgn_count")
    field = "R"

    def __init__(self, discrete, id_count: int = 0, sgn_count: int = 0) -> None:
        discrete = _sorted_labels(discrete)
        # sorted, so the first label is the least
        if discrete and discrete[0] < 1:
            raise InvalidLabel("discrete-series labels must be >= 1")
        if _check_int(id_count, "sign counts") < 0 or _check_int(sgn_count, "sign counts") < 0:
            raise InvalidN("sign counts must be nonnegative")
        if not (discrete or id_count + sgn_count):
            raise InvalidN("a component needs n >= 1")
        object.__setattr__(self, "discrete", discrete)
        object.__setattr__(self, "id_count", id_count)
        object.__setattr__(self, "sgn_count", sgn_count)

    @property
    def q(self) -> int:
        return len(self.discrete)

    @property
    def r(self) -> int:
        return self.id_count + self.sgn_count

    @property
    def n(self) -> int:
        return 2 * self.q + self.r

    @property
    def dim(self) -> int:
        # one unramified scalar per block
        return self.q + self.r

    @property
    def signs(self) -> tuple[str, ...]:
        return (SIGN_ID,) * self.id_count + (SIGN_SGN,) * self.sgn_count


class ComplexComponent(_Value):
    """Component of the tempered dual of GL(n, C): n character labels."""

    __slots__ = ("labels",)
    field = "C"

    def __init__(self, labels) -> None:
        labels = _sorted_labels(labels)
        if not labels:
            raise InvalidN("a component needs n >= 1")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_sorted(cls, labels: tuple[int, ...]) -> "ComplexComponent":
        """The component with ``labels``, already a nonempty sorted tuple of ints: no checks."""
        c = object.__new__(cls)
        object.__setattr__(c, "labels", labels)
        return c

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.n


Component = Union[RealComponent, ComplexComponent]


def component_sort_key(c: Component):
    """Deterministic total order on components, used for generator lists."""
    if isinstance(c, RealComponent):
        return ("R", len(c.discrete), c.discrete, c.sgn_count, c.id_count)
    return ("C", c.labels)


class IsotropyDescriptor(_Value):
    """Cycle type of the finite group permuting equal labels of a component.

    ``factors`` lists the multiplicities >= 2; the group is the product
    of the corresponding symmetric groups.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[int]) -> None:
        factors = tuple(sorted(factors))
        if any(m < 2 for m in factors):
            raise InvalidN("isotropy factors must be >= 2")
        object.__setattr__(self, "factors", factors)

    @property
    def trivial(self) -> bool:
        return not self.factors

    @property
    def order(self) -> int:
        out = 1
        for m in self.factors:
            out *= factorial(m)
        return out


def _coord_key(coord: tuple[SlotLabel, Fraction]):
    label, t = coord
    if isinstance(label, str):
        return (1, 0 if label == SIGN_ID else 1, t)
    return (0, label, t)


class TemperedPoint(_Value):
    """A tempered representation: a component plus one scalar per block.

    ``coords`` pairs each slot label with its scalar.  The slots may be
    given in any order; they are stored sorted, discrete slots first (by
    label, then scalar) and sign slots after (id before sgn, then
    scalar).  Among equal labels the scalars end up nondecreasing, which
    picks one representative per isotropy orbit.  The labels must match
    the component's slots (``LabelMismatch`` otherwise).
    """

    __slots__ = ("component", "coords")

    def __init__(self, component: Component, coords) -> None:
        fixed = []
        for label, t in coords:
            if type(label) is not int and not _is_int(label) and label not in SIGNS:
                raise LabelMismatch(f"bad coordinate label {label!r}")
            fixed.append((label, Fraction(t)))
        fixed.sort(key=_coord_key)
        # sorted slot labels of the component, in the order _coord_key gives
        slots = (component.discrete + component.signs if isinstance(component, RealComponent)
                 else component.labels)
        labels = tuple(label for label, _ in fixed)
        if labels != slots:
            raise LabelMismatch(
                f"coordinate labels {list(labels)} do not match component slots {list(slots)}"
            )
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "coords", tuple(fixed))


def _check_bounds(n: int, max_label: int = 1) -> None:
    """InvalidN unless n >= 1, then InvalidTruncation unless max_label >= 1."""
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    if max_label < 1:
        raise InvalidTruncation(f"max_label must be >= 1, got {max_label}")


def levi_classes(n: int) -> list[tuple[int, int]]:
    """All Levi classes 2^q 1^r of GL(n) as (q, r) pairs, q descending from n // 2 to 0."""
    _check_bounds(n)
    return [(q, n - 2 * q) for q in range(n // 2, -1, -1)]


def isotropy(c: Component) -> IsotropyDescriptor:
    """Isotropy of a generic point of the component (repeated-label data)."""
    factors = []
    if isinstance(c, RealComponent):
        factors.extend(m for m in Counter(c.discrete).values() if m >= 2)
        if c.id_count >= 2:
            factors.append(c.id_count)
        if c.sgn_count >= 2:
            factors.append(c.sgn_count)
    else:
        factors.extend(m for m in Counter(c.labels).values() if m >= 2)
    return IsotropyDescriptor(tuple(factors))


def is_cone(c: Component) -> bool:
    """Whether the component is a closed cone (nontrivial isotropy)."""
    return not isotropy(c).trivial


def _comb(m: int, k: int, cap=None) -> int:
    """C(m, k); given a cap, the multiplication stops at the first C(m - k + j, j) past it, which
    is at most C(m, k), so at most about log2(cap) steps are taken."""
    if cap is None or not 0 <= k <= m:
        return comb(m, k)
    k, value = min(k, m - k), 1
    for j in range(1, k + 1):
        # C(m - k + j, j) grows with j, at least doubling while j <= k <= m - k
        value = value * (m - k + j) // j
        if value > cap:
            break
    return value


class ListingBlock(_Value):
    """One row family of a listing.

    A row is a k-element set of labels drawn from ``labels`` (a multiset
    when ``repeat``), in lexicographic order.  Over C (``r`` None) it
    stands for one ``ComplexComponent``; over R for one
    ``RealComponent`` with r sign slots per id count i in ``id_counts``,
    the sign split (i, r - i).  A block is a few ints and ranges, so it
    is built in constant time whatever r is.
    """

    __slots__ = ("r", "id_counts", "labels", "k", "repeat")

    def count(self, cap=None) -> int:
        """The number of components, from binomial coefficients; given a cap, a number
        past the cap may stand for a larger count."""
        m = len(self.labels)
        sets = _comb(m + self.k - 1, self.k, cap) if self.repeat else _comb(m, self.k, cap)
        return sets if self.r is None else sets * len(self.id_counts)

    size = property(count)

    def label_sets(self) -> Iterator[tuple[int, ...]]:
        """The label sets of the rows, in order."""
        pick = combinations_with_replacement if self.repeat else combinations
        return pick(self.labels, self.k)

    def components(self, labels: tuple[int, ...]) -> tuple[Component, ...]:
        """The components of the row with these labels, in order."""
        if self.r is None:
            return (ComplexComponent(labels),)
        return tuple(RealComponent(labels, i, self.r - i) for i in self.id_counts)

    def __iter__(self) -> Iterator[Component]:
        for labels in self.label_sets():
            yield from self.components(labels)

    def __contains__(self, c) -> bool:
        """Whether ``c`` is a component of a row, from its shape and labels alone."""
        if self.r is None:
            if not isinstance(c, ComplexComponent):
                return False
            labels = c.labels
        elif isinstance(c, RealComponent) and c.r == self.r and c.id_count in self.id_counts:
            labels = c.discrete
        else:
            return False
        # labels are sorted when a component is built, so the end labels bound the rest
        k, bound = self.k, self.labels
        return len(labels) == k and (not k or labels[0] in bound and labels[-1] in bound
                                     and (self.repeat or len(set(labels)) == k))


class ComponentListing(_Value):
    """A re-iterable listing of components, block after block.

    ``size`` is the count, a sum of binomial coefficients; ``in`` asks
    each block; iterating builds the components one at a time.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[ListingBlock, ...] = ()) -> None:
        object.__setattr__(self, "blocks", blocks)

    def count(self, cap=None) -> int:
        """The sum of the blocks' counts, each given the cap."""
        return sum(block.count(cap) for block in self.blocks)

    size = property(count)

    def __iter__(self) -> Iterator[Component]:
        return chain.from_iterable(self.blocks)

    def __contains__(self, c) -> bool:
        for block in self.blocks:
            if c in block:
                return True
        return False


def real_components(n: int, max_label: int) -> ComponentListing:
    """All components of the tempered dual of GL(n, R) with labels <= max_label.

    Deterministic order: Levi classes with q descending, discrete
    multisets lexicographic, then sign splits {id..id} .. {sgn..sgn}.
    """
    _check_bounds(n, max_label)
    labels = range(1, max_label + 1)
    return ComponentListing(tuple(
        ListingBlock(r, range(r, -1, -1), labels, q, True) for q, r in levi_classes(n)
    ))


def complex_components(n: int, max_label: int) -> ComponentListing:
    """All components for GL(n, C) with labels in [-max_label, max_label]."""
    _check_bounds(n, max_label)
    return ComponentListing((ListingBlock(None, range(0), range(-max_label, max_label + 1), n, True),))


def enumerate_components_real(n: int, max_label: int) -> list[RealComponent]:
    """``real_components(n, max_label)`` as a list."""
    return list(real_components(n, max_label))


def enumerate_components_complex(n: int, max_label: int) -> list[ComplexComponent]:
    """``complex_components(n, max_label)`` as a list."""
    return list(complex_components(n, max_label))


def canonicalize_point(p: TemperedPoint) -> TemperedPoint:
    """The orbit representative of ``p``: ``p`` itself.

    ``TemperedPoint`` sorts and checks its coords when it is built, so
    this is the identity; it is kept as the named normal-form map of the
    API.
    """
    return p


def component_of(p: TemperedPoint) -> Component:
    return p.component
