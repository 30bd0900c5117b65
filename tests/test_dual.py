"""Tempered-dual components: Levi classes, isotropy, enumeration, points."""

import re
from collections import defaultdict
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    ComplexComponent,
    InvalidN,
    InvalidTruncation,
    IsotropyDescriptor,
    LabelMismatch,
    RealComponent,
    TemperedPoint,
    canonicalize_point,
    component_of,
    enumerate_components_complex,
    enumerate_components_real,
    is_cone,
    isotropy,
    levi_classes,
)
from temperedk import dual

from _strategies import complex_components, components, raw_points, real_components


# Levi classes

def test_levi_classes_examples():
    assert levi_classes(4) == [(2, 0), (1, 2), (0, 4)]
    assert levi_classes(1) == [(0, 1)]
    assert levi_classes(5) == [(2, 1), (1, 3), (0, 5)]


def test_levi_classes_partition_n():
    for n in range(1, 9):
        for q, r in levi_classes(n):
            assert q >= 0 and r >= 0 and 2 * q + r == n


def test_levi_classes_rejects_bad_n():
    with pytest.raises(InvalidN):
        levi_classes(0)


# isotropy and cones

def test_isotropy_examples():
    assert isotropy(RealComponent((3, 3))).factors == (2,)
    assert isotropy(RealComponent((5,), 1, 1)).trivial
    assert isotropy(ComplexComponent((1, 1, 2))).factors == (2,)
    assert isotropy(RealComponent((), 2, 1)).factors == (2,)
    assert isotropy(ComplexComponent((0, 0, 0))).order == 6


def test_isotropy_descriptor_validates():
    with pytest.raises(ValueError):
        IsotropyDescriptor((1,))
    assert IsotropyDescriptor(()).order == 1


def _fixing_permutations(labels):
    # brute force over the full symmetric group on the slots
    labels = tuple(labels)
    return sum(
        1
        for p in permutations(range(len(labels)))
        if tuple(labels[i] for i in p) == labels
    )


@given(real_components)
def test_isotropy_order_matches_bruteforce_real(comp):
    want = _fixing_permutations(comp.discrete) * _fixing_permutations(comp.signs)
    assert isotropy(comp).order == want


@given(complex_components)
def test_isotropy_order_matches_bruteforce_complex(comp):
    assert isotropy(comp).order == _fixing_permutations(comp.labels)


def test_is_cone_examples():
    assert is_cone(ComplexComponent((0, 0)))
    assert is_cone(RealComponent((), 2, 1))
    assert not is_cone(RealComponent((7,)))
    assert not is_cone(RealComponent((1, 2), 1, 1))


@given(components)
def test_is_cone_iff_nontrivial_isotropy(comp):
    assert is_cone(comp) == (not isotropy(comp).trivial)


# enumeration over R

def test_enumerate_real_gl2():
    comps = enumerate_components_real(2, 2)
    assert comps == [
        RealComponent((1,)),
        RealComponent((2,)),
        RealComponent((), 2, 0),
        RealComponent((), 1, 1),
        RealComponent((), 0, 2),
    ]


def test_enumerate_real_gl3_small_truncation():
    comps = enumerate_components_real(3, 1)
    assert len(comps) == 6
    assert comps[:2] == [RealComponent((1,), 1, 0), RealComponent((1,), 0, 1)]
    assert comps[2:] == [
        RealComponent((), 3, 0),
        RealComponent((), 2, 1),
        RealComponent((), 1, 2),
        RealComponent((), 0, 3),
    ]


def test_enumerate_real_gl1_ignores_truncation():
    assert enumerate_components_real(1, 1) == enumerate_components_real(1, 5)
    assert [c.signs for c in enumerate_components_real(1, 1)] == [("id",), ("sgn",)]


def test_enumerate_real_errors():
    with pytest.raises(InvalidTruncation):
        enumerate_components_real(2, 0)
    with pytest.raises(InvalidN):
        enumerate_components_real(0, 3)
    with pytest.raises(InvalidN):  # n is checked first
        enumerate_components_real(0, 0)


def test_enumerate_real_monotone_in_truncation():
    for n in (1, 2, 3, 4):
        previous = set()
        for L in (1, 2, 3, 4):
            current = set(enumerate_components_real(n, L))
            assert previous <= current
            previous = current


def test_enumerate_real_components_have_size_n():
    for n in (1, 2, 3, 4, 5):
        for c in enumerate_components_real(n, 3):
            assert c.n == n


# enumeration over C

def test_enumerate_complex_examples():
    assert [c.labels for c in enumerate_components_complex(1, 1)] == [(-1,), (0,), (1,)]
    assert len(enumerate_components_complex(2, 1)) == 6
    # the same truncation rule as over R: labels are bounded by max_label >= 1
    with pytest.raises(InvalidTruncation):
        enumerate_components_complex(1, 0)


def test_enumerate_complex_counts_are_multiset_binomials():
    for n in (1, 2, 3):
        for L in (1, 2, 3):
            size = 2 * L + 1
            assert len(enumerate_components_complex(n, L)) == comb(size + n - 1, n)


def test_enumerate_complex_errors():
    with pytest.raises(InvalidTruncation):
        enumerate_components_complex(2, -1)
    with pytest.raises(InvalidN):
        enumerate_components_complex(0, 2)
    with pytest.raises(InvalidN):  # n is checked first
        enumerate_components_complex(0, 0)


# listings

def _real_by_loop(n, L):
    # the enumeration loop the listing replaced, kept as the order reference
    out = []
    for q in range(n // 2, -1, -1):
        r = n - 2 * q
        for discrete in combinations_with_replacement(range(1, L + 1), q):
            for id_count in range(r, -1, -1):
                out.append(RealComponent(discrete, id_count, r - id_count))
    return out


def _complex_by_loop(n, L):
    return [ComplexComponent(c) for c in combinations_with_replacement(range(-L, L + 1), n)]


def test_component_listings_count_and_order():
    for field_name, sizes in (("R", range(1, 9)), ("C", range(1, 6))):
        for n in sizes:
            for L in range(1, 7):
                if field_name == "R":
                    listing = dual.real_components(n, L)
                    want = _real_by_loop(n, L)
                    # multisets of q labels from L, times the r + 1 sign splits
                    closed = sum(comb(L + q - 1, q) * (n - 2 * q + 1) for q in range(n // 2 + 1))
                else:
                    listing = dual.complex_components(n, L)
                    want = _complex_by_loop(n, L)
                    closed = comb(2 * L + n, n)
                assert listing.size == closed == len(want)
                assert list(listing) == want
                # re-iterable: a second pass gives the same components
                assert list(listing) == want
    assert dual.enumerate_components_real(4, 3) == _real_by_loop(4, 3)
    assert dual.enumerate_components_complex(3, 2) == _complex_by_loop(3, 2)


def test_listing_blocks():
    block = dual.ListingBlock(1, range(1, -1, -1), range(1, 5), 2, False)
    assert [(i, block.r - i) for i in block.id_counts] == [(1, 0), (0, 1)]
    assert block.size == len(list(block)) == 2 * comb(4, 2)
    assert list(block.label_sets())[:2] == [(1, 2), (1, 3)]
    assert block.components((1, 2)) == (RealComponent((1, 2), 1, 0), RealComponent((1, 2), 0, 1))
    complex_block = dual.ListingBlock(None, range(0), range(-1, 2), 2, True)
    assert complex_block.r is None and complex_block.size == comb(4, 2)
    assert list(complex_block)[:2] == [ComplexComponent((-1, -1)), ComplexComponent((-1, 0))]
    empty = dual.ComponentListing()
    assert empty.size == 0 and list(empty) == []
    # more labels than the range holds: no rows
    assert list(dual.ListingBlock(None, range(0), range(1, 3), 3, False)) == []
    # a count past sys.maxsize is exact
    assert dual.complex_components(100, 1000).size == comb(2100, 100)


def test_capped_counts_are_exact_up_to_the_cap():
    for m in range(12):
        for k in range(m + 3):
            for cap in (0, 1, 7, 100):
                got, exact = dual._comb(m, k, cap), comb(m, k)
                assert (got == exact) if exact <= cap else (got > cap)
    for listing in (dual.real_components(6, 4), dual.complex_components(3, 2), dual.ComponentListing()):
        assert listing.count(listing.size) == listing.size == listing.count()
        if listing.size:
            assert listing.count(listing.size - 1) > listing.size - 1
    # C(2100, 100) has 179 digits; the capped count stops a few steps past the cap
    assert 10**6 < dual.complex_components(100, 1000).count(10**6) < 10**6 * 2200


def test_large_real_listing_is_counted_from_its_blocks():
    # one block per Levi class, holding r and a range of id counts, not the
    # r + 1 sign splits: 5,001 blocks count 25,010,001 components
    n = 10**4
    listing = dual.real_components(n, 1)
    assert len(listing.blocks) == n // 2 + 1
    assert all(block.id_counts == range(block.r, -1, -1) for block in listing.blocks)
    assert listing.size == sum(n - 2 * q + 1 for q in range(n // 2 + 1)) == 25_010_001


@pytest.mark.parametrize("n", range(1, 7))
def test_listing_membership_matches_its_components(n):
    for L in range(1, 5):
        # labels one past the bound, the other field and a neighbouring n
        universe = [*dual.real_components(n, L + 1), *dual.complex_components(n, L + 1),
                    *dual.real_components(n + 1, 1), *dual.complex_components(n + 1, 1)]
        for listing in (dual.real_components(n, L), dual.complex_components(n, L)):
            listed = set(listing)
            for c in universe:
                assert (c in listing) == (c in listed)
            assert None not in listing and (1,) * n not in listing


def test_listing_membership_lists_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("components were listed")

    # every listing draws its label sets from these two
    monkeypatch.setattr(dual, "combinations", refuse)
    monkeypatch.setattr(dual, "combinations_with_replacement", refuse)
    real = dual.real_components(10**4, 1)
    assert RealComponent((1,) * 4000, 700, 1300) in real
    assert RealComponent((), 10**4, 0) in real
    assert RealComponent((2,) * 4000, 700, 1300) not in real
    assert RealComponent((1,) * 4000, 700, 1301) not in real
    complex_ = dual.complex_components(100, 1000)
    assert ComplexComponent(range(-1000, -900)) in complex_
    assert ComplexComponent((7,) * 100) in complex_
    assert ComplexComponent((0,) * 99 + (1001,)) not in complex_
    assert ComplexComponent((0,) * 99) not in complex_
    assert RealComponent((1,) * 50) not in complex_


# counting non-cone components

def test_noncone_counts_match_closed_forms():
    for n in range(1, 7):
        q = n // 2
        for L in range(1, 6):
            kept = [c for c in enumerate_components_real(n, L) if not is_cone(c)]
            if n % 2 == 0:
                assert len(kept) == comb(L, q) + comb(L, q - 1)
            else:
                assert len(kept) == 2 * comb(L, q)


def test_pure_sign_components_are_cones_from_gl3_on():
    # three or more 1-blocks force a repeated sign character
    for n in range(3, 7):
        for c in enumerate_components_real(n, 2):
            if c.q == 0:
                assert is_cone(c)


# points

def test_canonicalize_point_sorts_discrete_before_signs():
    comp = RealComponent((2,), 1, 0)
    raw = TemperedPoint(comp, (("id", 5), (2, 0)))
    assert canonicalize_point(raw).coords == ((2, F(0)), ("id", F(5)))


def test_canonicalize_point_orders_signs():
    comp = RealComponent((), 1, 1)
    raw = TemperedPoint(comp, (("sgn", 3), ("id", 1)))
    assert canonicalize_point(raw).coords == (("id", F(1)), ("sgn", F(3)))


def test_canonicalize_point_complex_orbit_representative():
    comp = ComplexComponent((-1, 2, 2))
    raw = TemperedPoint(comp, ((2, 9), (-1, 0), (2, -4)))
    assert canonicalize_point(raw).coords == ((-1, F(0)), (2, F(-4)), (2, F(9)))


def test_canonicalize_point_sorts_equal_labels_by_scalar():
    comp = RealComponent((1, 1))
    raw = TemperedPoint(comp, ((1, 3), (1, 0)))
    assert canonicalize_point(raw).coords == ((1, F(0)), (1, F(3)))


def test_canonicalize_point_label_mismatch():
    comp = RealComponent((2,), 1, 0)
    with pytest.raises(LabelMismatch):
        canonicalize_point(TemperedPoint(comp, ((3, 0), ("id", 1))))
    with pytest.raises(LabelMismatch):
        canonicalize_point(TemperedPoint(comp, ((2, 0),)))
    with pytest.raises(LabelMismatch):
        canonicalize_point(TemperedPoint(comp, ((2, 0), ("sgn", 1))))


@given(raw_points())
def test_canonicalize_point_idempotent(pt):
    c = canonicalize_point(pt)
    assert canonicalize_point(c) == c


@given(raw_points(), st.randoms(use_true_random=False))
def test_canonicalize_point_invariant_under_slot_shuffles(pt, rng):
    coords = list(pt.coords)
    rng.shuffle(coords)
    other = TemperedPoint(pt.component, tuple(coords))
    assert canonicalize_point(other) == canonicalize_point(pt)
    # normal form is reached at construction: the shuffled point is equal
    assert other == pt


@given(raw_points(), st.randoms(use_true_random=False))
def test_canonicalize_point_invariant_under_weyl_action(pt, rng):
    # permute scalars among slots that carry the same label
    by_label = defaultdict(list)
    for label, t in pt.coords:
        by_label[label].append(t)
    coords = []
    for label, ts in by_label.items():
        rng.shuffle(ts)
        coords.extend((label, t) for t in ts)
    other = TemperedPoint(pt.component, tuple(coords))
    assert canonicalize_point(other) == canonicalize_point(pt)


def test_component_of():
    comp = ComplexComponent((0, 4))
    pt = TemperedPoint(comp, ((0, 1), (4, 2)))
    assert component_of(pt) == comp


def test_component_validation():
    assert RealComponent((3, 1), 1, 0).discrete == (1, 3)
    for bad in ((0,), (3, 0), (2, -1, 5)):
        with pytest.raises(ValueError, match="labels must be >= 1"):
            RealComponent(bad)
    for counts in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            RealComponent((1,), *counts)
    with pytest.raises(InvalidN):
        RealComponent(())
    assert RealComponent((), 0, 1).n == 1 and RealComponent((4,)).n == 2
    with pytest.raises(InvalidN):
        ComplexComponent(())


def test_component_labels_must_be_integers():
    for bad in (1.5, 2.0, True, False, "2", F(3)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RealComponent((1, bad))
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            ComplexComponent((bad, 2))
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            ComplexComponent((bad,))
    # any iterable of ints is accepted and stored sorted
    assert RealComponent(iter([3, 1])).discrete == (1, 3)
    assert ComplexComponent([2, -1]).labels == (-1, 2)


def test_sign_counts_must_be_integers():
    for bad in (1.5, 1.0, True, False, "1", F(1), None):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RealComponent((), bad, 0)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RealComponent((2,), 0, bad)


def test_point_rejects_bad_labels():
    comp = RealComponent((), 1, 0)
    with pytest.raises(ValueError):
        TemperedPoint(comp, (("flip", 1),))
    # labels that do not match the component's slots fail at construction
    with pytest.raises(LabelMismatch):
        TemperedPoint(comp, (("sgn", 1),))
    with pytest.raises(LabelMismatch):
        TemperedPoint(RealComponent((2,), 1, 0), ((2, 0), ("id", 1), ("id", 2)))
