"""Weil-parameter calculus: canonical forms, restriction, induction, hom spaces."""

import re
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    ComplexCharacter,
    InvalidN,
    LParameter,
    RealCharacter,
    RealDiscreteSummand,
    SideMismatch,
    canonical_form,
    complex_parameter,
    decompose,
    direct_sum,
    equivalent,
    galois_conjugate,
    hom_dim,
    induce_to_R,
    real_parameter,
    restrict_to_C,
)

from _strategies import (
    complex_characters,
    parameter_pairs,
    parameters,
    real_parameters,
)


# galois conjugation

def test_galois_conjugate_negates_label():
    assert galois_conjugate(ComplexCharacter(3, F(1, 2))) == ComplexCharacter(-3, F(1, 2))
    assert galois_conjugate(ComplexCharacter(0, 7)) == ComplexCharacter(0, 7)
    assert galois_conjugate(ComplexCharacter(-2, -1)) == ComplexCharacter(2, -1)


@given(complex_characters)
def test_galois_conjugate_is_an_involution(chi):
    assert galois_conjugate(galois_conjugate(chi)) == chi


# canonical forms

def test_canonical_form_flips_negative_labels():
    p = real_parameter(RealDiscreteSummand(-3, 1))
    assert canonical_form(p).summands == (RealDiscreteSummand(3, 1),)


def test_canonical_form_splits_label_zero():
    p = real_parameter(RealDiscreteSummand(0, 5))
    assert canonical_form(p).summands == (RealCharacter(0, 5), RealCharacter(1, 5))


def test_canonical_form_sorts_characters_first():
    p = real_parameter(RealDiscreteSummand(1, 0), RealCharacter(1, 2))
    assert canonical_form(p).summands == (RealCharacter(1, 2), RealDiscreteSummand(1, 0))


def test_canonical_form_orders_within_families():
    p = complex_parameter(
        ComplexCharacter(2, 0), ComplexCharacter(-1, 3), ComplexCharacter(2, -1)
    )
    assert canonical_form(p).summands == (
        ComplexCharacter(-1, 3),
        ComplexCharacter(2, -1),
        ComplexCharacter(2, 0),
    )


@given(parameters)
def test_canonical_form_idempotent(p):
    c = canonical_form(p)
    assert canonical_form(c) == c


@given(real_parameters)
def test_canonical_form_leaves_only_positive_labels(p):
    for s in canonical_form(p).summands:
        if isinstance(s, RealDiscreteSummand):
            assert s.ell >= 1


@given(parameters)
def test_canonical_form_preserves_dimension(p):
    assert canonical_form(p).dim == p.dim


# equivalence

def test_equivalent_identifies_opposite_labels():
    assert equivalent(
        real_parameter(RealDiscreteSummand(2, 0)),
        real_parameter(RealDiscreteSummand(-2, 0)),
    )


def test_equivalent_ignores_summand_order():
    a = real_parameter(RealCharacter(0, 1), RealCharacter(1, 2))
    b = real_parameter(RealCharacter(1, 2), RealCharacter(0, 1))
    assert equivalent(a, b)


def test_parameters_live_over_one_side():
    with pytest.raises(SideMismatch, match="side must be 'R' or 'C', got 'Q'"):
        LParameter("Q", (RealCharacter(0, 0),))
    with pytest.raises(SideMismatch, match="does not live over side 'C'"):
        LParameter("C", (ComplexCharacter(1, 0), RealCharacter(0, 0)))
    with pytest.raises(SideMismatch, match="cannot sum parameters over different sides"):
        real_parameter(RealCharacter(0, 0)) + complex_parameter(ComplexCharacter(0, 0))
    assert real_parameter(RealCharacter(0, 0)).__add__(1) is NotImplemented


def test_direct_sum_of_nothing():
    with pytest.raises(InvalidN, match="direct_sum needs at least one parameter"):
        direct_sum([])


# values that are not integers, bool included; float and Fraction compare equal to 1
NOT_INTS = (1.5, 1.0, True, False, "1", F(1), None)


def test_complex_character_label_must_be_an_integer():
    for bad in NOT_INTS:
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            ComplexCharacter(bad, 0)


def test_real_character_eps_must_be_an_integer():
    for bad in NOT_INTS:
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RealCharacter(bad, 0)


def test_discrete_summand_label_must_be_an_integer():
    for bad in NOT_INTS:
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RealDiscreteSummand(bad, 0)


def test_conjugate_complex_characters_are_inequivalent():
    # GL(1,C) conjugation is trivial, so chi_{1,0} and chi_{-1,0} stay apart
    a = complex_parameter(ComplexCharacter(1, 0))
    b = complex_parameter(ComplexCharacter(-1, 0))
    assert not equivalent(a, b)


def test_equivalent_needs_a_common_side():
    with pytest.raises(SideMismatch):
        equivalent(
            real_parameter(RealCharacter(0, 0)),
            complex_parameter(ComplexCharacter(0, 0)),
        )


def _equivalent_by_permutation(a, b):
    # independent oracle: two semisimple parameters are conjugate iff some
    # permutation matches their canonical summand lists entrywise
    xs, ys = decompose(a), decompose(b)
    if len(xs) != len(ys):
        return False
    return any(tuple(xs[i] for i in p) == ys for p in permutations(range(len(xs))))


@given(parameter_pairs)
def test_equivalent_matches_permutation_oracle(pair):
    a, b = pair
    assert equivalent(a, b) == _equivalent_by_permutation(a, b)


@st.composite
def _parameter_with_shuffle(draw):
    p = draw(parameters)
    shuffled = draw(st.permutations(list(p.summands)))
    return p, LParameter(p.side, tuple(shuffled))


@given(_parameter_with_shuffle())
def test_equivalence_relation_properties(pair):
    p, q = pair
    c = canonical_form(p)
    assert equivalent(p, p)
    assert equivalent(p, q) and equivalent(q, p)
    # normal form is reached at construction: the shuffled parameter is equal
    assert p == q
    # transitivity across the chain p ~ q ~ canonical(p)
    assert equivalent(q, c) and equivalent(p, c)


# decomposition

def test_decompose_splits_raw_zero_label():
    p = real_parameter(RealDiscreteSummand(0, 3))
    assert decompose(p) == (RealCharacter(0, 3), RealCharacter(1, 3))


def test_decompose_keeps_multiplicities():
    p = complex_parameter(ComplexCharacter(1, 0), ComplexCharacter(1, 0))
    assert decompose(p) == (ComplexCharacter(1, 0), ComplexCharacter(1, 0))


@given(parameters)
def test_decompose_parts_are_canonical_irreducibles(p):
    parts = decompose(p)
    assert sum(s.dim for s in parts) == p.dim
    for s in parts:
        if isinstance(s, RealDiscreteSummand):
            assert s.ell >= 1


def test_is_irreducible():
    assert len(induce_to_R(ComplexCharacter(2, 0)).summands) == 1
    assert len(induce_to_R(ComplexCharacter(0, 0)).summands) == 2
    assert len(real_parameter(RealCharacter(1, 0)).summands) == 1
    assert len(real_parameter(RealDiscreteSummand(0, 1)).summands) == 2


# restriction and induction

def test_restrict_discrete_summand_gives_conjugate_pair():
    p = real_parameter(RealDiscreteSummand(2, F(1, 2)))
    assert decompose(restrict_to_C(p)) == (
        ComplexCharacter(-2, F(1, 2)),
        ComplexCharacter(2, F(1, 2)),
    )


def test_restrict_character_doubles_scalar():
    assert decompose(restrict_to_C(real_parameter(RealCharacter(1, 1)))) == (
        ComplexCharacter(0, 2),
    )
    assert decompose(restrict_to_C(real_parameter(RealCharacter(0, 0)))) == (
        ComplexCharacter(0, 0),
    )


def test_restrict_requires_real_side():
    with pytest.raises(SideMismatch):
        restrict_to_C(complex_parameter(ComplexCharacter(1, 0)))


def test_induce_nonzero_label():
    ind = induce_to_R(ComplexCharacter(-4, F(1, 3)))
    assert decompose(ind) == (RealDiscreteSummand(4, F(1, 3)),)


def test_induce_label_zero_halves_scalar():
    ind = induce_to_R(ComplexCharacter(0, 6))
    assert decompose(ind) == (RealCharacter(0, 3), RealCharacter(1, 3))
    # the halving is exactly what makes restriction give chi twice
    assert decompose(restrict_to_C(ind)) == (
        ComplexCharacter(0, 6),
        ComplexCharacter(0, 6),
    )


@given(complex_characters)
def test_restrict_after_induce_gives_chi_and_conjugate(chi):
    got = decompose(restrict_to_C(induce_to_R(chi)))
    want = tuple(sorted([chi, galois_conjugate(chi)], key=lambda c: (c.ell, c.t)))
    assert got == want


@given(complex_characters)
def test_induction_irreducible_iff_nonzero_label(chi):
    assert (len(induce_to_R(chi).summands) == 1) == (chi.ell != 0)


def test_induced_equivalence_classification():
    # Ind chi ~ Ind chi' iff chi' is chi or its conjugate, exhaustively
    grid = [
        ComplexCharacter(ell, t)
        for ell in range(-3, 4)
        for t in (F(0), F(1), F(1, 2), F(-1, 2))
    ]
    for c1 in grid:
        for c2 in grid:
            want = c1 == c2 or c1 == galois_conjugate(c2)
            assert equivalent(induce_to_R(c1), induce_to_R(c2)) == want


# hom spaces

def test_hom_dim_on_induced_parameters():
    a = induce_to_R(ComplexCharacter(2, 0))
    b = induce_to_R(ComplexCharacter(-2, 0))
    assert hom_dim(a, b) == 1
    c = induce_to_R(ComplexCharacter(0, 2))
    assert hom_dim(c, c) == 2


def test_hom_dim_counts_multiplicities():
    dbl = complex_parameter(ComplexCharacter(1, 0), ComplexCharacter(1, 0))
    assert hom_dim(dbl, complex_parameter(ComplexCharacter(1, 0))) == 2
    assert hom_dim(dbl, dbl) == 4


def test_hom_dim_side_mismatch():
    with pytest.raises(SideMismatch):
        hom_dim(
            real_parameter(RealCharacter(0, 0)),
            complex_parameter(ComplexCharacter(0, 0)),
        )


@given(complex_characters, real_parameters)
def test_hom_dim_frobenius_reciprocity(chi, pi):
    lhs = hom_dim(induce_to_R(chi), pi)
    rhs = hom_dim(complex_parameter(chi), restrict_to_C(pi))
    assert lhs == rhs


@given(parameter_pairs)
def test_hom_dim_symmetric(pair):
    a, b = pair
    assert hom_dim(a, b) == hom_dim(b, a)


@given(real_parameters)
def test_restriction_is_galois_stable(p):
    # anything restricted from W_R is fixed by conjugating every character
    res = restrict_to_C(p)
    conj = LParameter(res.side, tuple(galois_conjugate(s) for s in res.summands))
    assert equivalent(res, conj)
