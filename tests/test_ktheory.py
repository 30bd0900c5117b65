"""K-groups, the base-change and induction homomorphisms, character rings."""

import re
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    RING_U1,
    RING_Z2,
    ComplexComponent,
    DegreeMismatch,
    InvalidN,
    InvalidTruncation,
    KClass,
    RealComponent,
    RepRingElement,
    RingMismatch,
    UnknownGenerator,
    apply_hom,
    component_sort_key,
    enumerate_components_complex,
    enumerate_components_real,
    is_cone,
    k_ai_hom,
    k_bc_hom,
    k_group,
    k_ranks_component,
    repring_bc,
)

from temperedk import dual

from _strategies import components


# single components

def test_k_ranks_component_examples():
    assert k_ranks_component(RealComponent((), 1, 0)) == (0, 1)
    assert k_ranks_component(RealComponent((2,), 1, 1)) == (0, 1)
    assert k_ranks_component(ComplexComponent((0, 0))) == (0, 0)
    assert k_ranks_component(RealComponent((1, 2))) == (1, 0)


@given(components)
def test_k_ranks_component_cone_and_parity(comp):
    ranks = k_ranks_component(comp)
    if is_cone(comp):
        assert ranks == (0, 0)
    else:
        assert ranks == ((1, 0) if comp.dim % 2 == 0 else (0, 1))


# graded groups against the brute-force pipeline

def _kgroup_by_enumeration(field_name, n, max_label):
    # independent oracle: enumerate, drop cones, split by dimension parity
    if field_name == "R":
        comps = enumerate_components_real(n, max_label)
    else:
        comps = enumerate_components_complex(n, max_label)
    kept = [c for c in comps if not is_cone(c)]
    g0 = tuple(sorted((c for c in kept if c.dim % 2 == 0), key=component_sort_key))
    g1 = tuple(sorted((c for c in kept if c.dim % 2 == 1), key=component_sort_key))
    return g0, g1


@pytest.mark.parametrize("field_name", ["R", "C"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("max_label", range(1, 7))
def test_k_group_matches_enumeration_oracle(field_name, n, max_label):
    group = k_group(field_name, n, max_label)
    want0, want1 = _kgroup_by_enumeration(field_name, n, max_label)
    assert group.generators(0) == want0
    assert group.generators(1) == want1


def test_k_group_gl1_real():
    group = k_group("R", 1, 3)
    assert (group.rank(0), group.rank(1)) == (0, 2)
    assert group.generators(1) == (RealComponent((), 1, 0), RealComponent((), 0, 1))


def test_k_group_gl2_real():
    for L in (1, 2, 5):
        group = k_group("R", 2, L)
        assert group.generators(1) == tuple(RealComponent((l,)) for l in range(1, L + 1))
        assert group.generators(0) == (RealComponent((), 1, 1),)


def test_k_group_gl3_real():
    for L in (1, 2, 5):
        group = k_group("R", 3, L)
        assert group.rank(1) == 0
        assert group.rank(0) == 2 * L
        for c in group.generators(0):
            assert c.q == 1 and c.r == 1


def test_k_group_gl2_complex():
    group = k_group("C", 2, 1)
    assert group.rank(1) == 0
    assert group.generators(0) == (
        ComplexComponent((-1, 0)),
        ComplexComponent((-1, 1)),
        ComplexComponent((0, 1)),
    )


def test_k_group_closed_form_counts():
    for L in range(1, 7):
        for n in range(1, 7):
            group = k_group("R", n, L)
            q = n // 2
            if n % 2 == 0:
                assert group.rank(q % 2) == comb(L, q)
                assert group.rank((q + 1) % 2) == comb(L, q - 1)
            else:
                assert group.rank((q + 1) % 2) == 2 * comb(L, q)
                assert group.rank(q % 2) == 0
            cgroup = k_group("C", n, L)
            assert cgroup.rank(n % 2) == comb(2 * L + 1, n)
            assert cgroup.rank((n + 1) % 2) == 0


def test_k_group_schemas_describe_families():
    assert "sign pair" in k_group("R", 4, 2).schema(1)
    assert k_group("R", 3, 2).schema(1) == "0"
    assert k_group("C", 3, 2).schema(0) == "0"
    assert "distinct" in k_group("C", 3, 2).schema(1)


def test_k_group_errors():
    with pytest.raises(InvalidN):
        k_group("R", 0, 2)
    with pytest.raises(InvalidTruncation):
        k_group("C", 2, 0)
    with pytest.raises(ValueError):
        k_group("Q", 2, 2)
    with pytest.raises(DegreeMismatch):
        k_group("R", 2, 2).generators(2)


# the lazy group: closed-form ranks and membership in a listing without listing it

@pytest.mark.parametrize("field_name", ["R", "C"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("max_label", range(1, 7))
def test_contains_matches_generator_listing(field_name, n, max_label):
    group = k_group(field_name, n, max_label)
    # labels one past the bound, cones, the other degree's family, a
    # neighbouring size and the other field
    near = max_label + 1
    universe = [
        *enumerate_components_real(n, near if field_name == "R" else 1),
        *enumerate_components_complex(n, near if field_name == "C" else 1),
        *enumerate_components_real(n + 1, 1),
        *enumerate_components_complex(n + 1, 1),
    ]
    for degree in (0, 1):
        listing = group.listing(degree)
        listed = set(listing)
        assert listed <= set(universe)
        for gen in universe:
            assert (gen in listing) == (gen in listed)


def _forbid_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("generators were listed")

    # every listing draws its label sets from these two
    monkeypatch.setattr(dual, "combinations", refuse)
    monkeypatch.setattr(dual, "combinations_with_replacement", refuse)


def _closed_form_ranks(field_name, n, L):
    q = n // 2
    if field_name == "C":
        ranks = {n % 2: comb(2 * L + 1, n), (n + 1) % 2: 0}
    elif n % 2 == 0:
        ranks = {q % 2: comb(L, q), (q + 1) % 2: comb(L, q - 1)}
    else:
        ranks = {(q + 1) % 2: 2 * comb(L, q), q % 2: 0}
    return ranks[0], ranks[1]


@pytest.mark.parametrize("field_name,n", [("R", n) for n in range(1, 9)] + [("C", n) for n in range(1, 6)])
def test_group_listings_count_from_closed_form(field_name, n):
    for L in range(1, 7):
        group = k_group(field_name, n, L)
        for degree, closed in zip((0, 1), _closed_form_ranks(field_name, n, L)):
            listing = group.listing(degree)
            listed = list(listing)
            assert listing.size == len(listed) == group.rank(degree) == closed
            assert tuple(listed) == group.generators(degree) == tuple(listing)


def test_rank_of_a_huge_group_without_listing(monkeypatch):
    _forbid_listing(monkeypatch)
    group = k_group("C", 6, 40)
    assert group.rank(0) == comb(81, 6) == 324_540_216
    assert group.rank(1) == 0
    assert ComplexComponent((-40, -3, 0, 1, 2, 40)) in group.listing(0)
    assert ComplexComponent((-41, -3, 0, 1, 2, 40)) not in group.listing(0)
    assert ComplexComponent((-40, -3, 0, 1, 2, 40)) not in group.listing(1)


def test_k_bc_hom_is_zero_without_listing(monkeypatch):
    _forbid_listing(monkeypatch)
    h = k_bc_hom(4, 30)
    x = KClass(0, ((ComplexComponent((-30, -1, 5, 30)), 3), (ComplexComponent((0, 1, 2, 3)), -2)))
    assert apply_hom(h, x) == KClass(0)


def test_unknown_generator_under_lazy_groups():
    h = k_bc_hom(4, 30)
    outside = [
        KClass(0, ((ComplexComponent((1, 2, 3, 31)), 1),)),  # label past the bound
        KClass(0, ((ComplexComponent((1, 1, 2, 3)), 1),)),  # a cone
        KClass(1, ((ComplexComponent((1, 2, 3, 4)), 1),)),  # the zero degree
        KClass(0, ((ComplexComponent((1, 2, 3)), 1),)),  # the wrong size
    ]
    for x in outside:
        with pytest.raises(UnknownGenerator):
            apply_hom(h, x)
    h = k_ai_hom(2, 5)
    with pytest.raises(UnknownGenerator):
        apply_hom(h, KClass(0, ((RealComponent((1, 6)), 1),)))
    with pytest.raises(UnknownGenerator):
        apply_hom(h, KClass(1, ((RealComponent((2,), 2, 0), 1),)))


def test_apply_hom_on_a_whole_basis():
    h = k_ai_hom(2, 40)
    basis = h.domain.generators(0)
    x = KClass(0, tuple((g, i + 1) for i, g in enumerate(basis)))
    image = apply_hom(h, x)
    assert len(image.terms) == len(basis) == comb(40, 2)
    assert image.terms == tuple(
        (ComplexComponent(g.discrete), i + 1) for i, g in enumerate(basis)
    )


# K-class arithmetic

def test_kclass_normalization():
    gen = RealComponent((1,))
    x = KClass(1, ((gen, 2), (gen, -2)))
    assert x.is_zero and x.terms == ()
    y = KClass(1, ((RealComponent((2,)), 1), (gen, 3)))
    assert y.terms == ((gen, 3), (RealComponent((2,)), 1))
    assert y.coefficient(gen) == 3
    assert y.coefficient(RealComponent((9,))) == 0


def test_coefficients_of_reordered_terms():
    terms = tuple((RealComponent((l,)), l) for l in range(1, 50))
    x, y = KClass(1, terms), KClass(1, terms[::-1])
    assert [y.coefficient(g) for g, _ in terms] == list(range(1, 50))
    assert x.coefficient(RealComponent((50,))) == 0
    assert x.coefficient(ComplexComponent((1,))) == 0
    assert x == y and hash(x) == hash(y)
    u = RepRingElement(RING_U1, ((3, 2), (-1, 5)))
    assert (u.coefficient(3), u.coefficient(-1), u.coefficient(0)) == (2, 5, 0)
    assert u == RepRingElement(RING_U1, {-1: 5, 3: 2}) and hash(u) == hash(RepRingElement(RING_U1, {-1: 5, 3: 2}))
    z = RepRingElement(RING_Z2, (("eps", 4),))
    assert (z.coefficient("eps"), z.coefficient("1")) == (4, 0)


def test_kclass_arithmetic():
    a = KClass(0, ((ComplexComponent((1, 2)), 1),))
    b = KClass(0, ((ComplexComponent((1, 2)), 2), (ComplexComponent((0, 1)), -1)))
    s = a + b
    assert s.coefficient(ComplexComponent((1, 2))) == 3
    assert (a - a).is_zero
    assert (2 * b).coefficient(ComplexComponent((0, 1))) == -2
    with pytest.raises(DegreeMismatch):
        a + KClass(1)
    with pytest.raises(DegreeMismatch):
        KClass(2)


def test_kclass_coefficients_must_be_integers():
    gen = RealComponent((1,))
    for bad in (2.7, True, F(1, 2)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            KClass(1, ((gen, bad),))
        with pytest.raises(TypeError):
            KClass(1, {gen: bad})
    with pytest.raises(TypeError):
        2.5 * KClass(1, ((gen, 1),))
    x = KClass(1, ((gen, 2), (RealComponent((3,)), 1), (gen, -2)))
    assert x.terms == ((RealComponent((3,)), 1),)
    assert (x + x).coefficient(RealComponent((3,))) == 2


# base change on K-theory

def test_k_bc_hom_gl1_rule():
    h = k_bc_hom(1, 10)
    image = apply_hom(h, KClass(1, ((ComplexComponent((0,)), 1),)))
    assert image == KClass(
        1, ((RealComponent((), 1, 0), 1), (RealComponent((), 0, 1), 1))
    )
    for ell in range(1, 11):
        for label in (ell, -ell):
            x = KClass(1, ((ComplexComponent((label,)), 1),))
            assert apply_hom(h, x).is_zero


def test_k_bc_hom_gl1_matrix_has_one_nonzero_column():
    h = k_bc_hom(1, 6)
    nonzero = [g for g in h.domain.generators(1) if not h.on_generator(1, g).is_zero]
    assert nonzero == [ComplexComponent((0,))]


def test_k_bc_hom_vanishes_for_larger_groups():
    for n in range(2, 6):
        h = k_bc_hom(n, 4)
        assert h.domain.n == n and h.codomain.n == n
        for degree in (0, 1):
            for g in h.domain.generators(degree):
                assert h.on_generator(degree, g).is_zero


def test_k_bc_hom_scales():
    h = k_bc_hom(1, 5)
    doubled = apply_hom(h, KClass(1, ((ComplexComponent((0,)), 2),)))
    assert doubled.coefficient(RealComponent((), 1, 0)) == 2
    assert doubled.coefficient(RealComponent((), 0, 1)) == 2


# automorphic induction on K-theory

def test_k_ai_hom_gl2_shift():
    h = k_ai_hom(1, 10)
    assert h.domain.n == 2 and h.codomain.n == 1
    for ell in range(1, 11):
        image = apply_hom(h, KClass(1, ((RealComponent((ell,)), 1),)))
        assert image == KClass(1, ((ComplexComponent((ell,)), 1),))


def test_k_ai_hom_gl4_examples():
    h = k_ai_hom(2, 5)
    x = KClass(0, ((RealComponent((1, 3)), 1),))
    assert apply_hom(h, x) == KClass(0, ((ComplexComponent((1, 3)), 1),))
    y = KClass(1, ((RealComponent((2,), 1, 1), 1),))
    assert apply_hom(h, y).is_zero


def test_k_ai_hom_combination():
    h = k_ai_hom(1, 10)
    x = KClass(1, ((RealComponent((2,)), 1), (RealComponent((7,)), -1)))
    assert apply_hom(h, x) == KClass(
        1, ((ComplexComponent((2,)), 1), (ComplexComponent((7,)), -1))
    )


def test_k_ai_hom_bijection_onto_positive_label_generators():
    for n in (1, 2, 3):
        h = k_ai_hom(n, 5)
        degree = n % 2
        images = []
        for g in h.domain.generators(degree):
            image = h.on_generator(degree, g)
            assert image == KClass(degree, ((ComplexComponent(g.discrete), 1),))
            images.append(image.terms[0][0])
        assert len(set(images)) == len(images)
        positives = [
            c for c in h.codomain.generators(degree) if all(l >= 1 for l in c.labels)
        ]
        assert sorted(images, key=component_sort_key) == positives
        for g in h.domain.generators(1 - degree):
            assert h.on_generator(1 - degree, g).is_zero


# applying homomorphisms

def test_apply_hom_rejects_foreign_generators():
    h = k_bc_hom(1, 3)
    beyond = KClass(1, ((ComplexComponent((9,)), 1),))
    with pytest.raises(UnknownGenerator):
        apply_hom(h, beyond)
    wrong_degree = KClass(0, ((ComplexComponent((0,)), 1),))
    with pytest.raises(UnknownGenerator):
        apply_hom(h, wrong_degree)


def test_apply_hom_zero_class():
    h = k_ai_hom(2, 4)
    assert apply_hom(h, KClass(0)).is_zero
    assert apply_hom(h, KClass(1)).is_zero


_ai = k_ai_hom(1, 6)
_ai_classes = st.dictionaries(
    st.sampled_from(list(_ai.domain.generators(1))),
    st.integers(-5, 5),
    max_size=4,
).map(lambda d: KClass(1, tuple(d.items())))


@given(_ai_classes, _ai_classes)
def test_apply_hom_additive(x, y):
    assert apply_hom(_ai, x + y) == apply_hom(_ai, x) + apply_hom(_ai, y)


@given(_ai_classes, st.integers(-4, 4))
def test_apply_hom_commutes_with_scaling(x, scalar):
    assert apply_hom(_ai, scalar * x) == scalar * apply_hom(_ai, x)


# character rings

def test_repring_bc_on_basis():
    assert repring_bc(RepRingElement(RING_U1, ((0, 1),))) == RepRingElement(
        RING_Z2, (("1", 1), ("eps", 1))
    )
    for ell in (-3, 1, 7):
        assert repring_bc(RepRingElement(RING_U1, ((ell, 1),))).coeffs == ()


def test_repring_bc_combination():
    x = RepRingElement(RING_U1, ((0, 2), (1, 1)))
    assert repring_bc(x) == RepRingElement(RING_Z2, (("1", 2), ("eps", 2)))


def test_repring_normalization_and_ring_checks():
    x = RepRingElement(RING_U1, ((3, 1), (3, -1), (0, 2)))
    assert x.coeffs == ((0, 2),)
    assert x.coefficient(3) == 0
    with pytest.raises(RingMismatch):
        RepRingElement(RING_U1, (("1", 1),))
    with pytest.raises(RingMismatch):
        RepRingElement(RING_Z2, ((0, 1),))
    with pytest.raises(RingMismatch):
        RepRingElement("bogus", ())
    with pytest.raises(RingMismatch):
        repring_bc(RepRingElement(RING_Z2, (("1", 1),)))
    with pytest.raises(RingMismatch):
        RepRingElement(RING_U1, ((1, 1),)) + RepRingElement(RING_Z2, (("1", 1),))


def test_repring_scaling():
    x = RepRingElement(RING_U1, ((0, 2), (-3, 1)))
    assert 3 * x == RepRingElement(RING_U1, ((-3, 3), (0, 6)))
    assert (0 * x).coeffs == ()
    assert -1 * RepRingElement(RING_Z2, (("eps", 2),)) == RepRingElement(RING_Z2, (("eps", -2),))


def test_repring_coefficients_must_be_integers():
    for bad in (2.7, True, F(1, 2)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RepRingElement(RING_U1, ((0, bad),))
        with pytest.raises(TypeError):
            RepRingElement(RING_Z2, {"eps": bad})
    x = RepRingElement(RING_Z2, (("eps", 3), ("1", 1), ("eps", -3)))
    assert x.coeffs == (("1", 1),)
    assert (x + x).coefficient("1") == 2


_u1_elements = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=4).map(
    lambda d: RepRingElement(RING_U1, tuple(d.items()))
)


@given(_u1_elements, _u1_elements)
def test_repring_bc_additive(x, y):
    assert repring_bc(x + y) == repring_bc(x) + repring_bc(y)


def test_repring_bc_matches_k_bc_hom():
    # dictionary: character label ell <-> degree-1 generator {ell}, 1 <-> id, eps <-> sgn
    h = k_bc_hom(1, 6)
    id_gen = RealComponent((), 1, 0)
    sgn_gen = RealComponent((), 0, 1)
    for ell in range(-6, 7):
        image = apply_hom(h, KClass(1, ((ComplexComponent((ell,)), 1),)))
        ring_image = repring_bc(RepRingElement(RING_U1, ((ell, 1),)))
        assert image.coefficient(id_gen) == ring_image.coefficient("1")
        assert image.coefficient(sgn_gen) == ring_image.coefficient("eps")


# apply_hom against the sum of the images of single generators

def _reference_apply(h, x):
    """The image of ``x`` as the sum of ``coeff * h.on_generator(...)`` over its terms."""
    image = KClass(x.degree)
    for gen, coeff in x.terms:
        image = image + coeff * h.on_generator(x.degree, gen)
    return image


@st.composite
def _hom_and_class(draw):
    """A bc or ai map with n = 1..4 and a class of its domain generators, in either degree."""
    make = draw(st.sampled_from([k_ai_hom, k_bc_hom]))
    h = make(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    degree = draw(st.integers(0, 1))
    basis = h.domain.generators(degree)
    if not basis:
        return h, KClass(degree)
    gens = draw(st.lists(st.sampled_from(basis), max_size=8))
    coeffs = st.integers(-5, 5) | st.integers(-10**40, 10**40)
    return h, KClass(degree, tuple((g, draw(coeffs)) for g in gens))


@given(_hom_and_class())
def test_apply_hom_matches_sum_of_generator_images(case):
    h, x = case
    assert apply_hom(h, x) == _reference_apply(h, x)


def test_apply_hom_reports_the_first_unknown_term():
    h = k_ai_hom(1, 3)
    x = KClass(1, ((RealComponent((9,)), 1), (RealComponent((2,)), 1), (RealComponent((5,)), 1)))
    with pytest.raises(UnknownGenerator, match=re.escape(repr(RealComponent((5,))))):
        apply_hom(h, x)


def test_rules_return_image_terms():
    ai = k_ai_hom(2, 5)
    assert ai.rule(0, RealComponent((1, 3))) == ((ComplexComponent((1, 3)), 1),)
    assert ai.rule(1, RealComponent((2,), 1, 1)) == ()
    bc = k_bc_hom(1, 5)
    assert bc.rule(1, ComplexComponent((0,))) == (
        (RealComponent((), 1, 0), 1), (RealComponent((), 0, 1), 1))
    assert bc.rule(1, ComplexComponent((3,))) == ()
    assert k_bc_hom(3, 5).rule(1, ComplexComponent((1, 2, 3))) == ()


def test_apply_hom_builds_one_class(monkeypatch):
    h = k_ai_hom(2, 25)
    x = KClass(0, tuple((g, (-1) ** i * (i + 1)) for i, g in enumerate(h.domain.generators(0)[:200])))
    assert len(x.terms) == 200
    built = []
    init = KClass.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(KClass, "__init__", counting)
    image = apply_hom(h, x)
    assert built == [image]
    assert len(image.terms) == 200


def test_component_hash_is_the_field_hash():
    r = RealComponent((3, 1), 1, 2)
    c = ComplexComponent((4, -1))
    # several fields hash as their tuple, one field as itself
    assert hash(r) == hash(((1, 3), 1, 2)) and hash(c) == hash((-1, 4))
    assert r == RealComponent((1, 3), 1, 2) and repr(c) == "ComplexComponent(labels=(-1, 4))"
    assert ComplexComponent.from_sorted((-1, 4)) == c
    assert hash(ComplexComponent.from_sorted((-1, 4))) == hash(c)
