"""JSON codecs: exact-rational strings, document shapes, round trips."""

import json
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    RING_U1,
    ComplexComponent,
    ComponentListing,
    DegreeMismatch,
    InvalidN,
    KClass,
    LabelMismatch,
    RealComponent,
    RepRingElement,
    RingMismatch,
    SideMismatch,
    TemperedPoint,
    UsageError,
    k_group,
)
from temperedk import cli
from temperedk.serialize import (
    component_from_doc,
    component_to_doc,
    fraction_from_json,
    fraction_to_str,
    kclass_from_doc,
    kclass_to_doc,
    kgroup_to_doc,
    parameter_from_doc,
    parameter_to_doc,
    point_from_doc,
    point_to_doc,
    render,
    repring_from_doc,
    repring_to_doc,
)

from _strategies import components, parameters, raw_points


def test_fraction_to_str():
    assert fraction_to_str(F(1, 2)) == "1/2"
    assert fraction_to_str(F(-3, 4)) == "-3/4"
    assert fraction_to_str(F(6, 3)) == "2"
    assert fraction_to_str(F(0)) == "0"


def test_fraction_from_json():
    assert fraction_from_json("1/2") == F(1, 2)
    assert fraction_from_json("-7") == F(-7)
    assert fraction_from_json(3) == F(3)
    for bad in ("x", "1/0", 1.5, None, True, [1]):
        with pytest.raises(UsageError):
            fraction_from_json(bad)
    # a JSON true is not an integer, and is refused like any other non-rational
    for flag in (True, False):
        with pytest.raises(UsageError, match=re.escape(f'rationals must be integers or "p/q" strings, got {flag}')):
            fraction_from_json(flag)


def test_exponent_rationals_are_refused_from_their_digit_counts(monkeypatch):
    from temperedk import serialize

    fraction = serialize.Fraction

    def no_text(value=0, *args):
        # building 10**e for these would take minutes
        if isinstance(value, str):
            raise AssertionError(f"Fraction parsed {value!r}")
        return fraction(value, *args)

    monkeypatch.setattr(serialize, "Fraction", no_text)
    cap = f"rational has a numerator or denominator longer than {sys.get_int_max_str_digits()} digits"
    for text in ("1e100000000", "1e-100000000", "-2.5E+99999999", " 1_0e1_000_000_000 ", ".5e-100000000"):
        with pytest.raises(UsageError, match=re.escape(cap)):
            fraction_from_json(text)
    # a zero mantissa is zero whatever the exponent
    for text in ("0e100000000", "-0.000e-100000000", "0_0.0E+1_000_000_000"):
        assert fraction_from_json(text) == 0


def test_exponent_rationals_near_the_digit_cap():
    # the digit-count check refuses only what the check on the built value refuses
    limit = sys.get_int_max_str_digits()
    for mantissa in ("1", "5", "8", "25", "0.5", "123.456", "100", "-0.0040"):
        for exponent in [base + step for base in (limit, -limit, -limit - 3) for step in range(-4, 5)]:
            text = f"{mantissa}e{exponent}"
            exact = F(text)
            if max(abs(exact.numerator), exact.denominator) >= 10**limit:
                with pytest.raises(UsageError, match="longer than"):
                    fraction_from_json(text)
            else:
                assert fraction_from_json(text) == exact


@given(parameters)
def test_parameter_round_trip(p):
    doc = json.loads(render(parameter_to_doc(p)))
    assert parameter_from_doc(doc) == p


@given(raw_points())
def test_point_round_trip(pt):
    doc = json.loads(render(point_to_doc(pt)))
    assert point_from_doc(doc) == pt


def test_component_docs():
    comp = RealComponent((1, 3), 1, 1)
    doc = component_to_doc(comp)
    assert doc == {
        "field": "R",
        "n": 6,
        "q": 2,
        "r": 2,
        "discrete": [1, 3],
        "signs": ["id", "sgn"],
    }
    assert component_from_doc(doc) == comp
    cdoc = component_to_doc(ComplexComponent((0, -2)))
    assert cdoc == {"field": "C", "n": 2, "labels": [-2, 0]}
    assert component_from_doc(cdoc) == ComplexComponent((-2, 0))


def test_point_doc_shape():
    pt = TemperedPoint(RealComponent((2,), 1, 0), ((2, F(1, 4)), ("id", F(5))))
    doc = point_to_doc(pt)
    assert doc["coords"] == [{"label": 2, "t": "1/4"}, {"label": "id", "t": "5"}]
    assert point_from_doc(doc) == pt


def test_kclass_round_trip_and_order():
    x = KClass(1, ((RealComponent((2,)), -1), (RealComponent((1,)), 2)))
    doc = json.loads(render(kclass_to_doc(x)))
    assert [term["coeff"] for term in doc["terms"]] == [2, -1]
    assert kclass_from_doc(doc) == x


def test_repring_round_trip():
    x = RepRingElement(RING_U1, ((0, 2), (-3, 1)))
    doc = repring_to_doc(x)
    assert repring_from_doc(json.loads(render(doc))) == x


def test_kgroup_doc():
    doc = kgroup_to_doc(k_group("R", 2, 2))
    assert set(doc["degrees"]) == {"0", "1"}
    assert doc["degrees"]["1"]["rank"] == 2
    assert json.loads(render(doc))["degrees"]["0"]["generators"][0]["signs"] == ["id", "sgn"]
    only_one = kgroup_to_doc(k_group("R", 2, 2), degrees=(1,))
    assert set(only_one["degrees"]) == {"1"}


def test_from_doc_validation():
    with pytest.raises(UsageError):
        component_from_doc({"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [], "signs": []})
    with pytest.raises(UsageError):
        component_from_doc({"field": "C", "n": 2, "labels": [1]})
    with pytest.raises(UsageError):
        component_from_doc({"field": "Q", "n": 1, "labels": [0]})
    with pytest.raises(LabelMismatch, match="bad coordinate label 'up'"):
        point_from_doc({"field": "C", "n": 1, "labels": [0], "coords": [{"label": "up", "t": "0"}]})
    with pytest.raises(UsageError):
        parameter_from_doc({"side": "R", "summands": [{"kind": "spin", "t": "0"}]})
    with pytest.raises(InvalidN):
        parameter_from_doc({"side": "R", "summands": []})
    with pytest.raises(SideMismatch, match="side must be 'R' or 'C', got 'Q'"):
        parameter_from_doc({"side": "Q", "summands": [{"ell": 1, "t": "0"}]})
    with pytest.raises(DegreeMismatch, match="degree must be 0 or 1, got 3"):
        kclass_from_doc({"degree": 3, "terms": [5]})
    with pytest.raises(RingMismatch):
        repring_from_doc({"ring": "U(1)", "coeffs": [{"label": "1", "coeff": 1}]})
    # JSON booleans are never integers
    gen = {"field": "C", "n": 1, "labels": [0]}
    for bad in (
        lambda: parameter_from_doc({"side": "R", "summands": [{"kind": "character", "eps": True, "t": "0"}]}),
        lambda: parameter_from_doc({"side": "C", "summands": [{"ell": False, "t": "0"}]}),
        lambda: component_from_doc({"field": "C", "n": True, "labels": [0]}),
        lambda: kclass_from_doc({"degree": True, "terms": []}),
        lambda: kclass_from_doc({"degree": 1, "terms": [{"gen": gen, "coeff": True}]}),
        lambda: repring_from_doc({"ring": "U(1)", "coeffs": [{"label": 0, "coeff": False}]}),
    ):
        with pytest.raises(UsageError):
            bad()


def test_render_json_is_deterministic():
    doc = point_to_doc(TemperedPoint(ComplexComponent((0, 4)), ((0, 1), (4, F(2, 3)))))
    assert render(doc) == render(doc)
    assert render(doc).startswith("{")
    with pytest.raises(UsageError):
        render(doc, "yaml")


def test_render_empty_list():
    assert render([]) == "[]"


def test_render_table_smoke():
    doc = kgroup_to_doc(k_group("R", 1, 1))
    text = render(doc, "table")
    assert "K^1" in text and "rank 2" in text


# the writer behind render(doc, "json") against the reference encoder

def _expand(value):
    """``value`` with every listing replaced by the list of its components'
    documents, and every K-class by the list of its term documents."""
    if isinstance(value, ComponentListing):
        return [component_to_doc(c) for c in value]
    if isinstance(value, KClass):
        return [{"gen": component_to_doc(g), "coeff": c} for g, c in value.terms]
    if isinstance(value, dict):
        return {k: _expand(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_expand(v) for v in value]
    return value


def _reference(doc) -> str:
    return json.dumps(_expand(doc), indent=2, sort_keys=True)


def test_render_kgroup_matches_reference():
    cases = [("R", n, 5) for n in range(1, 9)] + [("C", n, 3) for n in range(1, 6)]
    real_shapes = set()
    for field_name, n, max_label in cases:
        group = k_group(field_name, n, max_label)
        for degrees in ((0, 1), (0,), (1,)):
            doc = kgroup_to_doc(group, degrees)
            assert render(doc) == _reference(doc)
        if field_name == "R":
            real_shapes.update((len(c.discrete), c.id_count, c.sgn_count)
                               for j in (0, 1) for c in group.generators(j))
    # empty discrete labels, the sign pair and both sign characters all occur
    assert {(0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (4, 0, 0)} <= real_shapes


def test_render_component_listings_match_reference():
    for argv in (
        ["components", "--field", "R", "--n", "5", "--max-label", "3"],
        ["components", "--field", "R", "--n", "1", "--max-label", "2"],
        ["components", "--field", "C", "--n", "3", "--max-label", "2"],
    ):
        doc = cli.execute(cli.parse_command(argv))
        assert all(isinstance(c, (RealComponent, ComplexComponent)) for c in doc["components"])
        assert render(doc) == _reference(doc)


def test_render_kclass_with_mixed_shapes():
    x = KClass(1, (
        (RealComponent((), 1, 0), 3),
        (RealComponent((), 0, 1), -1),
        (RealComponent((2,), 1, 1), 2),
        (RealComponent((1, 4, 6)), -7),
        (ComplexComponent((-3, 0, 12)), 1),
        (ComplexComponent((5,)), 10**30),
    ))
    doc = kclass_to_doc(x)
    assert render(doc) == _reference(doc)
    assert kclass_from_doc(json.loads(render(doc))) == x


# K-classes of mixed shapes: R with every sign split of r <= 3, C, cones
# included; coefficients of up to 40 digits, either sign
_coefficients = st.integers(-3, 3) | st.integers(-10**40, 10**40) | st.sampled_from([10**39, -(10**40 - 1)])
_kclasses = st.builds(
    KClass,
    st.integers(0, 1),
    st.lists(st.tuples(components, _coefficients), max_size=8).map(tuple),
)


def _reference_kclass_table(x) -> str:
    lines = [f"degree={x.degree}"]
    lines += [f"  {k:+d} * [{_reference_line(component_to_doc(c))}]" for c, k in x.terms] or ["  0"]
    return "\n".join(lines)


@given(_kclasses)
def test_render_kclass_matches_reference(x):
    # the table format: test_table_rows_match_reference
    doc = kclass_to_doc(x)
    assert render(doc) == _reference(doc)
    assert kclass_from_doc(json.loads(render(doc))) == x


def test_render_kclass_every_sign_split_and_the_empty_class():
    gens = [RealComponent(discrete, i, r - i) for r in range(4) for i in range(r + 1)
            for discrete in ((), (2,), (1, 5)) if discrete or r]
    x = KClass(1, tuple((g, (-1) ** j * 10**j) for j, g in enumerate(gens)))
    assert len(x.terms) == len(gens) == 29
    for y in (x, KClass(0), KClass(1)):
        doc = kclass_to_doc(y)
        assert render(doc) == _reference(doc)
        assert render(doc, "table") == _reference_kclass_table(y)
    assert render(kclass_to_doc(KClass(0))) == '{\n  "degree": 0,\n  "terms": []\n}'


def test_kclass_templates_are_built_once_per_shape(monkeypatch):
    from temperedk import serialize

    shapes = [RealComponent((), 1, 0), RealComponent((), 0, 1), RealComponent((1,), 1, 1),
              RealComponent((1, 2)), ComplexComponent((0,)), ComplexComponent((0, 1, 2))]
    terms = []
    for shape in shapes:
        for shift in range(1, 41):
            if isinstance(shape, RealComponent):
                gen = RealComponent(tuple(l + shift for l in shape.discrete), shape.id_count, shape.sgn_count)
            else:
                gen = ComplexComponent(tuple(l + shift for l in shape.labels))
            terms.append((gen, shift))
    doc = kclass_to_doc(KClass(1, tuple(terms)))
    # the sign-only shapes have no labels, so each stands for one generator
    assert len(doc["terms"].terms) == 4 * 40 + 2
    calls = []
    template = serialize._template

    def counting(c, pad):
        calls.append((c, pad))
        return template(c, pad)

    monkeypatch.setattr(serialize, "_template", counting)
    for fmt in ("json", "table"):
        calls.clear()
        render(doc, fmt)
        assert len(calls) == len(shapes)


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00", "é", "\u2603", "\U0001f600", "%d", "%s"])
)
_json_values = st.recursive(
    _json_scalars | _kclasses,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@given(_json_values)
def test_render_matches_reference_on_json_values(value):
    assert render(value) == _reference(value)


def _reference_line(doc) -> str:
    if doc["field"] == "R":
        return f"q={doc['q']} discrete={doc['discrete']} signs={doc['signs']}"
    return f"labels={doc['labels']}"


@given(_kclasses)
def test_table_rows_match_reference(x):
    assert render(kclass_to_doc(x), "table") == _reference_kclass_table(x)


def _reference_table(doc) -> str:
    # the table of the expanded document, by the formulas of the table backend
    doc = _expand(doc)
    head = f"field={doc['field']} n={doc['n']} max_label={doc['max_label']}"
    if "components" in doc:
        return "\n".join([f"{head} count={doc['count']}"]
                         + [_reference_line(c) for c in doc["components"]])
    lines = [head]
    for j in sorted(doc["degrees"]):
        info = doc["degrees"][j]
        lines.append(f"K^{j}  rank {info['rank']}  ({info['schema']})")
        lines.extend("  " + _reference_line(c) for c in info["generators"])
    return "\n".join(lines)


def _listing_docs():
    """kgroup and components documents of every row shape, with each degree choice."""
    for field_name, sizes in (("R", range(1, 9)), ("C", range(1, 6))):
        for n in sizes:
            for L in (1, 2, 4):
                yield cli.execute(cli.parse_command(
                    ["components", "--field", field_name, "--n", str(n), "--max-label", str(L)]))
                for degree in ([], ["--degree", "0"], ["--degree", "1"]):
                    yield cli.execute(cli.parse_command(
                        ["kgroup", "--field", field_name, "--n", str(n), "--max-label", str(L)] + degree))


def test_render_listings_match_reference_in_both_formats():
    shapes, empty = set(), 0
    for doc in _listing_docs():
        assert render(doc) == _reference(doc)
        assert render(doc, "table") == _reference_table(doc)
        listings = ([doc["components"]] if "components" in doc
                    else [info["generators"] for info in doc["degrees"].values()])
        for listing in listings:
            assert isinstance(listing, ComponentListing)
            empty += listing.size == 0
            shapes.update(tuple((i, block.r - i) for i in block.id_counts) for block in listing.blocks)
    # interleaved id/sgn rows, the sign pair, every split of r = 3 and empty degrees
    assert {((1, 0), (0, 1)), ((1, 1),), ((3, 0), (2, 1), (1, 2), (0, 3))} <= shapes
    assert empty > 0


def test_listing_docs_render_repeatably():
    group = k_group("R", 5, 4)
    doc = kgroup_to_doc(group)
    first_json, first_table = render(doc), render(doc, "table")
    assert render(doc) == first_json and render(doc, "table") == first_table
    # the listing is a value, not a spent iterator
    assert group.generators(1) == tuple(doc["degrees"]["1"]["generators"])
    assert len(group.generators(1)) == doc["degrees"]["1"]["rank"] == 12
    components = cli.execute(cli.parse_command(["components", "--field", "C", "--n", "2", "--max-label", "3"]))
    assert render(components) == render(components)
    assert components["count"] == len(list(components["components"])) == 28


def test_table_kgroup_rows_match_reference():
    doc = kgroup_to_doc(k_group("R", 5, 4))
    lines = render(doc, "table").split("\n")
    rows = [line for line in lines if line.startswith("  ")]
    gens = k_group("R", 5, 4).generators(0) + k_group("R", 5, 4).generators(1)
    assert rows == ["  " + _reference_line(component_to_doc(c)) for c in gens]


def _docs(*argvs):
    return [cli.execute(cli.parse_command(argv.split())) for argv in argvs]


# two-digit and negative labels, a k = 0 block (the sign characters of GL(1, R)
# and the sign pair of GL(2, R)), and rank-0 degrees, empty or of an empty block
_WIDE_LISTINGS = (
    "kgroup --field R --n 8 --max-label 20",
    *[f"components --field R --n {n} --max-label 12" for n in range(1, 7)],
    "components --field C --n 2 --max-label 11",
    "components --field C --n 3 --max-label 11",
    "kgroup --field R --n 1 --max-label 12",
    "kgroup --field R --n 2 --max-label 12",
    "kgroup --field R --n 8 --max-label 2",
    "kgroup --field C --n 2 --max-label 11",
)


def _listings(doc):
    return [doc["components"]] if "components" in doc else [info["generators"] for info in doc["degrees"].values()]


def test_render_wide_listings_match_reference_in_both_formats():
    labels, ks, empty = set(), set(), 0
    for doc in _docs(*_WIDE_LISTINGS):
        assert render(doc) == _reference(doc)
        assert render(doc, "table") == _reference_table(doc)
        for listing in _listings(doc):
            empty += listing.size == 0
            ks.update(block.k for block in listing.blocks)
            labels.update(label for block in listing.blocks for label in block.labels)
    assert {-11, -10, 0, 12, 20} <= labels and 0 in ks and empty >= 3


def test_listing_rows_build_no_component(monkeypatch):
    from temperedk import serialize

    docs = _docs("kgroup --field R --n 8 --max-label 20", "components --field R --n 6 --max-label 12",
                 "components --field C --n 3 --max-label 11", "kgroup --field R --n 2 --max-label 12")
    blocks = [block for doc in docs for listing in _listings(doc) for block in listing.blocks]
    # (blocks x shapes): one shape per C row, one per sign split of an R row
    shapes = sum(1 if block.r is None else len(block.id_counts) for block in blocks)
    rows = sum(block.size for block in blocks)
    assert rows > 20 * shapes
    texts, built = [], []
    shape_text = serialize._shape_text

    def counting_text(c, pad, slots):
        texts.append(c)
        return shape_text(c, pad, slots)

    def counting(init):
        def wrapper(self, *args):
            built.append(args)
            init(self, *args)
        return wrapper

    monkeypatch.setattr(serialize, "_shape_text", counting_text)
    for cls in (RealComponent, ComplexComponent):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    for fmt in ("json", "table"):
        texts.clear()
        built.clear()
        for doc in docs:
            render(doc, fmt)
        assert len(texts) <= shapes and len(built) <= shapes
