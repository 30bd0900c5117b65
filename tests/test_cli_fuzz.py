"""Fuzz the command line boundary: every input exits 0 or 2, and a refusal is one named error.

Inputs are arbitrary JSON payloads, one- and two-leaf mutations of a valid
payload for each of the seven payload forms, payloads nested up to
200,000 deep, and argv whose numbers are very long, negative, malformed
or missing.  Whatever the input, ``main`` must exit 0 with output and no
stderr, or exit 2 with no output and one JSON line on stderr whose
``error`` names the fault; a bare Python error name there means a check
is missing.  Exponent rationals such as "1e100000000" are refused from
their digit counts, so they are among the strings; sizes in the millions
are left out: they test resource bounds, not names.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from temperedk import cli

BARE = {"ValueError", "TypeError", "KeyError", "AttributeError", "IndexError"}

# an integer literal longer than the interpreter prints or parses
HUGE = "9" * 5000
_HUGE_SLOT = "\x00huge"

R_POINT = {"field": "R", "n": 4, "q": 1, "r": 2, "discrete": [3], "signs": ["id", "sgn"],
           "coords": [{"label": 3, "t": "1/2"}, {"label": "sgn", "t": 0}, {"label": "id", "t": -1}]}
C_POINT = {"field": "C", "n": 2, "labels": [0, -2], "coords": [{"label": -2, "t": "2/3"}, {"label": 0, "t": 1}]}

# (argv before the payload, a valid payload) for each payload form
FORMS = [
    (["llc", "--parameter"], {"side": "R", "summands": [
        {"kind": "character", "eps": 1, "t": "1/2"}, {"kind": "discrete", "ell": -3, "t": 0}]}),
    (["llc", "--parameter"], {"side": "C", "summands": [{"ell": -2, "t": "3"}, {"ell": 0, "t": 1}]}),
    (["llc", "--point"], R_POINT),
    (["basechange", "--point"], R_POINT),
    (["autoinduce", "--point"], C_POINT),
    (["kmap", "--map", "ai", "--n", "1", "--class"], {"degree": 1, "terms": [
        {"gen": {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [2], "signs": []}, "coeff": 3},
        {"gen": {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [1], "signs": []}, "coeff": -1}]}),
    (["repring-bc", "--element"], {"ring": "U(1)", "coeffs": [
        {"label": 0, "coeff": 2}, {"label": 3, "coeff": -1}]}),
]

KEYS = ["side", "summands", "kind", "eps", "ell", "t", "field", "n", "q", "r", "discrete",
        "signs", "labels", "coords", "label", "degree", "terms", "gen", "coeff", "ring", "coeffs"]
STRINGS = ["", "R", "C", "Q", "id", "sgn", "eps", "1", "U(1)", "Z/2Z", "character", "discrete",
           "1/2", "-3", "1/0", "x", "1e3", "1e100000000", "-2.5e-100000000", "0e100000000", _HUGE_SLOT]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(STRINGS),
    st.text(alphabet="0123456789-/e.idsgn", max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=8,
)
# a deleted key or list entry
DELETE = object()


def _dumps(payload) -> str:
    return json.dumps(payload).replace(json.dumps(_HUGE_SLOT), HUGE)


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _replace(doc, path, value):
    """A copy of ``doc`` with the leaf at ``path`` replaced, or removed for DELETE."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    head, rest = path[0], path[1:]
    if rest or value is not DELETE:
        copy[head] = _replace(doc[head], rest, value)
    else:
        del copy[head]
    return copy


def check(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
        return
    assert code == 2, (argv, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"error", "detail"}
    assert doc["error"] not in BARE, (argv, doc)


def test_every_valid_payload_is_accepted():
    for head, payload in FORMS:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(head + [_dumps(payload)]) == 0


@settings(max_examples=250, derandomize=True)
@given(st.data())
def test_mutated_payloads(data):
    head, payload = data.draw(st.sampled_from(FORMS))
    paths = sorted(data.draw(st.lists(st.sampled_from(list(_leaves(payload))),
                                      min_size=1, max_size=2, unique=True)), reverse=True)
    # the later paths first, so a deleted list entry leaves the earlier paths in place
    for path in paths:
        payload = _replace(payload, path, data.draw(st.one_of(st.just(DELETE), json_values)))
    check(head + [_dumps(payload)] + data.draw(st.sampled_from([[], ["--format", "table"]])))


@settings(max_examples=100, derandomize=True)
@given(st.sampled_from(FORMS), json_values)
def test_arbitrary_payloads(form, payload):
    check(form[0] + [_dumps(payload)])


# opening text of a nesting level, and the text that closes it
NESTINGS = [("[", "]"), ('{"t": ', "}"), ('{"summands": [', "]}")]


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from(FORMS), st.sampled_from(NESTINGS), st.sampled_from([1, 40, 999, 5000, 200_000]),
       st.booleans())
def test_nested_payloads(form, nesting, depth, closed):
    opener, closer = nesting
    check(form[0] + [opener * depth + ("0" + closer * depth if closed else "")])


NUMBERS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from([HUGE, "-" + HUGE, "", "x", "1.5", "0x10", " 2", "+2", "1e3"]),
    st.none(),
)


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from(["components R", "components C", "kgroup R", "kgroup C", "kmap ai", "kmap bc"]),
       NUMBERS, NUMBERS, st.sampled_from([None, "0", "1", "2"]))
def test_size_arguments(verb, n, max_label, degree):
    name, choice = verb.split()
    argv = [name, "--map" if name == "kmap" else "--field", choice]
    for flag, value in (("--n", n), ("--max-label", max_label)):
        if value is not None:
            argv += [flag + "=" + value]
    if name == "kgroup" and degree is not None:
        argv += ["--degree", degree]
    if name == "kmap":
        argv += ["--class", json.dumps({"degree": 1, "terms": []})]
    check(argv)
