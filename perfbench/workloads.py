"""Seeded request pools for the four benchmark workloads, and their checks.

Each workload is a fixed list of requests built from the seed.  One pass
runs the list in order; a run repeats whole passes, so every run sees the
same request mix whatever its length.  A CLI request is an argv for
``temperedk.cli.main``; a ``lib_diagram`` request is one commuting-diagram
check made through library calls.

Every request carries a check that is applied to its outcome outside the
timed region.  The expected results are derived here from the paper's
formulas (slot rules of the correspondence, closed-form K-group ranks,
label-wise K-theory maps), not from the package under test.  This module
imports only the standard library, so run.py can build inputs without
importing the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable, Optional

WORKLOADS = ("cli_points", "lib_diagram", "kgroup_listing", "kmap_classes")

# A check returns None when the outcome is right, else a short reason.
Check = Callable[[tuple], Optional[str]]


@dataclass
class Request:
    kind: str
    check: Check
    argv: list = field(default_factory=list)  # CLI requests
    param: tuple = ()                          # lib_diagram requests: (side, summands)


def digest(outcome: tuple) -> str:
    """Digest of what a user sees: exit code and stdout (or a library result).

    stderr is left out because error details may quote interpreter messages.
    """
    return hashlib.sha256(repr(outcome[:2]).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- documents


def _frac(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def _dumps(doc) -> str:
    # the documented CLI output format: sorted keys, two-space indent
    return json.dumps(doc, indent=2, sort_keys=True)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-24, 24), rng.randint(1, 12))


def _slot_key(slot):
    label, t = slot
    if isinstance(label, str):
        return (1, 0 if label == "id" else 1, t)
    return (0, label, t)


def _real_point_doc(discrete_slots, sign_slots) -> dict:
    """Normal-form GL(n, R) point document from (label, t) slots."""
    slots = sorted(discrete_slots + sign_slots, key=_slot_key)
    discrete = sorted(label for label, _ in discrete_slots)
    signs = sorted((label for label, _ in sign_slots), key=lambda s: s != "id")
    q, r = len(discrete), len(signs)
    return {
        "field": "R", "n": 2 * q + r, "q": q, "r": r,
        "discrete": discrete, "signs": signs,
        "coords": [{"label": label, "t": _frac(t)} for label, t in slots],
    }


def _complex_point_doc(slots) -> dict:
    slots = sorted(slots, key=_slot_key)
    return {
        "field": "C", "n": len(slots), "labels": [label for label, _ in slots],
        "coords": [{"label": label, "t": _frac(t)} for label, t in slots],
    }


def _raw_coords(slots, rng) -> list:
    coords = [{"label": label, "t": _frac(t)} for label, t in slots]
    rng.shuffle(coords)
    return coords


def _real_shapes(sizes, count) -> list:
    """count (n, q) shapes: n taken in turn from sizes, and q (the number of
    two-dimensional blocks) in turn from 0..n//2, so the shape mix does not
    depend on the seed."""
    shapes = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        shapes.append((n, i // len(sizes) % (n // 2 + 1)))
    return shapes


def _random_real_summands(rng, n, q):
    """Raw real parameter of dimension n with q two-dimensional summands:
    ('d', ell, t) or ('c', eps, t), in random order."""
    out = [("d", rng.randint(-6, 6), _rational(rng)) for _ in range(q)]
    out += [("c", rng.randint(0, 1), _rational(rng)) for _ in range(n - 2 * q)]
    rng.shuffle(out)
    return out


def _random_real_slots(rng, n, q):
    """Slots of a random GL(n, R) point: q discrete labels >= 1 and n - 2q signs."""
    discrete = [(rng.randint(1, 6), _rational(rng)) for _ in range(q)]
    signs = [(rng.choice(("id", "sgn")), _rational(rng)) for _ in range(n - 2 * q)]
    return discrete, signs


def _real_point_input(rng, discrete, signs) -> dict:
    doc = _real_point_doc(discrete, signs)
    doc["coords"] = _raw_coords(discrete + signs, rng)
    return doc


def _complex_point_input(rng, slots) -> dict:
    doc = _complex_point_doc(slots)
    doc["coords"] = _raw_coords(slots, rng)
    return doc


# ------------------------------------------------------------------- checks


def expect_exact(expected: str, outcome: tuple) -> Optional[str]:
    rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if err:
        return "unexpected stderr"
    if out != expected + "\n":
        return "stdout differs from the expected document"
    return None


def expect_rejected(outcome: tuple) -> Optional[str]:
    """Exit 2, nothing on stdout, exactly one JSON error line on stderr."""
    rc, out, err = outcome
    if rc != 2:
        return f"exit code {rc}, expected 2"
    if out:
        return "stdout not empty on a rejected request"
    lines = err.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} stderr lines, expected one"
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return "stderr is not a JSON document"
    if not isinstance(doc, dict) or set(doc) != {"error", "detail"}:
        return "error document keys are not {error, detail}"
    return None


def expect_true(outcome: tuple) -> Optional[str]:
    ok, _ = outcome
    return None if ok is True else f"diagram check failed: {ok!r}"


def _exact(argv, expected_doc) -> Request:
    return Request(argv[0], partial(expect_exact, _dumps(expected_doc)), argv=argv)


# --------------------------------------------------------------- cli_points


def _llc_real_parameter(rng, n, q) -> Request:
    summands = _random_real_summands(rng, n, q)
    discrete, signs, docs = [], [], []
    for kind, a, t in summands:
        if kind == "d":
            docs.append({"kind": "discrete", "ell": a, "t": _frac(t)})
            if a == 0:  # ell = 0 splits into the two sign characters
                signs += [("id", t), ("sgn", t)]
            else:
                discrete.append((abs(a), t))
        else:
            docs.append({"kind": "character", "eps": a, "t": _frac(t)})
            signs.append(("id" if a == 0 else "sgn", t))
    argv = ["llc", "--parameter", json.dumps({"side": "R", "summands": docs})]
    if rng.random() < 0.3:
        argv += ["--field", "R"]
    return _exact(argv, _real_point_doc(discrete, signs))


def _llc_complex_parameter(rng, n) -> Request:
    slots = [(rng.randint(-6, 6), _rational(rng)) for _ in range(n)]
    docs = [{"ell": ell, "t": _frac(t)} for ell, t in slots]
    argv = ["llc", "--parameter", json.dumps({"side": "C", "summands": docs})]
    return _exact(argv, _complex_point_doc(slots))


def _llc_point(rng, i) -> Request:
    if i % 2 == 0:
        n = 1 + i // 2 % 8
        discrete, signs = _random_real_slots(rng, n, i // 16 % (n // 2 + 1))
        payload = _real_point_input(rng, discrete, signs)
        summands = [(1, ell, t, {"kind": "discrete", "ell": ell, "t": _frac(t)}) for ell, t in discrete]
        for label, t in signs:
            eps = 0 if label == "id" else 1
            summands.append((0, eps, t, {"kind": "character", "eps": eps, "t": _frac(t)}))
        expected = {"side": "R", "summands": [s[3] for s in sorted(summands, key=lambda s: s[:3])]}
    else:
        slots = [(rng.randint(-6, 6), _rational(rng)) for _ in range(1 + i // 2 % 6)]
        payload = _complex_point_input(rng, slots)
        expected = {"side": "C", "summands": [{"ell": l, "t": _frac(t)} for l, t in sorted(slots)]}
    return _exact(["llc", "--point", json.dumps(payload)], expected)


def _basechange(rng, n, q) -> Request:
    discrete, signs = _random_real_slots(rng, n, q)
    image = [(0, 2 * t) for _, t in signs]
    for ell, t in discrete:
        image += [(ell, t), (-ell, t)]
    payload = _real_point_input(rng, discrete, signs)
    return _exact(["basechange", "--point", json.dumps(payload)], _complex_point_doc(image))


def _autoinduce(rng, n) -> Request:
    slots = [(rng.randint(-6, 6), _rational(rng)) for _ in range(n)]
    discrete, signs = [], []
    for ell, t in slots:
        if ell == 0:
            signs += [("id", t / 2), ("sgn", t / 2)]
        else:
            discrete.append((abs(ell), t))
    payload = _complex_point_input(rng, slots)
    return _exact(["autoinduce", "--point", json.dumps(payload)], _real_point_doc(discrete, signs))


def _repring(rng, k) -> Request:
    labels = rng.sample(range(-5, 6), k)
    coeffs = {label: rng.choice((-3, -2, -1, 1, 2, 3)) for label in labels}
    c0 = coeffs.get(0, 0)
    payload = {"ring": "U(1)", "coeffs": [{"label": l, "coeff": c} for l, c in coeffs.items()]}
    expected = {"ring": "Z/2Z", "coeffs": [{"label": "1", "coeff": c0}, {"label": "eps", "coeff": c0}] if c0 else []}
    return _exact(["repring-bc", "--element", json.dumps(payload)], expected)


def _invalid(rng, i) -> Request:
    """Malformed or invalid input; the CLI must exit 2 with one JSON error line."""
    t = _frac(_rational(rng))
    ell = rng.randint(1, 6)
    cases = (
        ["llc", "--parameter", '{"side": "R", "summands": [{"kind": "discrete", "ell": %d' % ell],
        ["llc", "--parameter", json.dumps({"side": "R", "summands": [{"kind": "discrete", "t": t}]})],
        ["llc", "--parameter", json.dumps({"side": "C", "summands": [{"ell": ell, "t": f"{ell}/0"}]})],
        ["llc", "--field", "C", "--parameter", json.dumps({"side": "R", "summands": [{"kind": "character", "eps": 1, "t": t}]})],
        ["basechange", "--point", json.dumps({"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [ell], "signs": [],
                                              "coords": [{"label": ell + 1, "t": t}]})],
        ["basechange", "--point", json.dumps({"field": "C", "n": 1, "labels": [ell], "coords": [{"label": ell, "t": t}]})],
        ["autoinduce", "--point", json.dumps({"field": "C", "n": 2, "labels": [ell], "coords": [{"label": ell, "t": t}]})],
        ["repring-bc", "--element", json.dumps({"ring": "Z/2Z", "coeffs": [{"label": "eps", "coeff": ell}]})],
        ["components", "--field", "R", "--n", "0", "--max-label", str(ell)],
        ["kmap", "--map", "ai", "--n", "1", "--class", json.dumps({"degree": 2, "terms": []})],
    )
    return Request("invalid", expect_rejected, argv=cases[i % len(cases)])


def _cycle(sizes, count) -> list:
    """count sizes taken in turn, so the size mix does not depend on the seed"""
    return [sizes[i % len(sizes)] for i in range(count)]


def _cli_points(rng, tiny) -> list:
    # 150 requests a pass, 5% of them rejected inputs
    counts = (14, 7, 7, 7, 4, 4, 10) if tiny else (45, 23, 22, 23, 15, 15, 7)
    real, cplx, point, bc, ai, ring, bad = counts
    reqs = [_llc_real_parameter(rng, n, q) for n, q in _real_shapes(range(1, 9), real)]
    reqs += [_llc_complex_parameter(rng, n) for n in _cycle(range(1, 7), cplx)]
    reqs += [_llc_point(rng, i) for i in range(point)]
    reqs += [_basechange(rng, n, q) for n, q in _real_shapes(range(1, 9), bc)]
    reqs += [_autoinduce(rng, n) for n in _cycle(range(1, 5), ai)]
    reqs += [_repring(rng, k) for k in _cycle(range(1, 5), ring)]
    reqs += [_invalid(rng, i) for i in range(bad)]
    first, rest = reqs[0], reqs[1:]
    rng.shuffle(rest)
    return [first] + rest  # the first request is always llc --parameter with n = 1


# -------------------------------------------------------------- lib_diagram


def _lib_diagram(rng, tiny) -> list:
    real, cplx = (24, 12) if tiny else (132, 88)
    reqs = [Request("real", expect_true, param=("R", _random_real_summands(rng, n, q)))
            for n, q in _real_shapes(range(1, 13), real)]
    reqs += [Request("complex", expect_true, param=("C", [(rng.randint(-6, 6), _rational(rng)) for _ in range(n)]))
             for n in _cycle(range(1, 7), cplx)]
    first, rest = reqs[0], reqs[1:]
    rng.shuffle(rest)
    return [first] + rest  # the first request is always a real parameter with n = 1


def diagram_source(param) -> str:
    """Stand-alone program that imports the package and runs one diagram check."""
    return "\n".join((
        "import sys",
        "sys.path.insert(0, 'perfbench')",
        "from fractions import Fraction",
        "from temperedk import langlands, weil",
        "from diagram import build_parameter, diagram_check",
        f"print(diagram_check(weil, langlands, build_parameter(weil, {param!r}))[0])",
    ))


# ----------------------------------------------------------- kgroup_listing


def kgroup_ranks(field_name: str, n: int, max_label: int) -> dict:
    """Closed-form ranks of the truncated K-groups (the paper's families)."""
    L = max_label
    if field_name == "C":
        return {n % 2: comb(2 * L + 1, n), (n + 1) % 2: 0}
    q = n // 2
    if n % 2 == 0:
        return {q % 2: comb(L, q), (q + 1) % 2: comb(L, q - 1)}
    return {(q + 1) % 2: 2 * comb(L, q), q % 2: 0}


def component_count(field_name: str, n: int, max_label: int) -> int:
    """Number of tempered-dual components: multiset binomials per Levi class."""
    if field_name == "C":
        return comb(2 * max_label + n, n)
    return sum(comb(max_label + q - 1, q) * (n - 2 * q + 1) for q in range(n // 2 + 1))


def _generator_ok(doc, field_name, n, L) -> bool:
    if doc.get("field") != field_name or doc.get("n") != n:
        return False
    if field_name == "C":
        labels = doc["labels"]
        return len(labels) == n and labels == sorted(set(labels)) and all(-L <= l <= L for l in labels)
    discrete, signs = doc["discrete"], doc["signs"]
    return (discrete == sorted(set(discrete)) and all(1 <= l <= L for l in discrete)
            and len(discrete) == doc["q"] and len(signs) == doc["r"] and n == 2 * doc["q"] + doc["r"]
            and signs in ([], ["id"], ["sgn"], ["id", "sgn"]))


def check_kgroup(field_name, n, L, degree, fmt, outcome) -> Optional[str]:
    rc, out, err = outcome
    if rc != 0 or err:
        return f"exit code {rc}, expected 0"
    ranks = kgroup_ranks(field_name, n, L)
    degrees = (0, 1) if degree is None else (degree,)
    if fmt == "table":
        lines = out.splitlines()
        if lines[0] != f"field={field_name} n={n} max_label={L}":
            return "table header differs"
        pos = 1
        for j in degrees:
            if not lines[pos].startswith(f"K^{j}  rank {ranks[j]}  ("):
                return f"table K^{j} rank line differs from the closed form"
            rows = lines[pos + 1:pos + 1 + ranks[j]]
            if len(rows) != ranks[j] or not all(r.startswith("  ") for r in rows) or len(set(rows)) != len(rows):
                return f"table K^{j} generator rows differ"
            pos += 1 + ranks[j]
        return None if pos == len(lines) else "extra table lines"
    doc = json.loads(out)
    if (doc["field"], doc["n"], doc["max_label"]) != (field_name, n, L):
        return "kgroup header differs"
    if sorted(doc["degrees"]) != [str(j) for j in degrees]:
        return "kgroup degrees differ"
    for j in degrees:
        info = doc["degrees"][str(j)]
        gens = info["generators"]
        if info["rank"] != ranks[j] or len(gens) != ranks[j]:
            return f"K^{j} rank {info['rank']} with {len(gens)} generators, closed form {ranks[j]}"
        if len({json.dumps(g, sort_keys=True) for g in gens}) != len(gens):
            return f"K^{j} generators repeat"
        if not all(_generator_ok(g, field_name, n, L) for g in gens):
            return f"K^{j} has a malformed generator"
    return None


def check_components(field_name, n, L, fmt, outcome) -> Optional[str]:
    rc, out, err = outcome
    if rc != 0 or err:
        return f"exit code {rc}, expected 0"
    want = component_count(field_name, n, L)
    if fmt == "table":
        lines = out.splitlines()
        if lines[0] != f"field={field_name} n={n} max_label={L} count={want}":
            return "components table header differs from the closed form"
        return None if len(lines) == want + 1 and len(set(lines)) == len(lines) else "components table rows differ"
    doc = json.loads(out)
    comps = doc["components"]
    if doc["count"] != want or len(comps) != want:
        return f"count {doc['count']} with {len(comps)} components, closed form {want}"
    if len({json.dumps(c, sort_keys=True) for c in comps}) != want:
        return "components repeat"
    if not all(c["field"] == field_name and c["n"] == n for c in comps):
        return "component with the wrong field or n"
    return None


# (verb, field, n, max_labels): two sizes per group, outputs of about
# 0.01 to 0.3 MB, small enough for many passes in a run
_GRID = (
    ("kgroup", "R", 4, (14, 20)),
    ("kgroup", "R", 5, (14, 20)),
    ("kgroup", "R", 6, (14, 20)),
    ("kgroup", "R", 7, (11, 17)),
    ("kgroup", "R", 8, (11, 14)),
    ("kgroup", "C", 2, (8, 10)),
    ("kgroup", "C", 3, (6, 10)),
    ("kgroup", "C", 4, (4, 6)),
    ("components", "R", 4, (16, 20)),
    ("components", "R", 5, (12, 20)),
    ("components", "R", 6, (8, 16)),
    ("components", "R", 7, (8, 12)),
    ("components", "R", 8, (6, 10)),
    ("components", "C", 2, (7, 10)),
    ("components", "C", 3, (5, 10)),
    ("components", "C", 4, (3, 5)),
)
_TINY_GRID = (
    ("kgroup", "R", 4, (5,)),
    ("kgroup", "C", 2, (3,)),
    ("components", "R", 4, (3,)),
    ("components", "C", 2, (2,)),
)
# one 1.35 MB listing keeps rendering and peak memory at the MB scale
_LARGE = ("kgroup", "R", 8, 20, None, "json")


def _listings(grid) -> list:
    """(verb, field, n, max_label, degree, format): every grid size in JSON and
    in table form, plus one degree in JSON for the largest group of each n."""
    specs = []
    for verb, field_name, n, bounds in grid:
        for L in bounds:
            specs += [(verb, field_name, n, L, None, "json"), (verb, field_name, n, L, None, "table")]
        if verb == "kgroup":
            specs.append((verb, field_name, n, bounds[-1], n % 2, "json"))
    return specs


def _listing(verb, field_name, n, L, degree, fmt) -> Request:
    argv = [verb, "--field", field_name, "--n", str(n), "--max-label", str(L)]
    if degree is not None:
        argv += ["--degree", str(degree)]
    if fmt == "table":
        argv += ["--format", "table"]
    if verb == "kgroup":
        check = partial(check_kgroup, field_name, n, L, degree, fmt)
    else:
        check = partial(check_components, field_name, n, L, fmt)
    return Request(verb, check, argv=argv)


def _kgroup_listing(rng, tiny) -> list:
    specs = _listings(_TINY_GRID) if tiny else _listings(_GRID) + [_LARGE]
    first, rest = specs[0], specs[1:]
    rng.shuffle(rest)
    return [_listing(*spec) for spec in [first] + rest]


# ------------------------------------------------------------- kmap_classes


def _real_gen_doc(discrete, signs=()) -> dict:
    q, r = len(discrete), len(signs)
    return {"field": "R", "n": 2 * q + r, "q": q, "r": r, "discrete": list(discrete), "signs": list(signs)}


def _complex_gen_doc(labels) -> dict:
    return {"field": "C", "n": len(labels), "labels": list(labels)}


def _coeff(rng) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _class_payload(rng, degree, terms) -> str:
    terms = [{"gen": gen, "coeff": c} for gen, c in terms]
    rng.shuffle(terms)
    return json.dumps({"degree": degree, "terms": terms})


def _kmap_ai(rng, n, label_sets, max_label=None, pair_family=False) -> Request:
    """ai on a class; the r = 0 family maps label-wise, the sign-pair family to 0."""
    coeffs = [_coeff(rng) for _ in label_sets]
    if pair_family:
        degree = 1 - n % 2
        terms = [(_real_gen_doc(s, ("id", "sgn")), c) for s, c in zip(label_sets, coeffs)]
        image = []
    else:
        degree = n % 2
        terms = [(_real_gen_doc(s), c) for s, c in zip(label_sets, coeffs)]
        image = sorted(zip(label_sets, coeffs))
    argv = ["kmap", "--map", "ai", "--n", str(n)]
    if max_label is not None:
        argv += ["--max-label", str(max_label)]
    argv += ["--class", _class_payload(rng, degree, terms)]
    expected = {"degree": degree, "terms": [{"gen": _complex_gen_doc(s), "coeff": c} for s, c in image]}
    return _exact(argv, expected)


def _kmap_bc(rng, n, label_sets, max_label=None) -> Request:
    """bc is zero for n > 1; for n = 1 only label 0 survives, as id + sgn."""
    degree = n % 2
    coeffs = [_coeff(rng) for _ in label_sets]
    terms = [(_complex_gen_doc(s), c) for s, c in zip(label_sets, coeffs)]
    c0 = sum(c for s, c in zip(label_sets, coeffs) if n == 1 and s == (0,))
    image = [{"gen": _real_gen_doc((), (sign,)), "coeff": c0} for sign in ("id", "sgn")] if c0 else []
    argv = ["kmap", "--map", "bc", "--n", str(n)]
    if max_label is not None:
        argv += ["--max-label", str(max_label)]
    argv += ["--class", _class_payload(rng, degree, terms)]
    return _exact(argv, {"degree": degree, "terms": image})


def _smallest_label_bound(n, terms) -> int:
    L = n
    while comb(L, n) < terms:
        L += 1
    return L


def _sparse_sets(rng, universe, bound, k) -> list:
    """k distinct label sets from universe, one of them holding the bound,
    so the implicit max_label (the largest label in the payload) is fixed."""
    sets = list(universe)
    top = rng.choice([s for s in sets if bound in s] or sets)
    sets.remove(top)
    return sorted([top] + rng.sample(sets, min(k, len(sets) + 1) - 1))


def _kmap_classes(rng, tiny) -> list:
    ladder = (5, 10, 20) if tiny else (25, 50, 100, 200, 400, 800)
    bc_bounds = (2, 3) if tiny else (5, 10, 15, 20)
    sparse_ai, pairs, sparse_bc1, sparse_bc2 = (3, 1, 2, 1) if tiny else (30, 4, 14, 6)
    reqs = []
    for n in (1, 2, 3):  # sparse small classes at the implicit max_label
        for i, bound in enumerate(_cycle((6, 9, 12), sparse_ai)):
            universe = combinations(range(1, bound + 1), n)
            reqs.append(_kmap_ai(rng, n, _sparse_sets(rng, universe, bound, 1 + i % 6)))
        for i, bound in enumerate(_cycle((6, 12), pairs)):
            universe = combinations(range(1, bound + 1), n - 1)
            reqs.append(_kmap_ai(rng, n, _sparse_sets(rng, universe, bound, 1 + i % 3), pair_family=True))
    for n, count, bounds in ((1, sparse_bc1, (5, 9)), (2, sparse_bc2, (3, 5))):
        for i, bound in enumerate(_cycle(bounds, count)):
            universe = combinations(range(-bound, bound + 1), n)
            reqs.append(_kmap_bc(rng, n, _sparse_sets(rng, universe, bound, 1 + i % 4)))
    for n in (2, 3):  # ai on a ladder of term counts
        for terms in ladder:
            L = _smallest_label_bound(n, terms)
            sets = rng.sample(list(combinations(range(1, L + 1), n)), terms)
            reqs.append(_kmap_ai(rng, n, sets, max_label=L))
    for n in (1, 2, 3, 4):  # bc over a grid of sizes
        for L in bc_bounds:
            sets = {tuple(sorted(rng.sample(range(-L, L + 1), n))) for _ in range(1 + n % 4)}
            reqs.append(_kmap_bc(rng, n, sorted(sets), max_label=L))
    first, rest = reqs[0], reqs[1:]
    rng.shuffle(rest)
    return [first] + rest  # the first request is always a sparse ai class with n = 1


_POOLS = {
    "cli_points": _cli_points,
    "lib_diagram": _lib_diagram,
    "kgroup_listing": _kgroup_listing,
    "kmap_classes": _kmap_classes,
}


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """The request pool of one pass; ``tiny`` shrinks every size for smoke runs."""
    return _POOLS[workload](random.Random(f"{workload}:{seed}"), tiny)
