"""JSON codecs for the CLI payloads and results.

Scalars travel as exact-rational strings "p/q" (or "p" for integers).
Component documents carry the field, the size n and the label data;
point documents add a "coords" list; K-classes are degree plus a sorted
term list; a component document is checked in one pass.  The
``kgroup``/``components`` documents hold a ``ComponentListing``, which
``render`` writes block by block: one row template per block (the
templates of the row's component shapes, joined), filled with each
label set, so no component is built.  A K-class document holds the
``KClass``, whose terms are written from one ``{"coeff", "gen"}``
template per generator shape.  Rendering is deterministic: sorted keys,
fixed indentation, so identical invocations give identical bytes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .dual import (
    SIGN_ID,
    SIGN_SGN,
    Component,
    ComplexComponent,
    ComponentListing,
    RealComponent,
    TemperedPoint,
)
from .errors import UsageError
from .ktheory import GradedKGroup, KClass, RepRingElement, _check_degree
from .weil import (
    REAL,
    ComplexCharacter,
    LParameter,
    RealCharacter,
    RealDiscreteSummand,
    _check_side,
    _is_int,
)


def fraction_to_str(t: Fraction, name: str = "rational") -> str:
    """``t`` as "p" or "p/q"; UsageError naming ``name`` if a part is too long to print."""
    t = Fraction(t)
    try:
        return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"
    except ValueError:
        # a map can lengthen a scalar that was accepted at decode (base change doubles it)
        raise UsageError(
            f"{name} has a numerator or denominator longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def fraction_from_json(value) -> Fraction:
    if _is_int(value):
        t = Fraction(value)
    elif isinstance(value, str):
        try:
            t = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {value!r}: {exc}") from None
    else:
        raise UsageError(f'rationals must be integers or "p/q" strings, got {value!r}')
    # a part that cannot be printed back would fail only at render time;
    # 8**limit < 10**limit, so the power is only computed for long parts
    limit = sys.get_int_max_str_digits()
    part = max(abs(t.numerator), t.denominator)
    if limit and part.bit_length() > 3 * limit and part >= 10**limit:
        raise UsageError(f"rational has a numerator or denominator longer than {limit} digits")
    return t


def _require(doc, key: str, kind=None):
    """``doc[key]``; UsageError if ``doc`` is not an object, ``key`` is missing
    or, given a ``kind``, the value is not one."""
    try:
        value = doc[key]
    except KeyError:
        raise UsageError(f"missing key {key!r}") from None
    except TypeError:
        # a JSON value other than an object takes no string key
        raise UsageError(f"expected a JSON object, got {type(doc).__name__}") from None
    # the exact type, as JSON gives, is tested first
    if kind is None or type(value) is kind or (_is_int(value) if kind is int else isinstance(value, kind)):
        return value
    raise UsageError(f"key {key!r} has the wrong type")


def _int_list(values, what) -> list:
    if isinstance(values, list):
        for v in values:
            if type(v) is not int and not _is_int(v):
                break
        else:
            return values
    raise UsageError(f"{what} must be a list of integers")


def component_to_doc(c: Component) -> dict:
    if isinstance(c, RealComponent):
        return {
            "field": "R",
            "n": c.n,
            "q": c.q,
            "r": c.r,
            "discrete": list(c.discrete),
            "signs": list(c.signs),
        }
    return {"field": "C", "n": c.n, "labels": list(c.labels)}


def component_from_doc(doc) -> Component:
    """The component of a generator document, checked in one pass: each key
    once, in the order field, n, then the keys of that field's components."""
    # a tuple is built left to right, so the keys are checked in order
    field_name, n = _require(doc, "field", str), _require(doc, "n", int)
    if field_name == "R":
        q, r = _require(doc, "q", int), _require(doc, "r", int)
        discrete = _int_list(_require(doc, "discrete"), '"discrete"')
        signs = _require(doc, "signs", list)
        id_count, sgn_count = signs.count(SIGN_ID), signs.count(SIGN_SGN)
        if id_count + sgn_count != len(signs):
            raise UsageError(f'signs must be "{SIGN_ID}" or "{SIGN_SGN}"')
        if len(discrete) != q or len(signs) != r or n != 2 * q + r:
            raise UsageError("inconsistent component: need len(discrete) = q, len(signs) = r, n = 2q + r")
        return RealComponent(discrete, id_count, sgn_count)
    if field_name == "C":
        labels = _int_list(_require(doc, "labels"), '"labels"')
        if len(labels) != n:
            raise UsageError("inconsistent component: need len(labels) = n")
        return ComplexComponent(labels)
    raise UsageError(f'field must be "R" or "C", got {field_name!r}')


def point_to_doc(p: TemperedPoint) -> dict:
    doc = component_to_doc(p.component)
    doc["coords"] = [
        {"label": label, "t": fraction_to_str(t, f"coordinate t of slot {label}")}
        for label, t in p.coords
    ]
    return doc


def point_from_doc(doc) -> TemperedPoint:
    comp = component_from_doc(doc)
    coords = []
    for entry in _require(doc, "coords", list):
        # TemperedPoint checks the labels
        coords.append((_require(entry, "label"), fraction_from_json(_require(entry, "t"))))
    return TemperedPoint(comp, tuple(coords))


def parameter_to_doc(p: LParameter) -> dict:
    summands = []
    for i, s in enumerate(p.summands):
        t = fraction_to_str(s.t, f"coordinate t of summand {i}")
        if isinstance(s, ComplexCharacter):
            summands.append({"ell": s.ell, "t": t})
        elif isinstance(s, RealCharacter):
            summands.append({"kind": "character", "eps": s.eps, "t": t})
        else:
            summands.append({"kind": "discrete", "ell": s.ell, "t": t})
    return {"side": p.side, "summands": summands}


def parameter_from_doc(doc) -> LParameter:
    side = _check_side(_require(doc, "side", str))
    entries = _require(doc, "summands", list)
    summands = []
    if side == REAL:
        for entry in entries:
            kind = _require(entry, "kind", str)
            t = fraction_from_json(_require(entry, "t"))
            if kind == "character":
                summands.append(RealCharacter(_require(entry, "eps", int), t))
            elif kind == "discrete":
                summands.append(RealDiscreteSummand(_require(entry, "ell", int), t))
            else:
                raise UsageError(f'summand kind must be "character" or "discrete", got {kind!r}')
    else:
        for entry in entries:
            summands.append(
                ComplexCharacter(
                    _require(entry, "ell", int), fraction_from_json(_require(entry, "t"))
                )
            )
    return LParameter(side, tuple(summands))


def kclass_to_doc(x: KClass) -> dict:
    # render writes the class as its list of {"coeff", "gen"} term documents
    return {"degree": x.degree, "terms": x}


def kclass_from_doc(doc) -> KClass:
    # checked before any term is decoded, so a class-level fault is reported first
    degree = _check_degree(_require(doc, "degree", int))
    terms = []
    for entry in _require(doc, "terms", list):
        gen = component_from_doc(_require(entry, "gen"))
        terms.append((gen, _require(entry, "coeff", int)))
    return KClass(degree, tuple(terms))


def repring_to_doc(x: RepRingElement) -> dict:
    return {
        "ring": x.ring,
        "coeffs": [{"label": label, "coeff": coeff} for label, coeff in x.coeffs],
    }


def repring_from_doc(doc) -> RepRingElement:
    ring = _require(doc, "ring", str)
    coeffs = []
    for entry in _require(doc, "coeffs", list):
        label = _require(entry, "label")
        coeffs.append((label, _require(entry, "coeff", int)))
    return RepRingElement(ring, tuple(coeffs))


def kgroup_to_doc(group: GradedKGroup, degrees=(0, 1)) -> dict:
    out = {
        "field": group.field,
        "n": group.n,
        "max_label": group.max_label,
        "degrees": {},
    }
    for j in degrees:
        listing = group.listing(j)
        out["degrees"][str(j)] = {"rank": listing.size, "schema": group.schema(j), "generators": listing}
    return out


def render(doc: dict, fmt: str = "json") -> str:
    if fmt not in ("json", "table"):
        raise UsageError(f"unknown format {fmt!r}")
    try:
        return _json(doc, "") if fmt == "json" else _render_table(doc)
    except ValueError:
        # a map or a sum can lengthen an integer that was accepted at decode
        raise UsageError(
            f"the result holds an integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


# stands in for each label while a template is built; no other field of a
# component document prints these digits
_LABEL_SLOT = 987654321987654321


def _template(c: Component, pad) -> str:
    """The text of ``c`` with a ``%d`` for each label: its JSON nested at
    ``pad``, or its table line when ``pad`` is None."""
    doc = component_to_doc(c)
    name = "discrete" if isinstance(c, RealComponent) else "labels"
    doc[name] = [_LABEL_SLOT] * len(doc[name])
    if pad is None:
        text = _doc_line(doc)
    else:
        text = _json(doc, pad)
    return text.replace("%", "%%").replace(str(_LABEL_SLOT), "%d")


def _terms(x: KClass, pad) -> list[str]:
    """The terms of ``x`` as texts: their ``{"coeff", "gen"}`` JSON nested at
    ``pad``, or their table lines when ``pad`` is None.  Each term fills the
    template of its generator's shape, built once from ``_template``."""
    texts, templates = [], {}
    for gen, coeff in x.terms:
        if isinstance(gen, RealComponent):
            labels, key = gen.discrete, (len(gen.discrete), gen.id_count, gen.sgn_count)
        else:
            labels, key = gen.labels, len(gen.labels)
        template = templates.get(key)
        if template is None:
            if pad is None:
                template = "  %+d * [" + _template(gen, None) + "]"
            else:
                inner = pad + "  "
                template = ("{\n" + inner + '"coeff": %d,\n' + inner + '"gen": '
                            + _template(gen, inner) + "\n" + pad + "}")
            templates[key] = template
        texts.append(template % (coeff, *labels))
    return texts


def _rows(listing: ComponentListing, pad, sep: str) -> list[str]:
    """The rows of ``listing``: each row's components as ``_template(c, pad)``
    texts joined by ``sep``.

    Each block's row template, the templates of one row's components
    joined by ``sep``, is built once and filled with every label set.
    """
    texts = []
    for block in listing.blocks:
        if block.size:
            # every row of a block has the same shapes, so any label set serves
            shapes = block.components((block.labels[0],) * block.k)
            template = sep.join(_template(c, pad) for c in shapes)
            m = len(shapes)
            texts += [template % (labels * m) for labels in block.label_sets()]
    return texts


def _json(value, pad: str) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` nested at ``pad``,
    for documents with string keys; listings are expanded into their components'
    documents and K-classes into their terms' ``{"coeff", "gen"}`` documents."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if _is_int(value):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, ComponentListing, KClass)):
        items = (_rows(value, inner, ",\n" + inner) if isinstance(value, ComponentListing)
                 else _terms(value, inner) if isinstance(value, KClass)
                 else [_json(v, inner) for v in value])
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if items else "[]"
    return json.dumps(value)


def _doc_line(doc: dict) -> str:
    if doc.get("field") == "R":
        return f"q={doc['q']} discrete={doc['discrete']} signs={doc['signs']}"
    return f"labels={doc['labels']}"


def _render_table(doc: dict) -> str:
    lines = []
    if "components" in doc:
        lines.append(f"field={doc['field']} n={doc['n']} max_label={doc['max_label']} count={doc['count']}")
        lines.extend(_rows(doc["components"], None, "\n"))
    elif "degrees" in doc:
        lines.append(f"field={doc['field']} n={doc['n']} max_label={doc['max_label']}")
        for j in sorted(doc["degrees"]):
            info = doc["degrees"][j]
            lines.append(f"K^{j}  rank {info['rank']}  ({info['schema']})")
            lines.extend("  " + row for row in _rows(info["generators"], None, "\n  "))
    elif "coords" in doc:
        lines.append(f"component: field={doc['field']} " + _doc_line(doc))
        for entry in doc["coords"]:
            lines.append(f"  label={entry['label']} t={entry['t']}")
    elif "summands" in doc:
        lines.append(f"side={doc['side']}")
        for entry in doc["summands"]:
            parts = [f"{k}={entry[k]}" for k in ("kind", "eps", "ell", "t") if k in entry]
            lines.append("  " + " ".join(parts))
    elif "terms" in doc:
        lines.append(f"degree={doc['degree']}")
        lines.extend(_terms(doc["terms"], None) or ["  0"])
    elif "coeffs" in doc:
        lines.append(f"ring={doc['ring']}")
        if not doc["coeffs"]:
            lines.append("  0")
        for entry in doc["coeffs"]:
            lines.append(f"  {entry['coeff']:+d} * [{entry['label']}]")
    return "\n".join(lines)
