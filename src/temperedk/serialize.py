"""JSON codecs for the CLI payloads and results.

Scalars travel as exact-rational strings "p/q" (or "p" for integers); an
exponent form past the digit cap is refused from its digit counts, before
10**e is built.  Component documents carry the field, the size n and the
label data; point documents add a "coords" list; K-classes are degree
plus a sorted term list; a component document is checked in one pass.
Every writer appends to one parts list, which ``render`` joins once.  A
``kgroup``/``components`` listing is written with no component built per
row: a block's rows are label texts joined into the constant pieces of
its shape texts.  A K-class's terms fill one ``%`` template per generator
shape (a join form measured 1.3-1.6x slower on the 800-term ``ai``
class).  Output has sorted keys and fixed indentation.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
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


def _too_long(name: str) -> UsageError:
    return UsageError(f"{name} has a numerator or denominator longer than {sys.get_int_max_str_digits()} digits")


def fraction_to_str(t: Fraction, name: str = "rational") -> str:
    """``t`` as "p" or "p/q"; UsageError naming ``name`` if a part is too long to print."""
    t = Fraction(t)
    try:
        return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"
    except ValueError:
        # a map can lengthen a scalar that was accepted at decode (base change doubles it)
        raise _too_long(name) from None


# a Fraction literal m * 10**e: its integer digits, fraction digits and exponent
_EXPONENT = re.compile(r"(?i)\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d+(?:_\d+)*)?)?e([-+]?\d+(?:_\d+)*)\s*")


def fraction_from_json(value) -> Fraction:
    # a part that cannot be printed back would fail only at render time, so it is refused here
    limit = sys.get_int_max_str_digits()
    if _is_int(value):
        t = Fraction(value)
    elif isinstance(value, str):
        if limit and (scaled := _EXPONENT.fullmatch(value)):
            whole, fraction, exponent = (part.replace("_", "").lstrip("+-") for part in scaled.groups(""))
            # read from the digit counts, never building 10**e; Fraction refuses a longer run first
            if max(len(whole), len(fraction), len(exponent)) <= limit:
                if not (int(whole or "0") or int(fraction or "0")):
                    return Fraction(0)
                # the value is m * 10**shift for an integer 1 <= m < 10**len(whole + fraction)
                shift = int(scaled[3]) - len(fraction)
                if shift >= limit or -shift >= limit + len(whole + fraction):
                    raise _too_long("rational")
        try:
            t = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {value!r}: {exc}") from None
    else:
        raise UsageError(f'rationals must be integers or "p/q" strings, got {value!r}')
    # 8**limit < 10**limit, so the power is only computed for long parts
    part = max(abs(t.numerator), t.denominator)
    if limit and part.bit_length() > 3 * limit and part >= 10**limit:
        raise _too_long("rational")
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
        return {"field": "R", "n": c.n, "q": c.q, "r": c.r, "discrete": list(c.discrete), "signs": list(c.signs)}
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
    doc["coords"] = [{"label": label, "t": fraction_to_str(t, f"coordinate t of slot {label}")}
                     for label, t in p.coords]
    return doc


def point_from_doc(doc) -> TemperedPoint:
    comp = component_from_doc(doc)
    # TemperedPoint checks the labels
    coords = [(_require(entry, "label"), fraction_from_json(_require(entry, "t")))
              for entry in _require(doc, "coords", list)]
    return TemperedPoint(comp, tuple(coords))


def parameter_to_doc(p: LParameter) -> dict:
    summands = []
    for i, s in enumerate(p.summands):
        t = fraction_to_str(s.t, f"coordinate t of summand {i}")
        summands.append({"ell": s.ell, "t": t} if isinstance(s, ComplexCharacter)
                        else {"kind": "character", "eps": s.eps, "t": t} if isinstance(s, RealCharacter)
                        else {"kind": "discrete", "ell": s.ell, "t": t})
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
            summands.append(ComplexCharacter(_require(entry, "ell", int), fraction_from_json(_require(entry, "t"))))
    return LParameter(side, tuple(summands))


def kclass_to_doc(x: KClass) -> dict:
    # render writes the class as its list of {"coeff", "gen"} term documents
    return {"degree": x.degree, "terms": x}


def kclass_from_doc(doc) -> KClass:
    # checked before any term is decoded, so a class-level fault is reported first
    degree = _check_degree(_require(doc, "degree", int))
    terms = [(component_from_doc(_require(entry, "gen")), _require(entry, "coeff", int))
             for entry in _require(doc, "terms", list)]
    return KClass(degree, tuple(terms))


def repring_to_doc(x: RepRingElement) -> dict:
    return {"ring": x.ring, "coeffs": [{"label": label, "coeff": coeff} for label, coeff in x.coeffs]}


def repring_from_doc(doc) -> RepRingElement:
    ring = _require(doc, "ring", str)
    coeffs = [(_require(entry, "label"), _require(entry, "coeff", int)) for entry in _require(doc, "coeffs", list)]
    return RepRingElement(ring, tuple(coeffs))


def kgroup_to_doc(group: GradedKGroup, degrees=(0, 1)) -> dict:
    out = {"field": group.field, "n": group.n, "max_label": group.max_label, "degrees": {}}
    for j in degrees:
        listing = group.listing(j)
        out["degrees"][str(j)] = {"rank": listing.size, "schema": group.schema(j), "generators": listing}
    return out


def render(doc: dict, fmt: str = "json") -> str:
    if fmt not in ("json", "table"):
        raise UsageError(f"unknown format {fmt!r}")
    out = []
    try:
        if fmt == "json":
            _json(doc, "", out)
        else:
            _render_table(doc, out)
    except ValueError:
        # a map or a sum can lengthen an integer that was accepted at decode
        raise UsageError(f"the result holds an integer longer than {sys.get_int_max_str_digits()} digits") from None
    return "".join(out)


# stands in for each label while a shape's text is built; no other field prints these digits
_LABEL_SLOT = 987654321987654321
_SLOT_TEXT = str(_LABEL_SLOT)


def _shape_text(c: Component, pad, slots: int) -> str:
    """The text of ``c`` with ``slots`` copies of ``_LABEL_SLOT`` for its
    labels: its JSON nested at ``pad``, or its table line when ``pad`` is None."""
    doc = component_to_doc(c)
    doc["discrete" if isinstance(c, RealComponent) else "labels"] = [_LABEL_SLOT] * slots
    if pad is None:
        return _doc_line(doc)
    out = []
    _json(doc, pad, out)
    return "".join(out)


def _template(c: Component, pad) -> str:
    """The text of ``c`` with a ``%d`` for each label, from ``_shape_text``."""
    slots = len(c.discrete if isinstance(c, RealComponent) else c.labels)
    return _shape_text(c, pad, slots).replace("%", "%%").replace(_SLOT_TEXT, "%d")


def _terms(x: KClass, pad, sep: str) -> list[str]:
    """The terms of ``x`` as texts, each after ``sep``: their ``{"coeff", "gen"}`` JSON nested at ``pad``,
    or their table lines when ``pad`` is None, filled into one ``_template`` per generator shape."""
    texts, templates = [], {}
    for gen, coeff in x.terms:
        if isinstance(gen, RealComponent):
            labels, key = gen.discrete, (len(gen.discrete), gen.id_count, gen.sgn_count)
        else:
            labels, key = gen.labels, len(gen.labels)
        template = templates.get(key)
        if template is None:
            if pad is None:
                template = sep + "  %+d * [" + _template(gen, None) + "]"
            else:
                inner = pad + "  "
                template = (sep + "{\n" + inner + '"coeff": %d,\n' + inner + '"gen": '
                            + _template(gen, inner) + "\n" + pad + "}")
            templates[key] = template
        texts.append(template % (coeff, *labels))
    return texts


def _rows(listing: ComponentListing, pad, sep: str, out: list) -> None:
    """Append to ``out`` the rows of ``listing``, each after ``sep``: a row's components' texts joined
    by ``sep``.  A block's shape texts are built once, with two slot labels, and split at the slots
    into the constant pieces around the label lists (``outer``) and the separator inside a list; a
    k = 0 block is one constant row.  A row's label text is one join; with m > 1 shapes it is joined
    into the m - 1 inner pieces; then the block's rows are joined at once, into three parts."""
    for block in listing.blocks:
        pick = combinations_with_replacement if block.repeat else combinations
        # every row of a block has the same shapes, so the first row's serve; an empty block has none
        first = next(pick(block.labels, block.k), None)
        if first is None:
            continue
        pieces = sep.join(_shape_text(c, pad, 2 if block.k else 0) for c in block.components(first)).split(_SLOT_TEXT)
        outer, label_sep = (pieces[::2], pieces[1]) if block.k else ([pieces[0], ""], "")
        texts = map(label_sep.join, pick(map(str, block.labels), block.k))
        if len(outer) > 2:
            texts = map(str.join, texts, repeat(["", *outer[1:-1], ""]))
        out += [sep + outer[0], (outer[-1] + sep + outer[0]).join(texts), outer[-1]]


def _json(value, pad: str, out: list) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2, sort_keys=True)`` nested at ``pad``,
    for documents with string keys; listings are expanded into their components' documents and
    K-classes into their terms' ``{"coeff", "gen"}`` documents."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif _is_int(value):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple, ComponentListing, KClass)):
        inner = pad + "  "
        sep = ",\n" + inner
        is_dict = isinstance(value, dict)
        out.append("{" if is_dict else "[")
        first = len(out)
        if is_dict:
            for key, item in sorted(value.items()):
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _json(item, inner, out)
        elif isinstance(value, ComponentListing):
            _rows(value, inner, sep, out)
        elif isinstance(value, KClass):
            out += _terms(value, inner, sep)
        else:
            for item in value:
                out.append(sep)
                _json(item, inner, out)
        if len(out) > first:
            out[first] = out[first][1:]  # the first item follows no comma
            out.append("\n" + pad)
        out.append("}" if is_dict else "]")
    else:
        out.append(json.dumps(value))


def _doc_line(doc: dict) -> str:
    if doc.get("field") == "R":
        return f"q={doc['q']} discrete={doc['discrete']} signs={doc['signs']}"
    return f"labels={doc['labels']}"


def _render_table(doc: dict, out: list) -> None:
    # each line after the first follows a newline
    if "components" in doc:
        out.append(f"field={doc['field']} n={doc['n']} max_label={doc['max_label']} count={doc['count']}")
        _rows(doc["components"], None, "\n", out)
    elif "degrees" in doc:
        out.append(f"field={doc['field']} n={doc['n']} max_label={doc['max_label']}")
        for j, info in sorted(doc["degrees"].items()):
            out.append(f"\nK^{j}  rank {info['rank']}  ({info['schema']})")
            _rows(info["generators"], None, "\n  ", out)
    elif "coords" in doc:
        out.append(f"component: field={doc['field']} " + _doc_line(doc))
        out += [f"\n  label={entry['label']} t={entry['t']}" for entry in doc["coords"]]
    elif "summands" in doc:
        out.append(f"side={doc['side']}")
        for entry in doc["summands"]:
            out.append("\n  " + " ".join(f"{k}={entry[k]}" for k in ("kind", "eps", "ell", "t") if k in entry))
    elif "terms" in doc:
        out.append(f"degree={doc['degree']}")
        out += _terms(doc["terms"], None, "\n") or ["\n  0"]
    elif "coeffs" in doc:
        out.append(f"ring={doc['ring']}")
        out += [f"\n  {entry['coeff']:+d} * [{entry['label']}]" for entry in doc["coeffs"]] or ["\n  0"]
