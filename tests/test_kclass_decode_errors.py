"""Malformed ``kmap --class`` payloads keep their recorded exit code and stderr.

Each case is a ``kmap`` command line whose class document is wrong in one
or more ways: a missing key, a wrong type, a bool where an integer
belongs, bad signs, inconsistent sizes, bad labels, an unknown field,
generators outside the domain.  ``kclass_decode_errors.json`` holds the
exit code and stderr of every case, recorded before the generator
decoder became one pass; the test checks that the decoder still gives
the same error, with the same message, for the same fault first.

``RENAMED`` lists the cases whose error changed since the recording: a
label below the range of its family was reported as a bare ``ValueError``
and is now ``InvalidLabel``, and a degree other than 0 or 1 is reported
by the K-theory degree check (``DegreeMismatch``) rather than renamed
``UsageError`` by the decoder.  To record
the file again after an intended change, run
``python tests/test_kclass_decode_errors.py --record``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from temperedk import cli

RECORDED = Path(__file__).resolve().parent / "kclass_decode_errors.json"

R1 = {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [1], "signs": []}
C1 = {"field": "C", "n": 1, "labels": [0]}


def _gen(base, **changes):
    """``base`` with keys replaced, or dropped where the value is ``...``."""
    doc = dict(base, **changes)
    return {k: v for k, v in doc.items() if v is not ...}


def _one_term(gen, coeff=1, degree=1):
    return {"degree": degree, "terms": [{"gen": gen, "coeff": coeff}]}


def _argv(payload, hom="ai", extra=()):
    return ["kmap", "--map", hom, "--n", "1", *extra, "--class", json.dumps(payload)]


CASES = [
    # the class document
    _argv([]),
    _argv({"terms": []}),
    _argv({"degree": True, "terms": []}),
    _argv({"degree": "1", "terms": []}),
    _argv({"degree": 2, "terms": []}),
    _argv({"degree": 1}),
    _argv({"degree": 1, "terms": {}}),
    # a term
    _argv({"degree": 1, "terms": [5]}),
    _argv({"degree": 1, "terms": [{"coeff": 1}]}),
    _argv({"degree": 1, "terms": [{"gen": R1}]}),
    _argv(_one_term(R1, coeff=True)),
    _argv(_one_term(R1, coeff="1")),
    _argv(_one_term(R1, coeff=1.5)),
    _argv(_one_term([1])),
    _argv(_one_term(None)),
    _argv(_one_term(_gen(R1, n=True), coeff=True)),  # the generator is checked first
    # keys shared by both fields
    _argv(_one_term(_gen(R1, field=...))),
    _argv(_one_term(_gen(R1, field=1))),
    _argv(_one_term(_gen(R1, n=...))),
    _argv(_one_term(_gen(R1, n=True))),
    _argv(_one_term(_gen(R1, n="2"))),
    _argv(_one_term(_gen(R1, n=2.0))),
    _argv(_one_term({"field": "Q", "n": 1, "labels": [0]})),
    _argv(_one_term({"field": "Q"})),
    _argv(_one_term(_gen(R1, field=..., n=True))),
    # real generators
    _argv(_one_term(_gen(R1, q=...))),
    _argv(_one_term(_gen(R1, q=True))),
    _argv(_one_term(_gen(R1, r=...))),
    _argv(_one_term(_gen(R1, r=False))),
    _argv(_one_term(_gen(R1, r="0"))),
    _argv(_one_term(_gen(R1, discrete=...))),
    _argv(_one_term(_gen(R1, discrete="1"))),
    _argv(_one_term(_gen(R1, discrete=[True]))),
    _argv(_one_term(_gen(R1, discrete=[1.0]))),
    _argv(_one_term(_gen(R1, discrete=["1"]))),
    _argv(_one_term(_gen(R1, discrete=[None]))),
    _argv(_one_term(_gen(R1, signs=...))),
    _argv(_one_term(_gen(R1, signs="id"))),
    _argv(_one_term(_gen(R1, n=3, r=1, signs=["up"]))),
    _argv(_one_term(_gen(R1, n=3, r=1, signs=[1]))),
    _argv(_one_term(_gen(R1, discrete=[True], signs=["up"]))),  # labels before signs
    _argv(_one_term(_gen(R1, q=2))),
    _argv(_one_term(_gen(R1, n=3))),
    _argv(_one_term(_gen(R1, r=1))),
    _argv(_one_term(_gen(R1, q=2, signs=["up"]))),  # sign values before sizes
    _argv(_one_term({"field": "R", "n": 0, "q": 0, "r": 0, "discrete": [], "signs": []})),
    _argv(_one_term(_gen(R1, discrete=[0]))),
    _argv(_one_term({"field": "R", "n": 4, "q": 2, "r": 0, "discrete": [3, -1], "signs": []})),
    # complex generators
    _argv(_one_term(_gen(C1, labels=...))),
    _argv(_one_term(_gen(C1, labels=0))),
    _argv(_one_term(_gen(C1, labels=[False]))),
    _argv(_one_term(_gen(C1, labels=[0.5]))),
    _argv(_one_term(_gen(C1, n=2))),
    _argv(_one_term({"field": "C", "n": 0, "labels": []})),
    # well formed, but outside the domain: the first such generator in term order
    _argv(_one_term(C1)),
    _argv(_one_term(R1, degree=0)),
    _argv(_one_term(_gen(R1, discrete=[10**40])), extra=("--max-label", "5")),
    _argv({"degree": 1, "terms": [{"gen": _gen(R1, discrete=[5]), "coeff": 1},
                                  {"gen": _gen(R1, discrete=[4]), "coeff": 2}]},
          extra=("--max-label", "3")),
    _argv({"degree": 0, "terms": [{"gen": {"field": "R", "n": 4, "q": 1, "r": 2,
                                           "discrete": [2], "signs": ["sgn", "id"]}, "coeff": 1}]},
          extra=("--max-label", "3")),
    _argv({"degree": 1, "terms": [{"gen": _gen(C1, labels=[3]), "coeff": 1},
                                  {"gen": C1, "coeff": 1}]},
          hom="bc", extra=("--max-label", "2")),
]


# the case's argv (as a tuple) -> the error it now reports, with the recorded detail
RENAMED = {
    tuple(_argv({"degree": 2, "terms": []})): "DegreeMismatch",
    tuple(_argv(_one_term(_gen(R1, discrete=[0])))): "InvalidLabel",
    tuple(_argv(_one_term({"field": "R", "n": 4, "q": 2, "r": 0, "discrete": [3, -1],
                           "signs": []}))): "InvalidLabel",
}


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORD = json.loads(RECORDED.read_text()) if RECORDED.exists() else []


def _expected(entry) -> str:
    # the CLI writes one json.dumps(sort_keys=True) line, so this round trip keeps the bytes
    doc = json.loads(entry["stderr"])
    doc["error"] = RENAMED.get(tuple(entry["argv"]), doc["error"])
    return json.dumps(doc, sort_keys=True) + "\n"


def test_every_case_is_recorded():
    assert len(CASES) >= 20
    assert [entry["argv"] for entry in RECORD] == CASES


def test_every_rename_names_a_case_that_changed():
    assert set(RENAMED) <= {tuple(argv) for argv in CASES}
    for entry in RECORD:
        if tuple(entry["argv"]) in RENAMED:
            assert _expected(entry) != entry["stderr"]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_decode_error_output(index):
    want = RECORD[index]
    got = run(CASES[index])
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    assert got["stderr"] == _expected(want)


def test_record_holds_errors_only():
    assert all(entry["exit"] == 2 and entry["stdout"] == "" for entry in RECORD)
    assert sum('"error": "ValueError"' in entry["stderr"] for entry in RECORD) == 2


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORDED.write_text(json.dumps([run(argv) for argv in CASES], indent=2) + "\n")
