"""Malformed payloads and out-of-range sizes keep their recorded exit code and stderr.

Each case is a command line of one verb other than the ``kmap --class``
decoder, which ``test_kclass_decode_errors.py`` covers: an ``llc``,
``basechange``, ``autoinduce`` or ``repring-bc`` payload that is wrong in
one way, or a ``--n``/``--max-label`` of 0, -1 or a 5,000-digit number
on ``components``, ``kgroup`` and ``kmap``.  ``cli_errors.json`` holds
the exit code and stderr of every case, recorded before each input got
one check in one place.

The last cases were added later: rationals whose exponent puts them past
the digit cap, and a payload nested too deeply to decode, read from stdin
(``-``); ``STDIN`` holds what such a case reads.

``RENAMED`` lists the cases whose error changed since the recording, and
nothing else.  A size below 1 is now reported by the function that
builds the result (``InvalidN``, ``InvalidTruncation``) rather than by the
command line parser, and a payload fault is reported by the value type
that checks it (``LabelMismatch``, ``InvalidN``, ``RingMismatch``,
``SideMismatch``) rather than renamed ``UsageError`` by the decoder.  An
``llc --field`` that does not match the payload is ``SideMismatch``, as
it is for ``basechange`` and ``autoinduce``.  To record the file again,
run ``python tests/test_cli_errors.py --record``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from temperedk import cli

RECORDED = Path(__file__).resolve().parent / "cli_errors.json"

HUGE = "9" * 5000
R_CHAR = {"kind": "character", "eps": 0, "t": "1/2"}
R_PARAM = {"side": "R", "summands": [R_CHAR]}
C_PARAM = {"side": "C", "summands": [{"ell": 1, "t": 0}]}
R_POINT = {"field": "R", "n": 1, "q": 0, "r": 1, "discrete": [], "signs": ["sgn"],
           "coords": [{"label": "sgn", "t": "1"}]}
C_POINT = {"field": "C", "n": 1, "labels": [2], "coords": [{"label": 2, "t": "1/3"}]}
EMPTY_CLASS = json.dumps({"degree": 1, "terms": []})


def _with(base, **changes):
    return dict(base, **changes)


def _llc(flag, payload, *extra):
    return ["llc", *extra, flag, json.dumps(payload)]


def _sizes(verb, n, max_label):
    head = {"components": ["components", "--field", "R"],
            "components-C": ["components", "--field", "C"],
            "kgroup": ["kgroup", "--field", "R"],
            "kmap": ["kmap", "--map", "bc"]}[verb]
    tail = ["--class", EMPTY_CLASS] if verb == "kmap" else []
    return head + ["--n", n, "--max-label", max_label] + tail


def _n_error(n):
    return ("InvalidN", f"n must be >= 1, got {n}")


def _label_error(max_label):
    return ("InvalidTruncation", f"max_label must be >= 1, got {max_label}")


CASES = [
    # llc --parameter over R
    _llc("--parameter", []),
    _llc("--parameter", {"summands": [R_CHAR]}),
    _llc("--parameter", {"side": "R"}),
    _llc("--parameter", {"side": "Q", "summands": [R_CHAR]}),
    _llc("--parameter", {"side": "R", "summands": []}),
    _llc("--parameter", {"side": "R", "summands": [_with(R_CHAR, kind="spin")]}),
    _llc("--parameter", {"side": "R", "summands": [_with(R_CHAR, eps=2)]}),
    _llc("--parameter", {"side": "R", "summands": [_with(R_CHAR, t="1/0")]}),
    _llc("--parameter", {"side": "R", "summands": [{"kind": "discrete", "ell": True, "t": 0}]}),
    _llc("--parameter", R_PARAM, "--field", "C"),
    # llc --parameter over C
    _llc("--parameter", {"side": "C", "summands": []}),
    _llc("--parameter", {"side": "C", "summands": [{"ell": 1}]}),
    _llc("--parameter", {"side": "C", "summands": [{"ell": "1", "t": 0}]}),
    _llc("--parameter", {"side": "C", "summands": [7]}),
    # llc --point
    _llc("--point", _with(R_POINT, coords=[{"label": "up", "t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"label": True, "t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"label": 2.0, "t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"label": [2], "t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"label": 3, "t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"t": "1"}])),
    _llc("--point", _with(C_POINT, coords=[{"label": 2, "t": None}])),
    _llc("--point", _with(C_POINT, coords="2")),
    _llc("--point", C_POINT, "--field", "R"),
    ["llc", "--parameter", json.dumps(C_PARAM), "--point", json.dumps(C_POINT)],
    # basechange and autoinduce
    ["basechange", "--point", json.dumps(C_POINT)],
    ["basechange", "--point", "{"],
    ["basechange", "--point", json.dumps(_with(R_POINT, coords=[{"label": "eps", "t": "1"}]))],
    ["autoinduce", "--point", json.dumps(R_POINT)],
    ["autoinduce", "--point", json.dumps(_with(C_POINT, labels=[]))],
    ["autoinduce", "--point", json.dumps(_with(C_POINT, coords=[2]))],
    # repring-bc
    ["repring-bc", "--element", json.dumps({"ring": "SO(2)", "coeffs": []})],
    ["repring-bc", "--element", json.dumps({"ring": 1, "coeffs": []})],
    ["repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": "1", "coeff": 1}]})],
    ["repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": True, "coeff": 1}]})],
    ["repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": [0], "coeff": 1}]})],
    ["repring-bc", "--element", json.dumps({"ring": "Z/2Z", "coeffs": [{"label": 0, "coeff": 1}]})],
    ["repring-bc", "--element", json.dumps({"ring": "Z/2Z", "coeffs": [{"label": "eps", "coeff": 1}]})],
    ["repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": 0, "coeff": True}]})],
    ["repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": 0}]})],
    # sizes: --n, then --max-label, then both
    *[_sizes(verb, n, "3") for verb in ("components", "components-C", "kgroup", "kmap")
      for n in ("0", "-1", HUGE)],
    *[_sizes(verb, "2", m) for verb in ("components", "components-C", "kgroup", "kmap")
      for m in ("0", "-1", HUGE)],
    *[_sizes(verb, "0", "0") for verb in ("components", "components-C", "kgroup", "kmap")],
    ["kmap", "--map", "ai", "--n", "-1", "--max-label", "3", "--class", EMPTY_CLASS],
    ["kgroup", "--field", "C", "--n", "2"],
    ["kmap", "--map", "bc", "--max-label", "3", "--class", EMPTY_CLASS],
    # refused from the digit counts, before 10**e is built
    _llc("--parameter", {"side": "R", "summands": [_with(R_CHAR, t="1e100000000")]}),
    _llc("--parameter", {"side": "R", "summands": [_with(R_CHAR, t="1e-100000000")]}),
    ["kmap", "--map", "bc", "--n", "1", "--class", "-"],
]

# the stdin of the cases that read their payload from it
STDIN = {("kmap", "--map", "bc", "--n", "1", "--class", "-"): "[" * 200_000}

# the case's argv (as a tuple) -> (error, detail) it now reports; every
# other case must match its recording byte for byte
RENAMED = {
    tuple(_llc("--parameter", {"side": "Q", "summands": [R_CHAR]})):
        ("SideMismatch", "side must be 'R' or 'C', got 'Q'"),
    tuple(_llc("--parameter", {"side": "R", "summands": []})):
        ("InvalidN", "a parameter needs at least one summand"),
    tuple(_llc("--parameter", R_PARAM, "--field", "C")):
        ("SideMismatch", "--field C does not match the payload side R"),
    tuple(_llc("--parameter", {"side": "C", "summands": []})):
        ("InvalidN", "a parameter needs at least one summand"),
    tuple(_llc("--point", _with(R_POINT, coords=[{"label": "up", "t": "1"}]))):
        ("LabelMismatch", "bad coordinate label 'up'"),
    tuple(_llc("--point", _with(C_POINT, coords=[{"label": True, "t": "1"}]))):
        ("LabelMismatch", "bad coordinate label True"),
    tuple(_llc("--point", _with(C_POINT, coords=[{"label": 2.0, "t": "1"}]))):
        ("LabelMismatch", "bad coordinate label 2.0"),
    tuple(_llc("--point", _with(C_POINT, coords=[{"label": [2], "t": "1"}]))):
        ("LabelMismatch", "bad coordinate label [2]"),
    tuple(_llc("--point", C_POINT, "--field", "R")):
        ("SideMismatch", "--field R does not match the payload side C"),
    ("basechange", "--point", json.dumps(_with(R_POINT, coords=[{"label": "eps", "t": "1"}]))):
        ("LabelMismatch", "bad coordinate label 'eps'"),
    ("repring-bc", "--element", json.dumps({"ring": "SO(2)", "coeffs": []})):
        ("RingMismatch", "unknown ring 'SO(2)'"),
    ("repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": "1", "coeff": 1}]})):
        ("RingMismatch", "R(U(1)) labels are integers, got '1'"),
    ("repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": True, "coeff": 1}]})):
        ("RingMismatch", "R(U(1)) labels are integers, got True"),
    ("repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": [0], "coeff": 1}]})):
        ("RingMismatch", "R(U(1)) labels are integers, got [0]"),
    ("repring-bc", "--element", json.dumps({"ring": "Z/2Z", "coeffs": [{"label": 0, "coeff": 1}]})):
        ("RingMismatch", 'R(Z/2Z) labels are "1" or "eps", got 0'),
    # components already checked --max-label in the library; --n and the
    # kgroup/kmap bounds were checked by the parser
    **{tuple(_sizes(verb, n, "3")): _n_error(n)
       for verb in ("components", "components-C", "kgroup", "kmap") for n in ("0", "-1")},
    **{tuple(_sizes(verb, "2", m)): _label_error(m) for verb in ("kgroup", "kmap") for m in ("0", "-1")},
    **{tuple(_sizes(verb, "0", "0")): _n_error("0")
       for verb in ("components", "components-C", "kgroup", "kmap")},
    ("kmap", "--map", "ai", "--n", "-1", "--max-label", "3", "--class", EMPTY_CLASS): _n_error("-1"),
}


def run(argv) -> dict:
    out, err, stdin = io.StringIO(), io.StringIO(), io.StringIO(STDIN.get(tuple(argv), ""))
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORD = json.loads(RECORDED.read_text()) if RECORDED.exists() else []


def _expected(entry) -> str:
    new = RENAMED.get(tuple(entry["argv"]))
    if new is None:
        return entry["stderr"]
    return json.dumps({"error": new[0], "detail": new[1]}, sort_keys=True) + "\n"


def test_every_case_is_recorded():
    assert len(CASES) >= 25
    assert [entry["argv"] for entry in RECORD] == CASES


def test_every_rename_names_a_case_that_changed():
    cases = {tuple(argv) for argv in CASES}
    assert set(RENAMED) <= cases
    for entry in RECORD:
        if tuple(entry["argv"]) in RENAMED:
            assert _expected(entry) != entry["stderr"]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_error_output(index):
    want = RECORD[index]
    got = run(CASES[index])
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    assert got["stderr"] == _expected(want)


def test_record_holds_errors_only():
    assert all(entry["exit"] == 2 and entry["stdout"] == "" for entry in RECORD)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORDED.write_text(json.dumps([run(argv) for argv in CASES], indent=2) + "\n")
