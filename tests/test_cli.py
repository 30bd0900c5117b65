"""End-to-end CLI checks: verbs, payloads, exit codes, output stability."""

import io
import json
import subprocess
import sys
from math import comb

import pytest

from temperedk import cli, dual
from temperedk.cli import main

REAL_SGN_POINT = json.dumps(
    {
        "field": "R",
        "n": 1,
        "q": 0,
        "r": 1,
        "discrete": [],
        "signs": ["sgn"],
        "coords": [{"label": "sgn", "t": "1"}],
    }
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_components_real_gl1(capsys):
    code, out, err = run_cli(capsys, "components", "--field", "R", "--n", "1", "--max-label", "1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [c["signs"] for c in doc["components"]] == [["id"], ["sgn"]]


def test_components_complex(capsys):
    code, out, _ = run_cli(capsys, "components", "--field", "C", "--n", "2", "--max-label", "1")
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_kgroup_real_gl3(capsys):
    code, out, _ = run_cli(
        capsys, "kgroup", "--field", "R", "--n", "3", "--max-label", "2", "--degree", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["degrees"]) == {"0"}
    assert doc["degrees"]["0"]["rank"] == 4
    assert len(doc["degrees"]["0"]["generators"]) == 4


def test_kgroup_reports_both_degrees(capsys):
    code, out, _ = run_cli(capsys, "kgroup", "--field", "C", "--n", "2", "--max-label", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["0"]["rank"] == 3
    assert doc["degrees"]["1"]["rank"] == 0
    assert doc["degrees"]["1"]["schema"] == "0"


def test_llc_parameter_to_point(capsys):
    payload = json.dumps(
        {
            "side": "R",
            "summands": [
                {"kind": "discrete", "ell": 2, "t": "0"},
                {"kind": "character", "eps": 0, "t": "5"},
            ],
        }
    )
    code, out, _ = run_cli(capsys, "llc", "--parameter", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 1 and doc["discrete"] == [2] and doc["signs"] == ["id"]
    assert doc["coords"] == [{"label": 2, "t": "0"}, {"label": "id", "t": "5"}]


def test_llc_point_to_parameter_round_trip(capsys):
    code, out, _ = run_cli(capsys, "llc", "--point", REAL_SGN_POINT)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"side": "R", "summands": [{"kind": "character", "eps": 1, "t": "1"}]}
    # and back again
    code, out2, _ = run_cli(capsys, "llc", "--parameter", json.dumps(doc))
    assert code == 0
    assert json.loads(out2) == json.loads(REAL_SGN_POINT)


def test_llc_requires_exactly_one_payload(capsys):
    code, out, err = run_cli(capsys, "llc", "--field", "R")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"
    code, _, _ = run_cli(capsys, "llc", "--parameter", "{}", "--point", "{}")
    assert code == 2


def test_llc_field_must_match_payload(capsys):
    code, _, err = run_cli(capsys, "llc", "--field", "C", "--point", REAL_SGN_POINT)
    assert code == 2
    assert "does not match" in json.loads(err)["detail"]


def test_basechange_gl1(capsys):
    code, out, _ = run_cli(capsys, "basechange", "--point", REAL_SGN_POINT)
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "C" and doc["labels"] == [0]
    assert doc["coords"] == [{"label": 0, "t": "2"}]


def test_autoinduce_gl1(capsys):
    payload = json.dumps(
        {"field": "C", "n": 1, "labels": [0], "coords": [{"label": 0, "t": "1"}]}
    )
    code, out, _ = run_cli(capsys, "autoinduce", "--point", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["signs"] == ["id", "sgn"]
    assert doc["coords"] == [
        {"label": "id", "t": "1/2"},
        {"label": "sgn", "t": "1/2"},
    ]


def test_kmap_bc_example(capsys):
    payload = json.dumps(
        {
            "degree": 1,
            "terms": [{"gen": {"field": "C", "n": 1, "labels": [0]}, "coeff": 1}],
        }
    )
    code, out, _ = run_cli(capsys, "kmap", "--map", "bc", "--n", "1", "--class", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert [t["gen"]["signs"] for t in doc["terms"]] == [["id"], ["sgn"]]
    assert [t["coeff"] for t in doc["terms"]] == [1, 1]


def test_kmap_bc_kills_nonzero_labels(capsys):
    payload = json.dumps(
        {
            "degree": 1,
            "terms": [{"gen": {"field": "C", "n": 1, "labels": [5]}, "coeff": 3}],
        }
    )
    code, out, _ = run_cli(capsys, "kmap", "--map", "bc", "--n", "1", "--class", payload)
    assert code == 0
    assert json.loads(out) == {"degree": 1, "terms": []}


def test_kmap_ai_shift(capsys):
    payload = json.dumps(
        {
            "degree": 1,
            "terms": [
                {
                    "gen": {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [7], "signs": []},
                    "coeff": 1,
                }
            ],
        }
    )
    code, out, _ = run_cli(capsys, "kmap", "--map", "ai", "--n", "1", "--class", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"gen": {"field": "C", "n": 1, "labels": [7]}, "coeff": 1}]


def test_kmap_respects_explicit_truncation(capsys):
    payload = json.dumps(
        {
            "degree": 1,
            "terms": [{"gen": {"field": "C", "n": 1, "labels": [5]}, "coeff": 1}],
        }
    )
    code, _, err = run_cli(
        capsys, "kmap", "--map", "bc", "--n", "1", "--max-label", "2", "--class", payload
    )
    assert code == 2
    assert json.loads(err)["error"] == "UnknownGenerator"


def test_repring_bc_verb(capsys):
    payload = json.dumps(
        {"ring": "U(1)", "coeffs": [{"label": 0, "coeff": 2}, {"label": 4, "coeff": 1}]}
    )
    code, out, _ = run_cli(capsys, "repring-bc", "--element", payload)
    assert code == 0
    assert json.loads(out) == {
        "ring": "Z/2Z",
        "coeffs": [{"label": "1", "coeff": 2}, {"label": "eps", "coeff": 2}],
    }


def test_stdin_payload(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(REAL_SGN_POINT))
    code, out, _ = run_cli(capsys, "basechange", "--point", "-")
    assert code == 0
    assert json.loads(out)["labels"] == [0]


def test_usage_errors_exit_2(capsys):
    cases = [
        ("bogus",),
        ("kgroup", "--field", "R", "--n", "2"),
        ("kgroup", "--field", "C", "--n", "0", "--max-label", "2"),
        ("kgroup", "--field", "X", "--n", "2", "--max-label", "2"),
        ("basechange", "--point", "{not json"),
        ("components", "--field", "R", "--n", "2", "--max-label", "0"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        doc = json.loads(err)
        assert set(doc) == {"error", "detail"}


def test_oversized_rationals_rejected_at_decode(capsys):
    limit = sys.get_int_max_str_digits()
    payloads = [
        # a JSON integer literal past the interpreter's digit limit
        '{"field":"C","n":1,"labels":[0],"coords":[{"label":0,"t":1%s}]}' % ("0" * limit),
        # parts that parse, but could not be printed back
        '{"field":"C","n":1,"labels":[0],"coords":[{"label":0,"t":"1e%d"}]}' % limit,
        '{"field":"C","n":1,"labels":[0],"coords":[{"label":0,"t":"1e-%d"}]}' % limit,
    ]
    for payload in payloads:
        code, out, err = run_cli(capsys, "basechange", "--point", payload)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "UsageError"
    # the longest printable part is still accepted
    payload = '{"field":"C","n":1,"labels":[0],"coords":[{"label":0,"t":"1e%d"}]}' % (limit - 1)
    code, _, _ = run_cli(capsys, "autoinduce", "--point", payload)
    assert code == 0


def test_rejected_call_leaves_next_call_unchanged(capsys):
    # the parser is built once per process and shared by every main() call
    argv = ("components", "--field", "R", "--n", "2", "--max-label", "2")
    _, alone, _ = run_cli(capsys, *argv)
    code, _, _ = run_cli(capsys, "components", "--field", "R", "--n", "2")
    assert code == 2
    code, after, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert after == alone


def test_validation_error_names_surface(capsys):
    code, _, err = run_cli(
        capsys, "components", "--field", "R", "--n", "2", "--max-label", "0"
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvalidTruncation"


@pytest.mark.parametrize("argv, detail", [
    (("kmap", "--map", "ai", "--n", "1", "--class", json.dumps({"degree": 1, "terms": [{
        "gen": {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [0], "signs": []}, "coeff": 1}]})),
     "discrete-series labels must be >= 1"),
    (("llc", "--point", json.dumps({
        "field": "R", "n": 2, "q": 1, "r": 0, "discrete": [0], "signs": [],
        "coords": [{"label": 0, "t": "0"}]})),
     "discrete-series labels must be >= 1"),
    (("llc", "--parameter", json.dumps({
        "side": "R", "summands": [{"kind": "character", "eps": 2, "t": "0"}]})),
     "eps must be 0 or 1, got 2"),
])
def test_out_of_range_labels_are_a_named_error(capsys, argv, detail):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidLabel", "detail": detail}


def test_truncation_rule_same_for_both_fields(capsys):
    code, out, err = run_cli(
        capsys, "components", "--field", "C", "--n", "2", "--max-label", "0"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidTruncation"
    # every verb and field checks n first, whatever the order of the flags
    for head in (["components", "--field", "R"], ["components", "--field", "C"],
                 ["kgroup", "--field", "R"], ["kgroup", "--field", "C"],
                 ["kmap", "--map", "ai"], ["kmap", "--map", "bc"]):
        tail = ["--class", json.dumps({"degree": 1, "terms": []})] if head[0] == "kmap" else []
        for n, max_label, want in [
            ("0", "0", {"error": "InvalidN", "detail": "n must be >= 1, got 0"}),
            ("-2", "5", {"error": "InvalidN", "detail": "n must be >= 1, got -2"}),
            ("2", "-3", {"error": "InvalidTruncation", "detail": "max_label must be >= 1, got -3"}),
        ]:
            code, out, err = run_cli(capsys, *head, "--max-label", max_label, "--n", n, *tail)
            assert (code, out) == (2, ""), head
            assert json.loads(err) == want, head


# two equal terms whose coefficients each have as many digits as the limit allows
_NINES = int("9" * sys.get_int_max_str_digits())
_LONG_SUMS = {
    "kmap": ["kmap", "--map", "ai", "--n", "1", "--class", json.dumps({"degree": 1, "terms": [
        {"gen": {"field": "R", "n": 2, "q": 1, "r": 0, "discrete": [1], "signs": []}, "coeff": _NINES},
    ] * 2})],
    "repring-bc": ["repring-bc", "--element", json.dumps(
        {"ring": "U(1)", "coeffs": [{"label": 0, "coeff": _NINES}] * 2})],
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("verb", sorted(_LONG_SUMS))
def test_summed_coefficient_too_long_to_print_is_a_named_error(capsys, verb, fmt):
    code, out, err = run_cli(capsys, *_LONG_SUMS[verb], "--format", fmt)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert json.loads(err) == {
        "error": "UsageError",
        "detail": f"the result holds an integer longer than {limit} digits",
    }


def test_overlong_result_is_a_named_error(capsys):
    # decode accepts a scalar at the digit limit; base change doubles it past the limit
    limit = sys.get_int_max_str_digits()
    point = json.dumps({
        "field": "R", "n": 1, "q": 0, "r": 1, "discrete": [], "signs": ["id"],
        "coords": [{"label": "id", "t": "9" * limit}],
    })
    code, out, err = run_cli(capsys, "basechange", "--point", point)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "UsageError"
    assert "slot 0" in doc["detail"]


def test_listing_over_the_row_budget_is_refused_at_once(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("components were listed")

    # every listing draws its label sets from these two
    monkeypatch.setattr(dual, "combinations", refuse)
    monkeypatch.setattr(dual, "combinations_with_replacement", refuse)
    # C(81, 6) = 324,540,216 generators; nothing is listed before the check
    for argv in (
        ("kgroup", "--field", "C", "--n", "6", "--max-label", "40"),
        ("components", "--field", "C", "--n", "6", "--max-label", "40"),
        ("components", "--field", "R", "--n", "12", "--max-label", "40"),
        # 25,010,001 components over 5,001 Levi classes
        ("components", "--field", "R", "--n", "10000", "--max-label", "1"),
        # a count past sys.maxsize is still compared exactly
        ("kgroup", "--field", "C", "--n", "100", "--max-label", "1000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BudgetExceeded"


def test_over_budget_counts_stop_at_the_budget(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a whole count or listing was built")

    monkeypatch.setattr(dual, "comb", refuse)
    monkeypatch.setattr(dual, "combinations", refuse)
    monkeypatch.setattr(dual, "combinations_with_replacement", refuse)
    argvs = [
        # C(20000, 10000), C(81, 6) and C(2100, 100): the counts stop once they pass the budget
        ("kgroup", "--field", "R", "--n", "20000", "--max-label", "20000"),
        ("kgroup", "--field", "C", "--n", "6", "--max-label", "40"),
        ("components", "--field", "C", "--n", "6", "--max-label", "40"),
        ("components", "--field", "R", "--n", "12", "--max-label", "40"),
        ("kgroup", "--field", "C", "--n", "100", "--max-label", "1000"),
    ]
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and json.loads(err)["error"] == "BudgetExceeded"
    # past n = 1,998 an R listing is over budget whatever max_label is, so no block is built
    monkeypatch.setattr(cli, "real_components", refuse)
    for n in ("1999", "400000", "9" * 4000):
        code, out, err = run_cli(capsys, "components", "--field", "R", "--n", n, "--max-label", "1")
        assert code == 2 and out == "" and json.loads(err)["error"] == "BudgetExceeded"
    code, _, err = run_cli(capsys, "components", "--field", "R", "--n", "400000", "--max-label", "0")
    assert code == 2 and json.loads(err)["error"] == "InvalidTruncation"


def test_accepted_listing_is_counted_once(capsys, monkeypatch):
    calls = []

    def counting(m, k):
        calls.append((m, k))
        return comb(m, k)

    monkeypatch.setattr(dual, "comb", counting)
    # one binomial per block: the three Levi classes of GL(4, R), one block per K-group degree
    for argv, blocks in ((("components", "--field", "R", "--n", "4", "--max-label", "3"), 3),
                         (("kgroup", "--field", "R", "--n", "4", "--max-label", "3"), 2),
                         (("components", "--field", "C", "--n", "2", "--max-label", "3"), 1)):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == blocks


def test_real_listing_size_floor_at_the_budget(capsys, monkeypatch):
    # GL(4, R) at max_label 1 lists 1 + 3 + 5 = 9 rows; GL(5, R) lists 2 + 4 + 6 = 12
    monkeypatch.setattr(cli, "ROW_BUDGET", 9)
    code, out, _ = run_cli(capsys, "components", "--field", "R", "--n", "4", "--max-label", "1")
    assert code == 0 and json.loads(out)["count"] == 9

    def refuse(*args):
        raise AssertionError("blocks were built")

    monkeypatch.setattr(cli, "real_components", refuse)
    code, _, err = run_cli(capsys, "components", "--field", "R", "--n", "5", "--max-label", "1")
    assert code == 2 and json.loads(err)["error"] == "BudgetExceeded"


def test_budget_refusal_never_prints_the_count(capsys):
    # the ranks C(20000, 10000) and C(20000, 9999) have 6,019 digits, past the int-to-str limit
    code, out, err = run_cli(capsys, "kgroup", "--field", "R", "--n", "20000", "--max-label", "20000")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "BudgetExceeded",
        "detail": f"the result would list more than {cli.ROW_BUDGET} components",
    }


def test_row_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROW_BUDGET", 6)
    # GL(2, C) at max_label 1: 6 components, and 3 generators in degree 0 only
    code, out, _ = run_cli(capsys, "components", "--field", "C", "--n", "2", "--max-label", "1")
    assert code == 0 and json.loads(out)["count"] == 6
    code, _, err = run_cli(capsys, "components", "--field", "C", "--n", "2", "--max-label", "2")
    assert code == 2 and json.loads(err)["error"] == "BudgetExceeded"
    # kgroup counts the rows of the requested degrees only
    monkeypatch.setattr(cli, "ROW_BUDGET", 5)
    argv = ("kgroup", "--field", "R", "--n", "4", "--max-label", "4")  # ranks 6 and 4
    assert run_cli(capsys, *argv, "--degree", "1")[0] == 0
    code, _, err = run_cli(capsys, *argv, "--degree", "0")
    assert code == 2 and json.loads(err)["error"] == "BudgetExceeded"
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and json.loads(err)["error"] == "BudgetExceeded"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("invariant violated")

    # the kgroup handler looks k_group up in the cli module at call time
    monkeypatch.setattr(cli, "k_group", broken)
    code, out, err = run_cli(capsys, "kgroup", "--field", "R", "--n", "1", "--max-label", "1")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "RuntimeError", "detail": "invariant violated"}


def test_output_byte_stable(capsys):
    argv = ("kgroup", "--field", "R", "--n", "4", "--max-label", "3")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "components", "--field", "R", "--n", "2", "--max-label", "2",
        "--format", "table",
    )
    assert code == 0
    assert out.splitlines()[0] == "field=R n=2 max_label=2 count=5"


# the bytes of each table, recorded before any of these paths had a test
TABLE_BYTES = [
    (("llc", "--point", json.dumps({
        "field": "R", "n": 5, "q": 1, "r": 3, "discrete": [2], "signs": ["id", "sgn", "sgn"],
        "coords": [{"label": 2, "t": "1/2"}, {"label": "id", "t": "-3"},
                   {"label": "sgn", "t": "0"}, {"label": "sgn", "t": "7/4"}]})),
     "side=R\n  kind=character eps=0 t=-3\n  kind=character eps=1 t=0\n"
     "  kind=character eps=1 t=7/4\n  kind=discrete ell=2 t=1/2\n"),
    (("llc", "--point", json.dumps({
        "field": "C", "n": 2, "labels": [-1, 3],
        "coords": [{"label": 3, "t": "1/3"}, {"label": -1, "t": "2"}]})),
     "side=C\n  ell=-1 t=2\n  ell=3 t=1/3\n"),
    (("repring-bc", "--element", json.dumps({"ring": "U(1)", "coeffs": [{"label": 3, "coeff": 2}]})),
     "ring=Z/2Z\n  0\n"),
]


@pytest.mark.parametrize("argv, want", TABLE_BYTES, ids=["llc-R", "llc-C", "repring-zero"])
def test_table_bytes(capsys, argv, want):
    assert run_cli(capsys, *argv, "--format", "table") == (0, want, "")


def test_module_invocation_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "temperedk", "components", "--field", "C", "--n", "1",
         "--max-label", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 3


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
