"""The correspondence and the point maps, checked through ``cli.main``.

Each property is stated on the stdout of whole command lines, over the
parameters of ``_strategies.py``: ``llc --point`` inverts
``llc --parameter``, and ``basechange`` and ``autoinduce`` on points agree
with restriction and induction of parameters.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings

from temperedk import direct_sum, induce_to_R, restrict_to_C
from temperedk.cli import main
from temperedk.serialize import parameter_to_doc, render

from _strategies import complex_parameters, parameters, real_parameters


def run(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def point_of(p) -> str:
    return run("llc", "--parameter", json.dumps(parameter_to_doc(p)))


@settings(max_examples=60, derandomize=True)
@given(parameters)
def test_llc_point_gives_back_the_parameter(p):
    assert run("llc", "--point", point_of(p)) == render(parameter_to_doc(p)) + "\n"


@settings(max_examples=60, derandomize=True)
@given(real_parameters)
def test_basechange_matches_restriction(p):
    assert run("basechange", "--point", point_of(p)) == point_of(restrict_to_C(p))


@settings(max_examples=60, derandomize=True)
@given(complex_parameters)
def test_autoinduce_matches_induction(p):
    induced = direct_sum(induce_to_R(chi) for chi in p.summands)
    assert run("autoinduce", "--point", point_of(p)) == point_of(induced)
