"""Command line front end.

Verbs: components, kgroup, llc, basechange, autoinduce, kmap,
repring-bc.  Results go to stdout (JSON by default, --format table for
a readable listing); errors go to stderr as {"error", "detail"}
documents.  Exit codes: 0 success, 2 usage or validation problem,
3 internal invariant violation.  The parser checks only that --n and
--max-label are integers; the library checks their range, n first
(InvalidN, InvalidTruncation), and the value types check the payloads,
so each fault has one name whichever verb meets it.  A components or
kgroup listing longer than ROW_BUDGET rows is refused (BudgetExceeded,
exit 2) before any row is built, in bounded time: the count stops
multiplying up a binomial once it passes the budget, and an R listing
whose size n alone puts it past the budget is refused before its blocks
are built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dual import RealComponent, _check_bounds, complex_components, real_components
from .errors import BudgetExceeded, SideMismatch, UsageError
from .ktheory import apply_hom, k_ai_hom, k_bc_hom, k_group, repring_bc
from .langlands import (
    auto_induce_point,
    base_change_point,
    llc_complex,
    llc_complex_inv,
    llc_real,
    llc_real_inv,
)
from .serialize import (
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


# the most components one components or kgroup call may list
ROW_BUDGET = 10**6


def _check_budget(rows: int) -> None:
    if rows > ROW_BUDGET:
        # the count may be too long to print, so it is never formatted
        raise BudgetExceeded(f"the result would list more than {ROW_BUDGET} components")


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the JSON error path
    def error(self, message):
        raise UsageError(message)


def _plain_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _read_payload(text: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, the int-digit limit on long integer literals, and nesting too deep to decode
        raise UsageError(f"malformed JSON payload: {exc}") from None


# argparse parsers hold no per-call state, so one tree serves every main() call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="temperedk", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    sizes = _Parser(add_help=False)
    sizes.add_argument("--field", choices=("R", "C"), required=True)
    sizes.add_argument("--n", type=_plain_int, required=True)
    sizes.add_argument("--max-label", type=_plain_int, required=True)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def map_verb(verb, flag, help):
        p = sub.add_parser(verb, parents=[common], help=help)
        p.add_argument(flag, dest="payload", metavar="JSON", required=True)
        p.set_defaults(func=_cmd_map)

    p = sub.add_parser("components", parents=[common, sizes],
                       help="list tempered-dual components up to a label bound")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("kgroup", parents=[common, sizes],
                       help="K-theory generators and schema for one group")
    p.add_argument("--degree", type=int, choices=(0, 1))
    p.set_defaults(func=_cmd_kgroup)

    p = sub.add_parser("llc", parents=[common],
                       help="parameter to tempered point (--parameter) or back (--point)")
    p.add_argument("--field", choices=("R", "C"))
    p.add_argument("--parameter", metavar="JSON")
    p.add_argument("--point", metavar="JSON")
    p.set_defaults(func=_cmd_llc)

    map_verb("basechange", "--point", "base change on points: GL(n,R) to GL(n,C)")
    map_verb("autoinduce", "--point", "automorphic induction on points: GL(n,C) to GL(2n,R)")

    p = sub.add_parser("kmap", parents=[common],
                       help="apply base change (bc) or automorphic induction (ai) to a K-class")
    p.add_argument("--map", choices=("bc", "ai"), required=True)
    p.add_argument("--n", type=_plain_int, required=True)
    p.add_argument("--max-label", type=_plain_int)
    p.add_argument("--class", dest="kclass", metavar="JSON", required=True)
    p.set_defaults(func=_cmd_kmap)

    map_verb("repring-bc", "--element", "restriction R(U(1)) -> R(Z/2Z) on a character-ring element")

    return parser


def _cmd_components(args) -> dict:
    n = args.n
    if args.field == "R":
        _check_bounds(n, args.max_label)
        # at max_label 1 each Levi class lists its r + 1 sign splits, (n//2 + 1)(n - n//2 + 1) rows in
        # all, and a larger max_label lists more, so a large n is refused before its blocks are built
        _check_budget((n // 2 + 1) * (n - n // 2 + 1))
    listing = (real_components if args.field == "R" else complex_components)(n, args.max_label)
    _check_budget(listing.count(ROW_BUDGET))
    return {
        "field": args.field,
        "n": n,
        "max_label": args.max_label,
        "count": listing.size,
        "components": listing,
    }


def _cmd_kgroup(args) -> dict:
    group = k_group(args.field, args.n, args.max_label)
    degrees = (0, 1) if args.degree is None else (args.degree,)
    _check_budget(sum(group.listing(j).count(ROW_BUDGET) for j in degrees))
    return kgroup_to_doc(group, degrees)


def _cmd_llc(args) -> dict:
    if (args.parameter is None) == (args.point is None):
        raise UsageError("provide exactly one of --parameter or --point")
    if args.parameter is not None:
        value = parameter_from_doc(_read_payload(args.parameter))
        side, to_doc = value.side, point_to_doc
        llc = llc_real if side == "R" else llc_complex
    else:
        value = point_from_doc(_read_payload(args.point))
        side, to_doc = value.component.field, parameter_to_doc
        llc = llc_real_inv if side == "R" else llc_complex_inv
    if args.field is not None and args.field != side:
        raise SideMismatch(f"--field {args.field} does not match the payload side {side}")
    return to_doc(llc(value))


def _cmd_map(args) -> dict:
    # looked up on each call, so a wrapper later set on these functions
    # (as the benchmark's tracer sets one) is the one called
    decode, apply, encode = {
        "basechange": (point_from_doc, base_change_point, point_to_doc),
        "autoinduce": (point_from_doc, auto_induce_point, point_to_doc),
        "repring-bc": (repring_from_doc, repring_bc, repring_to_doc),
    }[args.verb]
    return encode(apply(decode(_read_payload(args.payload))))


def _payload_label_bound(x) -> int:
    return max([1] + [abs(label) for gen, _ in x.terms
                      for label in (gen.discrete if isinstance(gen, RealComponent) else gen.labels)])


def _cmd_kmap(args) -> dict:
    x = kclass_from_doc(_read_payload(args.kclass))
    max_label = args.max_label if args.max_label is not None else _payload_label_bound(x)
    hom = k_bc_hom(args.n, max_label) if args.map == "bc" else k_ai_hom(args.n, max_label)
    return kclass_to_doc(apply_hom(hom, x))


def parse_command(argv) -> argparse.Namespace:
    """Validate a command line into an option record (UsageError if bad)."""
    return build_parser().parse_args(argv)


def execute(cmd: argparse.Namespace) -> dict:
    """Run a validated command and return its result document."""
    return cmd.func(cmd)


def main(argv=None) -> int:
    try:
        cmd = parse_command(argv)
        output = render(execute(cmd), cmd.format)
    except Exception as exc:
        doc = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        # every refusal of the input is a ValueError; anything else breaks an invariant
        return 2 if isinstance(exc, ValueError) else 3
    print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
