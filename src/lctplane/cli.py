"""Command-line front end.

Subcommands cover every library capability: ``lct`` (with automatic
method dispatch), ``classify``, ``milnor``, ``imult``, ``lambda-set``,
``witness``, ``resolve``, ``wbound`` and ``selftest``.  Output is plain
text by default or JSON with ``--format json``; rationals are always
rendered ``p/q`` in lowest terms and infinity as ``inf``.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 irrational blowup center, 5 blowup cap exceeded, 1 anything else.
A polynomial argument with an exponent above ``parse.MAX_EXPONENT``
(1000), such as ``x^2+y^999999999``, or with a power or product that could
expand to more than ``parse.MAX_TERMS`` (10000) terms, such as
``(1+x+y)^1000``, is a precondition violation and exits 3 before any
computation.  So is a ``lambda-set`` or ``witness`` degree above the same
1000.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import classify_singularity
from .dispatch import lct
from .errors import (
    IrrationalCenter,
    LctError,
    NotClassifiable,
    ParseError,
    PreconditionError,
    ResolutionCap,
)
from .extended import INF
from .highmult import construct_witness, lambda_set, reducibility_hint
from .localinv import (
    intersection_multiplicity_origin,
    milnor_number_origin,
    weighted_lct_upper_bound,
)
from .parse import parse_poly, parse_rational, parse_terms
from .poly import BPoly
from .resolution import (
    DEFAULT_CAP,
    export_tree,
    lct_from_tree,
    resolve_over_origin,
)
from .selftest import run_selftest

__all__ = ["main"]


def _render(value):
    """Render a rational or infinity as CLI output text."""
    if value is INF:
        return "inf"
    return str(Fraction(value))


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"point must be 'X,Y', got {text!r}")
    return tuple(parse_rational(part.strip()) for part in parts)


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"weights must be 'W1,W2', got {text!r}")
    weights = tuple(parse_rational(part.strip()) for part in parts)
    if any(w <= 0 for w in weights):
        raise PreconditionError("weights must be positive")
    return weights


def _dehomogenize(text, chart):
    """Parse a homogeneous form in x, y, z and set the chart variable to 1.

    The two remaining variables become the affine x, y in alphabetical
    order of the original names.
    """
    raw = parse_terms(text, ("x", "y", "z"))
    if not raw:
        raise PreconditionError("projective input must be nonzero")
    degrees = {sum(exp) for exp in raw}
    if len(degrees) != 1:
        raise PreconditionError(
            "projective input must be homogeneous in x, y, z"
        )
    axes = {"x": 0, "y": 1, "z": 2}
    if chart not in axes:
        raise PreconditionError(f"chart must be one of x, y, z, got {chart!r}")
    # A homogeneous form's terms differ in the kept exponents, so no two
    # of them land on the same affine term.
    a, b = (i for i in range(3) if i != axes[chart])
    return BPoly._raw({(exp[a], exp[b]): coeff for exp, coeff in raw.items()})


def _input_poly(args):
    if getattr(args, "projective", None):
        f = _dehomogenize(args.polynomial, args.projective)
    else:
        f = parse_poly(args.polynomial)
    point = _parse_point(args.point) if getattr(args, "point", None) else (0, 0)
    return f.translate(point)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_lct(args):
    result = lct(_input_poly(args), cap=args.cap)
    payload = {"lct": _render(result.value), "method": result.method}
    _emit(args, payload, [f"lct = {payload['lct']} (method: {result.method})"])


def _cmd_classify(args):
    f = _input_poly(args)
    cls = classify_singularity(f)
    payload = {
        "symbol": cls.symbol,
        "mult": cls.mult,
        "mu": cls.mu,
        "lct": _render(cls.lct),
    }
    _emit(
        args,
        payload,
        [f"type {cls.symbol}: mult = {cls.mult}, mu = {cls.mu}, lct = {_render(cls.lct)}"],
    )


def _cmd_milnor(args):
    f = _input_poly(args)
    mu = milnor_number_origin(f)
    payload = {"mu": _render(mu) if mu is INF else mu}
    _emit(args, payload, [f"mu = {_render(mu) if mu is INF else mu}"])


def _cmd_imult(args):
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    point = _parse_point(args.point) if args.point else (0, 0)
    value = intersection_multiplicity_origin(f.translate(point), g.translate(point))
    payload = {"imult": _render(value) if value is INF else value}
    _emit(args, payload, [f"imult = {_render(value) if value is INF else value}"])


def _cmd_lambda_set(args):
    values = [_render(v) for v in lambda_set(args.d)]
    payload = {"d": args.d, "values": values}
    _emit(args, payload, [f"lambda set for degree {args.d}: " + ", ".join(values)])


def _cmd_witness(args):
    target = parse_rational(args.target)
    f = construct_witness(args.d, target)
    hint = reducibility_hint(target, args.d)
    payload = {
        "d": args.d,
        "target": _render(target),
        "witness": f.render(),
        "forces_reducible": hint,
    }
    lines = [f.render()]
    if hint:
        lines.append("(this lct value forces the curve to be reducible)")
    _emit(args, payload, lines)


def _cmd_resolve(args):
    f = _input_poly(args)
    tree = resolve_over_origin(f, cap=args.cap)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_tree(tree, "dot") + "\n")
    if args.format == "json":
        print(export_tree(tree, "json"))
    else:
        for node in tree.nodes:
            div = node.divisor
            parent = "origin" if node.parent is None else f"E{node.parent}"
            print(
                f"E{div.id} (over {parent}): m = {div.m}, a = {div.a}, "
                f"candidate = {_render(div.candidate)}"
            )
        print(f"lct = {_render(lct_from_tree(tree))}")


def _cmd_wbound(args):
    f = _input_poly(args)
    weights = _parse_weights(args.weights)
    result = weighted_lct_upper_bound(f, weights)
    payload = {
        "weights": [_render(w) for w in weights],
        "wt": _render(result.wt),
        "bound": _render(result.bound),
    }
    _emit(
        args,
        payload,
        [
            f"weighted order = {_render(result.wt)}, "
            f"upper bound = {_render(result.bound)}"
        ],
    )


def _cmd_selftest(args):
    report = run_selftest(scope=args.scope, seed=args.seed)
    payload = {
        "scope": report.scope,
        "seed": report.seed,
        "passed": report.passed,
        "total_checked": report.total_checked,
        "criteria": [
            {"name": r.name, "passed": r.passed, "checked": r.checked}
            for r in report.results
        ],
    }
    _emit(args, payload, report.lines())


def _add_common(parser, point=True, cap=False):
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    if point:
        parser.add_argument(
            "--point", metavar="X,Y", help="rational point to analyze (default origin)"
        )
    if cap:
        parser.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CAP,
            metavar="N",
            help="maximum number of blowups",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lctplane",
        description="Exact log canonical thresholds of reduced plane curves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lct", help="lct of a curve at a point")
    p.add_argument("polynomial")
    p.add_argument(
        "--projective",
        metavar="CHART",
        help="treat input as a form in x, y, z; dehomogenize at this chart",
    )
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_lct)

    p = sub.add_parser("classify", help="singularity type at a point (degree <= 5)")
    p.add_argument("polynomial")
    p.add_argument("--projective", metavar="CHART")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("milnor", help="Milnor number at a point")
    p.add_argument("polynomial")
    p.add_argument("--projective", metavar="CHART")
    _add_common(p)
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("imult", help="intersection multiplicity of two curves")
    p.add_argument("f")
    p.add_argument("g")
    _add_common(p)
    p.set_defaults(func=_cmd_imult)

    p = sub.add_parser(
        "lambda-set", help="all lcts at multiplicity-(d-1) points, degree d"
    )
    p.add_argument("d", type=int)
    _add_common(p, point=False)
    p.set_defaults(func=_cmd_lambda_set)

    p = sub.add_parser("witness", help="curve realizing a given lct value")
    p.add_argument("d", type=int)
    p.add_argument("target", help="rational lct value, e.g. 5/9")
    _add_common(p, point=False)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("resolve", help="embedded resolution tree over a point")
    p.add_argument("polynomial")
    p.add_argument("--projective", metavar="CHART")
    p.add_argument("--dot", metavar="FILE", help="also write the tree as DOT")
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("wbound", help="weighted-order upper bound for the lct")
    p.add_argument("polynomial")
    p.add_argument("--projective", metavar="CHART")
    p.add_argument(
        "--weights", metavar="W1,W2", required=True, help="positive rational weights"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_wbound)

    p = sub.add_parser("selftest", help="run the self-verification suite")
    p.add_argument("scope", nargs="?", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=1)
    _add_common(p, point=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


# Built on the first ``main`` call, not at import, and shared by later calls:
# ``parse_args`` only reads the parser and returns a fresh namespace.
_shared_parser = functools.cache(build_parser)


def _exit_code(exc):
    if isinstance(exc, ParseError):
        return 2
    if isinstance(exc, IrrationalCenter):
        return 4
    if isinstance(exc, ResolutionCap):
        return 5
    if isinstance(exc, (PreconditionError, NotClassifiable)):
        return 3
    return 1


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        args.func(args)
    except LctError as exc:
        code = _exit_code(exc)
        if getattr(args, "format", "text") == "json":
            print(
                json.dumps(
                    {
                        "status": "error",
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                ),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
