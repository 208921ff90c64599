"""Command-line front end.

Subcommands cover every library capability: ``lct`` (with automatic
method dispatch), ``classify``, ``milnor``, ``imult``, ``lambda-set``,
``witness``, ``resolve``, ``wbound`` and ``selftest``.  Output is plain
text by default or JSON with ``--format json``, and ``resolve`` also
writes its tree as DOT with ``--format dot``; rationals are always
rendered ``p/q`` in lowest terms and infinity as ``inf``.

Exit codes, each error class's ``exit_code``: 0 success, 2 parse error,
3 precondition violation or unclassifiable germ, 4 irrational blowup
center, 5 blowup cap exceeded, 1 anything else, and a ``selftest``
whose report says FAIL.  ``lct`` blows nothing up, so it never exits 4
or 5.  These exit 3 before any computation: an exponent above
``parse.MAX_EXPONENT`` (1000), as in ``x^2+y^999999999``; a power or
product that could expand to more than ``parse.MAX_TERMS`` (10000)
terms, as ``(1+x+y)^1000``; a power or a ``--point`` shift charged more
than ``parse.MAX_COEFF_BITS`` (65536) coefficient bits
(``CoefficientTooLarge``), as ``(10^1000)^1000``; a ``lambda-set`` or
``witness`` degree above 1000; and a negative ``resolve --cap``, which
``resolve_over_origin`` refuses.  ``classify`` exits 3 on
a germ whose resolution ledger matches no table row, as ``x^3+y^7``, or
needs more blowups than every row of its multiplicity, as ``x^2+y^201``.

Each subcommand's arguments are declared once, in ``_COMMANDS``.  ``main``
first joins each option the subcommand declares to the value after it,
as ``--option=value``, up to a ``--``; so a value may begin with a minus
sign and a digit, as in ``--point -1,0``, which argparse would otherwise
take for an option.  It then reads the joined argv straight off the table
when every token after the subcommand is a plain positional (not
beginning with ``-``) or ``--option=value``, each option at most once,
every required positional and option there, and every value passing its
type and choices.  Any other argv (``-h``, ``--``, an abbreviated,
unknown, repeated or missing option, a missing or extra positional, a bad
value) goes to argparse, which is imported only then.  So every outcome
is argparse's on the joined argv, and argparse alone writes help, usage
and error text: an unknown or extra argument after a subcommand is
reported by that subcommand's parser, under its own usage line, and every
other outcome is what one ``parse_args`` on ``build_parser()`` gives.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from .classify import classify_singularity
from .dispatch import lct
from .errors import CoefficientTooLarge, LctError, ParseError, PreconditionError
from .extended import INF
from .highmult import construct_witness, lambda_set, reducibility_hint
from .localinv import (
    intersection_multiplicity_origin, milnor_number_origin, weighted_lct_upper_bound,
)
from .parse import MAX_COEFF_BITS, coeff_bits, parse_poly, parse_rational, parse_terms
from .poly import BPoly
from .resolution import DEFAULT_CAP, export_tree, resolve_over_origin

__all__ = ["main"]


def _render(value):
    """Render a rational or infinity as CLI output text."""
    return "inf" if value is INF else str(Fraction(value))


def _count(value):
    """A count as itself, infinity as ``"inf"``."""
    return "inf" if value is INF else value


def _pair(text, usage):
    """Read ``A,B`` as two rationals; ``usage`` names the expected form."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"{usage}, got {text!r}")
    return tuple(parse_rational(part.strip()) for part in parts)


def _at_point(polys, text):
    """The polynomials moved so that the ``--point`` text (none: the origin)
    becomes the origin; the Taylor shift raises each coordinate to powers up
    to the degree, so a shift charged over ``MAX_COEFF_BITS`` bits is refused."""
    if not text:
        return polys
    point = _pair(text, "point must be 'X,Y'")
    for f in polys:
        # the numerators and the denominator (at least 1) are the ints shifted
        if not f.is_zero and (
            f.degree * coeff_bits(point)
            + max(f._den, max(map(abs, f._terms.values()))).bit_length()
            > MAX_COEFF_BITS
        ):
            raise CoefficientTooLarge(
                f"shift to --point exceeds the coefficient limit of {MAX_COEFF_BITS} bits"
            )
    return [f.translate(point) for f in polys]


def _dehomogenize(text, chart):
    """Parse a homogeneous form in x, y, z and set the chart variable to 1.

    The two remaining variables become the affine x, y in alphabetical
    order of the original names.
    """
    axes = {"x": 0, "y": 1, "z": 2}
    if chart not in axes:
        raise PreconditionError(f"chart must be one of x, y, z, got {chart!r}")
    raw = parse_terms(text, ("x", "y", "z"))
    if not raw:
        raise PreconditionError("projective input must be nonzero")
    degrees = {sum(exp) for exp in raw}
    if len(degrees) != 1:
        raise PreconditionError(
            "projective input must be homogeneous in x, y, z"
        )
    # A homogeneous form's terms differ in the kept exponents, so no two
    # of them land on the same affine term.
    a, b = (i for i in range(3) if i != axes[chart])
    return BPoly({(exp[a], exp[b]): coeff for exp, coeff in raw.items()})


def _input_poly(args):
    if args.projective:
        f = _dehomogenize(args.polynomial, args.projective)
    else:
        f = parse_poly(args.polynomial)
    return _at_point([f], args.point)[0]


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_lct(args):
    result = lct(_input_poly(args))
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
    mu = _count(milnor_number_origin(f))
    _emit(args, {"mu": mu}, [f"mu = {mu}"])


def _cmd_imult(args):
    f, g = _at_point([parse_poly(args.f), parse_poly(args.g)], args.point)
    value = _count(intersection_multiplicity_origin(f, g))
    _emit(args, {"imult": value}, [f"imult = {value}"])


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
    print(export_tree(resolve_over_origin(_input_poly(args), cap=args.cap), args.format))


def _cmd_wbound(args):
    f = _input_poly(args)
    weights = _pair(args.weights, "weights must be 'W1,W2'")
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
    from .selftest import run_selftest  # with the corpus, needed by no other command

    report = run_selftest(scope=args.scope, seed=args.seed)
    payload = {
        "scope": report.scope,
        "seed": report.seed,
        "passed": report.passed,
        "total_checked": report.total_checked,
        "criteria": [
            {"name": r.name, "passed": r.passed, "checked": r.checked}
            | ({} if r.passed else {"failure": r.failure})
            for r in report.results
        ],
    }
    _emit(args, payload, report.lines())
    return 0 if report.passed else 1


# Each subcommand's handler, help line and arguments, declared once.  An
# argument is (flag, add_argument keyword arguments), in the order the help
# lists them: ``build_parser`` adds them to argparse, and ``_read`` reads a
# well-formed argv straight off them.  Each spec's type is a builtin: a
# value's range is judged by the library function that uses it.
_FORMAT = ("--format", dict(choices=("text", "json"), default="text", help="output format"))
_POINT = ("--point", dict(metavar="X,Y", help="rational point to analyze (default origin)"))
_POLYNOMIAL = ("polynomial", {})
_PROJECTIVE = ("--projective", dict(
    metavar="CHART", help="treat input as a form in x, y, z; dehomogenize at this chart"
))

_COMMANDS = {
    "lct": (_cmd_lct, "lct of a curve at a point", (
        _POLYNOMIAL, _PROJECTIVE, _FORMAT, _POINT,
    )),
    "classify": (_cmd_classify, "singularity type at a point (degree <= 5)", (
        _POLYNOMIAL, _PROJECTIVE, _FORMAT, _POINT,
    )),
    "milnor": (_cmd_milnor, "Milnor number at a point", (
        _POLYNOMIAL, _PROJECTIVE, _FORMAT, _POINT,
    )),
    "imult": (_cmd_imult, "intersection multiplicity of two curves", (
        ("f", {}), ("g", {}), _FORMAT, _POINT,
    )),
    "lambda-set": (_cmd_lambda_set, "all lcts at multiplicity-(d-1) points, degree d", (
        ("d", dict(type=int)), _FORMAT,
    )),
    "witness": (_cmd_witness, "curve realizing a given lct value", (
        ("d", dict(type=int)), ("target", dict(help="rational lct value, e.g. 5/9")), _FORMAT,
    )),
    "resolve": (_cmd_resolve, "embedded resolution tree over a point", (
        _POLYNOMIAL, _PROJECTIVE,
        ("--format", dict(choices=("text", "json", "dot"), default="text", help="output format")),
        _POINT,
        ("--cap", dict(
            type=int, default=DEFAULT_CAP, metavar="N", help="blowup cap of the resolution"
        )),
    )),
    "wbound": (_cmd_wbound, "weighted-order upper bound for the lct", (
        _POLYNOMIAL, _PROJECTIVE,
        ("--weights", dict(metavar="W1,W2", required=True, help="positive rational weights")),
        _FORMAT, _POINT,
    )),
    "selftest": (_cmd_selftest, "run the self-verification suite", (
        ("scope", dict(nargs="?", choices=("fast", "full"), default="fast")),
        ("--seed", dict(type=int, default=1)),
        _FORMAT,
    )),
}


def build_parser():
    """The top-level parser and the map from subcommand name to its parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lctplane",
        description="Exact log canonical thresholds of reduced plane curves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser, sub.choices


def _dest(flag):
    """The namespace attribute argparse gives ``flag``."""
    return flag[2:].replace("-", "_") if flag[:1] == "-" else flag


# What ``_read`` needs of each subcommand: its handler, its positionals'
# names, its options' names by flag, and every (name, spec).  A positional
# is required unless its ``nargs`` is "?", an option only when its spec says
# so; an optional positional comes last, so plain tokens fill them in order.
_READERS = {
    name: (
        func,
        [flag for flag, _ in arguments if flag[0] != "-"],
        {flag: _dest(flag) for flag, _ in arguments if flag[0] == "-"},
        [(_dest(flag), spec) for flag, spec in arguments],
    )
    for name, (func, _, arguments) in _COMMANDS.items()
}


def _join_values(argv):
    """argv with each option its subcommand declares joined by ``=`` to the
    token after it, unless that token begins with ``-`` and no digit; no
    token from ``--`` on is joined.  argparse takes any other token after
    the option for its value, but a signed one such as "-1,0" for an
    option, unless it is joined."""
    options = _READERS[argv[0]][2] if argv and argv[0] in _READERS else {}
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        if token == "--":
            return [*out, token, *tokens]
        if out[-1] in options and (token[:1] != "-" or token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _read(argv):
    """The namespace one ``parse_args`` gives for a joined ``argv``, read
    off the table, or None when some token after the subcommand is neither
    a plain positional nor ``--option=value`` for an exact option; when an
    option repeats, a required positional or option is missing or a
    positional is extra; or when a value fails its type or choices."""
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    func, positionals, options, specs = reader
    texts, found = {}, []
    for token in argv[1:]:
        if token[:1] != "-":
            found.append(token)
            continue
        flag, joined, text = token.partition("=")
        dest = options.get(flag) if joined else None
        if dest is None or dest in texts:
            return None
        texts[dest] = text
    if len(found) > len(positionals):
        return None
    texts.update(zip(positionals, found))
    values = {"subcommand": argv[0], "func": func}
    try:
        for dest, spec in specs:
            value = spec.get("default")
            if dest in texts:
                value = spec["type"](texts[dest]) if "type" in spec else texts[dest]
                if "choices" in spec and value not in spec["choices"]:
                    return None
            elif spec.get("required", dest in positionals and "nargs" not in spec):
                return None
            values[dest] = value
    except Exception:  # argparse calls the type again and reports or raises it
        return None
    return SimpleNamespace(**values)


def _parse(argv):
    """The namespace argparse reads from ``argv``; a usage error, or help,
    exits.  An argument left over after the subcommand is reported by the
    subcommand's parser, one before it by the top-level parser."""
    parser, commands = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        owner = commands[args.subcommand] if argv[0] == args.subcommand else parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None):
    argv = _join_values(sys.argv[1:] if argv is None else list(argv))
    args = _read(argv) or _parse(argv)
    try:
        code = args.func(args)
    except LctError as exc:
        if args.format == "json":
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
        return exc.exit_code
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
