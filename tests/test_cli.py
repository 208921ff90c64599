"""End-to-end tests of the command-line interface."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lctplane import cli, selftest
from lctplane.cli import build_parser, main
from lctplane.errors import (
    CoefficientTooLarge,
    IrrationalCenter,
    LctError,
    NonPolynomial,
    NotClassifiable,
    NotSquareFree,
    ParseError,
    PreconditionError,
    ResolutionCap,
)
from lctplane.parse import MAX_COEFF_BITS, parse_poly
from lctplane.poly import BPoly
from lctplane.resolution import export_tree, resolve_over_origin
from lctplane.selftest import SelfTestReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


class TestLct:
    def test_cusp(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "x^2+y^3")
        assert code == 0
        assert payload == {"lct": "5/6", "method": "highmult"}

    def test_w12(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "y^4+x^5", "--point", "0,0")
        assert code == 0
        assert payload == {"lct": "9/20", "method": "highmult"}

    def test_low_degree_degenerate_dispatch(self, capsys):
        # degree 5, multiplicity 2, a square on the Newton edge: the Newton
        # route after y -> y + x, as at any degree
        code, payload, _ = run_json(capsys, "lct", "(x-y)^2 + y^5")
        assert code == 0
        assert payload == {"lct": "7/10", "method": "newton"}

    def test_off_curve(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "x^2+y^3", "--point", "7,5")
        assert code == 0
        assert payload == {"lct": "inf", "method": "trivial"}

    def test_smooth(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "y - x^2")
        assert code == 0
        assert payload == {"lct": "1", "method": "trivial"}

    @pytest.mark.parametrize("command", ["lct", "resolve"])
    def test_json_is_one_line(self, capsys, command):
        code, out, _ = run(capsys, command, "x^2+y^3", "--format", "json")
        assert code == 0 and out.count("\n") == 1 and out.endswith("}\n")

    def test_resolution_dispatch(self, capsys):
        # degree 7, multiplicity 2, a square on the Newton edge: no blowup,
        # the Newton route in the coordinates (x, y - x)
        code, payload, _ = run_json(capsys, "lct", "(x-y)^2 + y^7")
        assert code == 0
        assert payload == {"lct": "9/14", "method": "newton"}

    def test_newton_dispatch(self, capsys):
        # 102 blowups past the default cap, but one Newton edge
        code, payload, _ = run_json(capsys, "lct", "x^2+y^201")
        assert code == 0
        assert payload == {"lct": "203/402", "method": "newton"}

    def test_translated_point(self, capsys):
        code, payload, _ = run_json(
            capsys, "lct", "(x-1)^2 + (y-2)^3", "--point", "1,2"
        )
        assert code == 0
        assert payload["lct"] == "5/6"

    def test_projective(self, capsys):
        code, payload, _ = run_json(
            capsys, "lct", "x^2*z + y^3", "--projective", "z"
        )
        assert code == 0
        assert payload["lct"] == "5/6"

    @pytest.mark.parametrize(
        "form, chart, value",
        [("y^3*x + z^4", "x", "7/12"), ("x^2*y^3 + z^5", "y", "7/10"), ("x^3 - x*y^2", "z", "2/3")],
    )
    def test_projective_charts(self, capsys, form, chart, value):
        code, payload, _ = run_json(capsys, "lct", form, "--projective", chart)
        assert code == 0 and payload["lct"] == value

    @pytest.mark.parametrize(
        "form, chart, reason",
        [
            # x^2 at z = 1, but the form in x, y, z is not homogeneous
            ("x^2 + (z-1)*(x-y)", "z", "homogeneous"),
            ("0", "z", "nonzero"),
            ("x^2*z + y^3", "w", "chart"),
            ("x^2 + y^3", "w", "chart"),
        ],
    )
    def test_projective_refusals(self, capsys, form, chart, reason):
        code, _, err = run(capsys, "lct", form, "--projective", chart)
        assert code == 3 and reason in err


class TestResolve:
    def test_cusp_text(self, capsys):
        assert run(capsys, "resolve", "x^2+y^3") == (
            0,
            "E1 (over origin): m = 2, a = 1, candidate = 1\n"
            "E2 (over E1): m = 3, a = 2, candidate = 1\n"
            "E3 (over E2): m = 6, a = 4, candidate = 5/6\n"
            "lct = 5/6\n",
            "",
        )

    def test_center_off_zero_text(self, capsys):
        # E1 carries (t^2 - 1)^2: its centers t = -1 and t = 1 each build a
        # shifted base, and their subtrees hang off E1 in that order
        assert run(capsys, "resolve", "(y^2-x^2)^2+x^7") == (
            0,
            "E1 (over origin): m = 4, a = 1, candidate = 1/2\n"
            "E2 (over E1): m = 6, a = 2, candidate = 1/2\n"
            "E3 (over E2): m = 7, a = 3, candidate = 4/7\n"
            "E4 (over E3): m = 14, a = 6, candidate = 1/2\n"
            "E5 (over E1): m = 6, a = 2, candidate = 1/2\n"
            "E6 (over E5): m = 7, a = 3, candidate = 4/7\n"
            "E7 (over E6): m = 14, a = 6, candidate = 1/2\n"
            "lct = 1/2\n",
            "",
        )


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "lct", "x^2 + @")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "lct", "x^2+y^3", "--point", "1e9999999,0")
        assert code == 2 and "invalid rational" in err

    def test_precondition(self, capsys):
        code, _, err = run(capsys, "lct", "x^4 + 2*x^2*y^2 + y^4")
        assert code == 3 and "reduced" in err

    def test_irrational_center(self, capsys):
        code, _, err = run(capsys, "resolve", "(x^2 - 2*y^2)^2 + y^5")
        assert code == 4 and "irreducible" in err

    def test_square_on_a_newton_edge_keeps_its_route(self, capsys):
        # (1 - 2 t^2)^2 on the edge: its double roots, at d = 2, need no
        # change of coordinates, so lct meets no irrational center (resolve does)
        code, payload, _ = run_json(capsys, "lct", "(x^2-2*y^2)^2+y^7")
        assert code == 0
        assert payload == {"lct": "1/2", "method": "newton"}

    def test_lct_takes_no_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lct", "x^2+y^3", "--cap", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 3" in capsys.readouterr().err

    def test_irrational_center_names_least_degree(self, capsys):
        # E1 carries t^3 - 3 twice and t^2 - 2 three times; the message
        # names the factor of least degree, then least multiplicity
        code, _, err = run(capsys, "resolve", "(y^2-2*x^2)^3*(y^3-3*x^3)^2+x^13")
        assert code == 4 and err.endswith("polynomial t^2 - 2\n")

    def test_dot_option_is_a_usage_error(self, capsys, tmp_path):
        # the tree's DOT goes to stdout under --format dot; no option writes a file
        path = tmp_path / "tree.dot"
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "x^2+y^3", "--dot", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dot" in capsys.readouterr().err
        assert not path.exists()

    def test_cap(self, capsys):
        code, _, err = run(capsys, "resolve", "x^2+y^3", "--cap", "1")
        assert code == 5

    # lct takes no --cap, so there any value is a usage error too; resolve
    # reads any int, and the library refuses a negative one
    @pytest.mark.parametrize("argv", [("resolve", "x^2+y^3"), ("lct", "x^2+y^7")])
    @pytest.mark.parametrize("cap", ["-1", "x"])
    def test_cap_must_be_a_count(self, capsys, argv, cap):
        code, out, err = outcome(capsys, [*argv, "--cap", cap])
        if (argv[0], cap) == ("resolve", "-1"):
            assert (code, out, err) == (3, "", "error: cap must be at least 0, got -1\n")
        else:
            assert code == "SystemExit(2)" and "--cap" in err

    def test_degree_limit(self, capsys):
        code, _, err = run(capsys, "lambda-set", "1001")
        assert code == 3 and "degree limit" in err
        code, _, err = run(capsys, "witness", "1001", "1/2")
        assert code == 3 and "degree limit" in err

    def test_classify_refusal(self, capsys):
        # T(2,3,8)'s triple, but the degree-7 germ's lct is 10/21, not 1/2
        code, _, err = run(capsys, "classify", "x^3+y^7")
        assert code == 3 and "resolution ledger" in err

    def test_classify_chain_refused_within_cap(self, capsys):
        # lct reads 203/402 off the Newton boundary; the classifier stops at
        # the largest multiplicity-2 row ledger
        code, _, err = run(capsys, "classify", "x^2+y^201")
        assert code == 3 and "more than 8 blowups" in err

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # not reduced either, but refused as the classifier's own
            # precondition first: the origin is a smooth point
            ("x*(y-1)^2", "NotSingular", "origin is not a singular point of the curve"),
            # not reduced either, but no row has its multiplicity
            ("(x+y)^2*x^7", "NotClassifiable", "no table row has multiplicity 9"),
            # singular, of a table multiplicity, and not reduced
            ("x^4+2*x^2*y^2+y^4", "NotSquareFree", "curve must be reduced"),
        ],
    )
    def test_classify_refusal_order(self, capsys, text, error, message):
        code, out, err = run(capsys, "classify", text)
        assert (code, out, err) == (3, "", f"error: {message}\n")
        code, _, err = run_json(capsys, "classify", text)
        assert code == 3
        assert json.loads(err) == {"status": "error", "error": error, "message": message}

    def test_point_coefficient_limit(self, capsys, monkeypatch):
        def shift(self, point):
            raise AssertionError("an oversize shift reached the Taylor shift")

        monkeypatch.setattr(BPoly, "translate", shift)
        point = "1" + "0" * 2000 + ",0"
        for argv in (["lct", "x^1000+y"], ["imult", "x^1000+y", "x"]):
            code, _, err = run(capsys, *argv, "--point", point)
            assert code == 3 and "coefficient limit" in err

    def test_point_coefficient_limit_boundary(self, capsys):
        # the charge is the degree times the point's bits plus f's bits
        bits = (MAX_COEFF_BITS - 1) // 15
        assert 15 * bits + 1 == MAX_COEFF_BITS
        point = f"--point={2 ** (bits - 1)},0"  # 1315 digits
        code, payload, _ = run_json(capsys, "lct", "x^15+y", point)
        assert code == 0 and payload == {"lct": "inf", "method": "trivial"}
        code, _, err = run_json(capsys, "lct", "x^15+2*y", point)  # one bit more
        assert code == 3 and json.loads(err)["error"] == "CoefficientTooLarge"

    def test_exit_code_on_error_types(self):
        expected = {
            LctError: 1,
            ParseError: 2,
            NonPolynomial: 2,
            PreconditionError: 3,
            NotSquareFree: 3,
            CoefficientTooLarge: 3,
            NotClassifiable: 3,
            IrrationalCenter: 4,
            ResolutionCap: 5,
        }
        assert {cls: cls.exit_code for cls in expected} == expected

    def test_json_error_payload(self, capsys):
        code, out, err = run(capsys, "lct", "x^2 + @", "--format", "json")
        assert code == 2
        payload = json.loads(err)
        assert payload["status"] == "error" and payload["error"] == "ParseError"


class TestSignedValues:
    """Any option's value may begin with a minus sign and a digit."""

    def test_point_as_separate_token(self, capsys):
        joined = outcome(capsys, ["lct", "(x+1)^2+y^3", "--point=-1,0", "--format", "json"])
        assert joined == (0, '{"lct": "5/6", "method": "highmult"}\n', "")
        assert outcome(capsys, ["lct", "(x+1)^2+y^3", "--point", "-1,0", "--format", "json"]) == joined

    def test_negative_weight_is_a_precondition(self, capsys):
        code, out, err = run(capsys, "wbound", "x^3+y^4", "--weights", "-1,2")
        assert code == 3 and out == "" and "weights must be positive" in err

    def test_negative_cap_is_still_refused(self, capsys):
        code, out, err = run(capsys, "resolve", "x^2+y^3", "--cap", "-1")
        assert (code, out, err) == (3, "", "error: cap must be at least 0, got -1\n")
        code, out, err = run(capsys, "resolve", "x^2+y^3", "--cap", "-1", "--format", "json")
        assert code == 3 and out == "" and json.loads(err)["error"] == "PreconditionError"

    def test_missing_point_value_is_a_usage_error(self, capsys):
        code, _, err = outcome(capsys, ["lct", "x^2+y^3", "--point", "--format", "json"])
        assert code == "SystemExit(2)"
        assert "argument --point: expected one argument" in err


class TestRepeatedCalls:
    """No option may carry over from one ``main`` call to the next."""

    def test_point_and_cap_do_not_leak(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "x^2+y^3", "--point", "7,5")
        assert code == 0 and payload["lct"] == "inf"
        code, payload, _ = run_json(capsys, "lct", "x^2+y^3")
        assert code == 0 and payload["lct"] == "5/6"
        code, _, _ = run(capsys, "resolve", "x^2+y^3", "--cap", "1")
        assert code == 5
        code, out, _ = run(capsys, "resolve", "x^2+y^3")
        assert code == 0 and out.strip().endswith("lct = 5/6")

    def test_subcommand_switch(self, capsys):
        assert run_json(capsys, "lct", "x^2+y^3")[1]["method"] == "highmult"
        code, payload, _ = run_json(capsys, "classify", "x^3*y + y^5 + x*y^4")
        assert code == 0 and payload["symbol"] == "Z11"
        code, payload, _ = run_json(capsys, "resolve", "x^2+y^3")
        assert code == 0 and payload["lct"] == "5/6"

    def test_errors_then_success(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lct", "x^2+y^3", "--no-such-option"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, _, _ = run(capsys, "lct", "x^2 + @", "--format", "json")
        assert code == 2
        code, out, err = run(capsys, "lct", "x^2+y^3")
        assert code == 0 and err == ""
        assert out.strip() == "lct = 5/6 (method: highmult)"


def outcome(capsys, argv):
    """Exit code (a usage error's ``SystemExit`` code too), stdout, stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argparse_outcome(capsys, monkeypatch, argv):
    """``outcome`` with argparse alone: ``main`` reads nothing off the
    argument table and routes every argv through a fresh parser."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read", lambda argv: None)
        return outcome(capsys, argv)


# Drawn argvs.  Most tokens are well formed: a subcommand's positionals and
# its own options, each with a value that passes the option's type and
# choices, in the separate or the ``=`` form; an option repeats when it is
# drawn twice.  The rest are a missing or extra positional, help, ``--``,
# values beginning with ``-`` or empty, values of the wrong type or choice,
# and abbreviated (``--p`` is ambiguous) and unknown options, in both forms.
_PLAIN = ("x^2+y^3", "y-x^2", "x*y", "3", "0,0", "1,2", "4,3", "5/9", "json", "z")
_OTHER = ("-x^2+y^3", "-1", "-1,0", "")
_INEXACT = ("--form", "--poi", "--ca", "--p", "--bogus", "-x")
_ACTIONS = {name: parser._actions[1:] for name, parser in build_parser()[1].items()}


def _values(action):
    """Values that pass ``action``'s type and choices."""
    return action.choices or (("0", "3") if action.type else _PLAIN)


def _option(flags, values):
    """An option and its value, as two tokens or joined by ``=``."""
    pairs = st.tuples(st.sampled_from(flags), st.sampled_from(values))
    return st.one_of(pairs.map(list), pairs.map("=".join).map(lambda token: [token]))


def _argv(name):
    """Drawn argvs of subcommand ``name``."""
    actions = _ACTIONS.get(name, [])
    flags = [a.option_strings[0] for a in actions if a.option_strings]
    noise = [
        st.sampled_from(("-h", "--", *_PLAIN, *_OTHER)).map(lambda token: [token]),
        _option(flags or ["--format"], _OTHER),
        _option(_INEXACT, _PLAIN + _OTHER),
    ]
    options = [_option(a.option_strings, _values(a)) for a in actions if a.option_strings]
    positionals = st.tuples(*(st.sampled_from(_values(a)) for a in actions if not a.option_strings))
    return st.builds(
        lambda values, groups, at: [name, *sum(groups[:at], []), *values, *sum(groups[at:], [])],
        positionals.flatmap(lambda p: st.sampled_from([p, p, p, p[:-1]])),  # one in four misses one
        st.lists(st.one_of(*options, *noise), max_size=3),
        st.integers(0, 3),  # how many option groups come before the positionals
    )


argvs = st.sampled_from(sorted(_ACTIONS) + ["lcx"]).flatmap(_argv)


class TestRouting:
    """``main`` reads a well-formed argv straight off the argument table and
    hands every other argv to argparse; every answer, usage error and help
    text must be what argparse alone, on a fresh parser, then the same
    dispatch, gives."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lct", "x^2+y^3"],
            ["lct", "x^2+y^7", "--format", "json", "--point", "0,0"],
            ["lct", "x^2+y^7", "--cap", "1"],
            ["resolve", "x^2+y^7", "--cap", "1"],
            ["resolve", "x^2+y^3", "--cap=5", "--format=json"],
            ["classify", "x^2+y^5", "--projective", "z"],
            ["imult", "x", "y"],
            ["witness", "3", "5/9", "--format", "json"],
            ["wbound", "x^3+y^4", "--weights", "4,3"],
            ["lct", "x^2+y^3", "--bogus"],
            ["lct", "x^2+y^3", "extra"],
            ["imult", "x", "y", "z", "--bogus"],
            ["lct"],
            ["lct", "x^2+y^3", "--format", "xml"],
            ["lct", "x^2+y^3", "--cap", "-1"],
            ["resolve", "x^2+y^3", "--cap", "-1"],
            ["lct", "x^2+y^3", "--point"],
            ["lct", "-h"],
            ["resolve", "x^2+y^3", "--he"],
            ["lct", "--", "-x^2+y^3"],
            ["lct", "-x^2+y^3"],
            ["lcx", "x^2+y^3"],
            [],
            ["-h"],
        ],
        ids=lambda argv: " ".join(argv) or "(empty)",
    )
    def test_same_as_one_parse_args(self, capsys, monkeypatch, argv):
        assert outcome(capsys, argv) == argparse_outcome(capsys, monkeypatch, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolve", "x^2+y^3", "--format", "json", "--point=1,2", "--cap", "3"],
            ["resolve", "--cap=0", "x^2+y^3", "--projective", "z"],
            ["resolve", "x^2+y^3", "--point", "-1,0", "--format=text"],
            ["resolve", "x^2+y^3", "--format", "dot"],
            ["imult", "x", "--point", "0,0", "y"],
            ["lambda-set", "4", "--format", "json"],
            ["wbound", "x^3+y^4", "--weights", "4,3"],
            ["selftest", "fast"],
            ["selftest", "--seed", "-2"],
            ["wbound", "x^3+y^4", "--weights", "-1,2"],
        ],
        ids=" ".join,
    )
    def test_well_formed_argv_is_read_off_the_table(self, argv):
        parser = build_parser()[0]
        argv = cli._join_values(argv)
        assert vars(cli._read(argv)) == vars(parser.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["lct", "x^2+y^3", "--form", "json"],
            ["lct", "x^2+y^3", "--format", "json", "--format", "text"],
            ["lct", "x^2+y^3", "--format", "xml"],
            ["lct", "x^2+y^3", "--cap", "x"],
            ["resolve", "x^2+y^3", "--cap", "x"],
            ["lct", "--", "x^2+y^3"],
            ["lct", "x^2+y^3", "-h"],
            ["lct", "x^2+y^3", "--point"],
            ["lct", "x^2+y^3", "--point", "-x"],
            ["imult", "x"],
            ["lcx", "x^2+y^3"],
            [],
        ],
        ids=lambda argv: " ".join(argv) or "(empty)",
    )
    def test_everything_else_goes_to_argparse(self, argv):
        assert cli._read(cli._join_values(argv)) is None

    def test_nothing_after_double_dash_is_joined(self, capsys):
        # the polynomial is "--point", and "-1,0" is left over
        assert cli._join_values(["lct", "--", "--point", "-1,0"]) == ["lct", "--", "--point", "-1,0"]
        code, out, err = outcome(capsys, ["lct", "--", "--point", "-1,0"])
        assert code == "SystemExit(2)" and out == ""
        assert "usage: lctplane lct " in err and "unrecognized arguments: -1,0" in err

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs)
    def test_drawn_argv_same_as_argparse(self, capsys, monkeypatch, argv):
        # a well-formed selftest argv would run the whole suite, twice
        monkeypatch.setattr(
            selftest, "run_selftest", lambda scope, seed: SelfTestReport(scope, seed, ())
        )
        assert outcome(capsys, argv) == argparse_outcome(capsys, monkeypatch, argv)


class TestSubcommands:
    def test_classify(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "x^3*y + y^5 + x*y^4")
        assert code == 0
        assert payload == {"symbol": "Z11", "mult": 4, "mu": 11, "lct": "7/15"}

    def test_milnor(self, capsys):
        code, payload, _ = run_json(capsys, "milnor", "x^2+y^3")
        assert code == 0 and payload == {"mu": 2}

    def test_milnor_inf(self, capsys):
        code, payload, _ = run_json(capsys, "milnor", "x^2*y^2")
        assert code == 0 and payload == {"mu": "inf"}

    def test_imult(self, capsys):
        code, payload, _ = run_json(capsys, "imult", "2*x", "3*y^2")
        assert code == 0 and payload == {"imult": 2}

    def test_lambda_set(self, capsys):
        code, payload, _ = run_json(capsys, "lambda-set", "4")
        assert code == 0
        assert payload == {"d": 4, "values": ["5/9", "7/12", "3/5", "5/8", "2/3"]}

    def test_witness(self, capsys):
        code, payload, _ = run_json(capsys, "witness", "4", "5/9")
        assert code == 0
        assert payload["forces_reducible"] is True
        check, verdict, _ = run_json(capsys, "lct", payload["witness"])
        assert check == 0 and verdict["lct"] == "5/9"

    def test_resolve_json(self, capsys):
        code, payload, _ = run_json(capsys, "resolve", "x^2+y^3")
        assert code == 0
        assert payload["lct"] == "5/6"
        assert [(d["m"], d["a"]) for d in payload["divisors"]] == [
            (2, 1),
            (3, 2),
            (6, 4),
        ]

    def test_resolve_dot(self, capsys):
        code, out, _ = run(capsys, "resolve", "x^2+y^3", "--format", "dot")
        assert code == 0
        assert out == export_tree(resolve_over_origin(parse_poly("x^2+y^3")), "dot") + "\n"
        assert out.startswith("digraph") and "E2 -> E3;" in out

    def test_wbound(self, capsys):
        code, payload, _ = run_json(
            capsys, "wbound", "x^3+y^4", "--weights", "4,3"
        )
        assert code == 0
        assert payload == {"weights": ["4", "3"], "wt": "12", "bound": "7/12"}

    def test_selftest_fast(self, capsys):
        code, payload, _ = run_json(capsys, "selftest", "fast", "--seed", "1")
        assert code == 0
        assert payload["passed"] is True
        assert payload["total_checked"] >= 400
        assert [c["name"] for c in payload["criteria"]] == [
            "table1-reproduction",
            "theorem-vs-oracle",
            "lambda-realization",
            "normal-form-invariants",
            "classifier-round-trip",
            "bound-properties",
            "fulton-properties",
            "resolution-ledger",
        ]
        assert all(c["passed"] and c["checked"] > 0 for c in payload["criteria"])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "lct", "x^2+y^3")
        assert code == 0 and out.strip() == "lct = 5/6 (method: highmult)"
