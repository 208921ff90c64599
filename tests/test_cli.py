"""End-to-end tests of the command-line interface."""

import json

import pytest

from lctplane.cli import main


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

    def test_classifier_dispatch(self, capsys):
        # degree 5, multiplicity 2: not the fast path, table lookup instead
        code, payload, _ = run_json(capsys, "lct", "x^2 + y^5")
        assert code == 0
        assert payload == {"lct": "7/10", "method": "classifier"}

    def test_off_curve(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "x^2+y^3", "--point", "7,5")
        assert code == 0
        assert payload == {"lct": "inf", "method": "trivial"}

    def test_smooth(self, capsys):
        code, payload, _ = run_json(capsys, "lct", "y - x^2")
        assert code == 0
        assert payload == {"lct": "1", "method": "trivial"}

    def test_resolution_dispatch(self, capsys):
        # degree 6, multiplicity 2: only the resolution engine applies
        code, payload, _ = run_json(capsys, "lct", "x^2 + y^6 + x*y^4")
        assert code == 0
        assert payload["method"] == "resolution"

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
        ],
    )
    def test_projective_refusals(self, capsys, form, chart, reason):
        code, _, err = run(capsys, "lct", form, "--projective", chart)
        assert code == 3 and reason in err


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "lct", "x^2 + @")
        assert code == 2 and "error" in err

    def test_precondition(self, capsys):
        code, _, err = run(capsys, "lct", "x^4 + 2*x^2*y^2 + y^4")
        assert code == 3 and "reduced" in err

    def test_irrational_center(self, capsys):
        code, _, err = run(capsys, "resolve", "(x^2 - 2*y^2)^2 + y^5")
        assert code == 4 and "irreducible" in err

    def test_cap(self, capsys):
        code, _, err = run(capsys, "resolve", "x^2+y^3", "--cap", "1")
        assert code == 5

    def test_degree_limit(self, capsys):
        code, _, err = run(capsys, "lambda-set", "1001")
        assert code == 3 and "degree limit" in err
        code, _, err = run(capsys, "witness", "1001", "1/2")
        assert code == 3 and "degree limit" in err

    def test_json_error_payload(self, capsys):
        code, out, err = run(capsys, "lct", "x^2 + @", "--format", "json")
        assert code == 2
        payload = json.loads(err)
        assert payload["status"] == "error" and payload["error"] == "ParseError"


class TestRepeatedCalls:
    """``main`` shares one parser between calls; no option may carry over."""

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

    def test_resolve_dot(self, capsys, tmp_path):
        dot_file = tmp_path / "tree.dot"
        code, _, _ = run(capsys, "resolve", "x^2+y^3", "--dot", str(dot_file))
        assert code == 0
        text = dot_file.read_text()
        assert text.startswith("digraph") and "E2 -> E3;" in text

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
        assert len(payload["criteria"]) == 8

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "lct", "x^2+y^3")
        assert code == 0 and out.strip() == "lct = 5/6 (method: highmult)"
