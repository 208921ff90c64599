"""A wrong Table 1 value fails both the self-test and the acceptance test,
wherever it sits: in what ``table1_values`` returns, in a row of
``data/tables.json``, or in the shipped copy of the table.  A refusal of
the library inside a criterion fails that criterion alone."""

import json
import re

import pytest

import test_acceptance
from lctplane import classify, selftest
from lctplane.cli import main
from lctplane.errors import NotClassifiable, SelfTestFailure, TargetNotRealizable


def _drop_from_table1_values(monkeypatch):
    real = selftest.table1_values
    monkeypatch.setattr(
        selftest, "table1_values", lambda d: real(d)[1:] if d == 5 else real(d)
    )


def _wrong_lct_in_tables_json(monkeypatch):
    # A6 occurs from degree 4 on, and no other row shares its lct 9/14
    row = classify._CLASSES["A6"]
    monkeypatch.setitem(classify._CLASSES, "A6", {**row, "lct": "9/13"})


def _drop_from_shipped_table1(monkeypatch):
    monkeypatch.setitem(selftest._TABLE1, 5, selftest._TABLE1[5][1:])


@pytest.mark.parametrize(
    "corrupt",
    [_drop_from_table1_values, _wrong_lct_in_tables_json, _drop_from_shipped_table1],
)
def test_wrong_table1_value_fails_selftest_and_acceptance(monkeypatch, corrupt):
    corrupt(monkeypatch)
    report = selftest.run_selftest("full")
    assert not report.passed and len(report.results) == 8  # every criterion ran
    table1 = report.results[0]
    assert (table1.name, table1.passed, table1.checked) == ("table1-reproduction", False, 0)
    assert re.match(r"table1: instance d=[45]\n  expected: .*\n  got: ", table1.failure)
    assert report.lines()[0] == f"[FAIL] table1-reproduction: {table1.failure}"
    assert report.lines()[-1].startswith("selftest FAIL: ")
    with pytest.raises(SelfTestFailure, match="^table1"):
        test_acceptance.test_criterion_1_table1_reproduction()


def test_cli_selftest_exits_1_and_prints_the_instance(monkeypatch, capsys):
    _drop_from_table1_values(monkeypatch)
    assert main(["selftest", "fast"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(
        "[FAIL] table1-reproduction: table1: instance d=5\n  expected: ['2/5', "
    )
    assert "\n[PASS] resolution-ledger: " in captured.out
    assert "\nselftest FAIL: " in captured.out

    assert main(["selftest", "fast", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    table1, *rest = payload["criteria"]
    assert table1["passed"] is False and table1["checked"] == 0
    assert table1["failure"].startswith("table1: instance d=5\n  expected: ['2/5', ")
    assert all(c["passed"] and "failure" not in c for c in rest)


def test_acceptance_literal_catches_a_table_wrong_in_both_shipped_copies(monkeypatch):
    """The same wrong value in the data and in the shipped table passes the
    self-test, which compares the two; the acceptance test's own literal
    still catches it."""
    _wrong_lct_in_tables_json(monkeypatch)
    for d in (4, 5):
        wrong = tuple(str(v) for v in classify.table1_values(d))
        monkeypatch.setitem(selftest._TABLE1, d, wrong)
    assert selftest.check_table1().passed
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_1_table1_reproduction()


def _refuse(exc):
    def refuse(*args):
        raise exc

    return refuse


def test_a_library_refusal_fails_only_its_criterion(monkeypatch, capsys):
    monkeypatch.setattr(
        selftest, "classify_singularity", _refuse(NotClassifiable("no table row"))
    )
    report = selftest.run_selftest("fast")
    assert len(report.results) == 8 and not report.passed
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["classifier-round-trip"]
    assert failed[0].failure == "NotClassifiable: no table row"
    assert failed[0].checked == 0

    assert main(["selftest", "fast"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "\n[FAIL] classifier-round-trip: NotClassifiable: no table row\n" in captured.out
    assert captured.out.count("[PASS] ") == 7

    assert main(["selftest", "fast", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert [c["name"] for c in payload["criteria"] if not c["passed"]] == [
        "classifier-round-trip"
    ]


def test_a_witness_refused_fails_realization_and_ledger(monkeypatch):
    monkeypatch.setattr(
        selftest, "construct_witness", _refuse(TargetNotRealizable("the witness misses"))
    )
    report = selftest.run_selftest("fast")
    failed = {r.name: r.failure for r in report.results if not r.passed}
    assert failed == {
        "lambda-realization": "TargetNotRealizable: the witness misses",
        "resolution-ledger": "TargetNotRealizable: the witness misses",
    }
    assert len(report.results) == 8


def test_an_unknown_scope_is_refused():
    with pytest.raises(ValueError) as caught:
        selftest.run_selftest("medium")
    assert caught.type is ValueError
    assert caught.value.args == ("scope must be 'fast' or 'full', got 'medium'",)
