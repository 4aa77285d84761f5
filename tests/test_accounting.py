import dataclasses
import random

import pytest

from beamqa.accounting import CostLedger, CostReport, format_cost_table


def test_record_api_call_updates_counts_and_tokens():
    ledger = CostLedger()
    ledger.record_api_call(100, 50)
    assert ledger.api_times == 1
    assert ledger.total_tokens == 150


def test_two_calls_count_twice():
    ledger = CostLedger()
    ledger.record_api_call(1, 1)
    ledger.record_api_call(2, 2)
    assert ledger.api_times == 2


def test_zero_tokens_count_a_call():
    ledger = CostLedger()
    ledger.record_api_call(0, 0)
    assert (ledger.api_times, ledger.total_tokens) == (1, 0)


def test_negative_tokens_rejected():
    with pytest.raises(ValueError):
        CostLedger().record_api_call(-1, 0)


def test_record_retrieval_counts():
    ledger = CostLedger()
    ledger.record_retrieval()
    assert ledger.retrieval_times == 1
    for _ in range(4):
        ledger.record_retrieval()
    assert ledger.retrieval_times == 5
    assert ledger.api_times == 0


def test_report_reproduces_19_by_290():
    ledger = CostLedger()
    for _ in range(19):
        ledger.record_api_call(232, 58)  # 290 tokens per call
    report = ledger.report()
    assert report.api_times == 19
    assert report.tokens_per_api == 290
    assert report.tokens_per_query == 5510
    assert report.arithmetic() == "19 x 290 = 5510"


def test_report_reproduces_1_by_54():
    ledger = CostLedger()
    ledger.record_api_call(40, 14)
    report = ledger.report()
    assert (report.api_times, report.tokens_per_api, report.tokens_per_query) == (1, 54, 54)
    assert report.arithmetic() == "1 x 54 = 54"


def test_report_of_empty_ledger_is_zero():
    report = CostLedger().report()
    assert report == CostReport(0, 0, 0, 0)


def test_report_rounds_mean_tokens():
    ledger = CostLedger()
    ledger.record_api_call(10, 0)
    ledger.record_api_call(11, 0)
    ledger.record_api_call(12, 0)
    assert ledger.report().tokens_per_api == 11


def test_merge_is_commutative_and_associative():
    rng = random.Random(17)

    def random_ledger():
        return CostLedger(
            retrieval_times=rng.randint(0, 5),
            api_times=rng.randint(0, 5),
            prompt_tokens=rng.randint(0, 500),
            completion_tokens=rng.randint(0, 500),
        )

    for _ in range(50):
        a, b, c = random_ledger(), random_ledger(), random_ledger()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert sum([a, b, c], CostLedger()) == a + b + c
        assert a + CostLedger() == a
        total = a + b
        assert total.api_times == a.api_times + b.api_times
        assert total.total_tokens == a.total_tokens + b.total_tokens
        assert total is not a and total is not b
    with pytest.raises(TypeError):
        CostLedger() + 1


def test_ledger_is_a_plain_value():
    names = ("retrieval_times", "api_times", "prompt_tokens", "completion_tokens")
    assert tuple(f.name for f in dataclasses.fields(CostLedger)) == names
    ledger = CostLedger(1, 2, 3, 4)
    assert not hasattr(ledger, "_lock")
    assert vars(ledger) == dict(zip(names, (1, 2, 3, 4)))
    for name in names:
        with pytest.raises(ValueError, match=name):
            CostLedger(**{name: -1})
    assert sum([], CostLedger()) == CostLedger()
    assert list(ledger.snapshot()) == list(names)
    assert ledger.snapshot() == {name: getattr(ledger, name) for name in names}


def test_cost_table_has_column_order():
    ledger = CostLedger()
    for _ in range(19):
        ledger.record_api_call(232, 58)
    table = format_cost_table({"engine": ledger.report()})
    header = table.splitlines()[0]
    cols = [c.strip() for c in header.split("|")]
    assert cols == ["Method", "Retrieval Times", "API Times", "Tokens Per API", "Tokens Per Query"]
    assert "19 x 290 = 5510" in table
