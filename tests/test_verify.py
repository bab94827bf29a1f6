"""The cross-module verification sweep: scope control and failure reporting."""
from dataclasses import replace

import pytest

from nbhood import ValidationError, VerifyConfig, bound_table_rows, run_verification
from nbhood import distance, neighborhood
from nbhood.verify import EXPECTED_TABLE, _Recorder, _step_oracle_equivalence

TINY = VerifyConfig(
    max_length=3,
    max_dist=2,
    sigmas=(2, 3),
    lemma_max_length=6,
    lemma_sigmas=(2, 3),
    sandwich_max_length=4,
    spot_samples=3,
)

STEP_NAMES = [
    "enumerator-oracle equivalence",
    "prefix/subword freeness",
    "condensed members at exact distance",
    "unary condensed-member structure",
    "leftmost alignment structure",
    "unary formulas vs enumeration",
    "bound sandwich",
    "reference table reproduction",
    "bound lemma chain",
]


def test_tiny_sweep_passes_and_reports_each_step():
    lines = []
    summary = run_verification(TINY, report=lines.append)
    assert summary.ok
    assert not summary.failures
    assert [s.name for s in summary.steps] == STEP_NAMES
    assert len(lines) == len(STEP_NAMES)
    for line, name in zip(lines, STEP_NAMES):
        assert line.startswith(name + ":")
        assert line.endswith("ok")
    assert summary.cases_run == sum(s.cases for s in summary.steps)
    assert summary.elapsed > 0
    assert all(s.seconds >= 0 for s in summary.steps)
    assert sum(s.seconds for s in summary.steps) <= summary.elapsed


def test_sweep_is_deterministic():
    a = run_verification(TINY)
    b = run_verification(TINY)
    assert a.cases_run == b.cases_run
    assert a.failures == b.failures
    assert [s.cases for s in a.steps] == [s.cases for s in b.steps]


def test_starved_oracle_budget_is_a_failure_not_a_skip():
    config = VerifyConfig(
        max_length=2,
        max_dist=1,
        sigmas=(2,),
        lemma_max_length=2,
        lemma_sigmas=(2,),
        sandwich_max_length=2,
        spot_samples=0,
        budget=4,
    )
    summary = run_verification(config)
    assert not summary.ok
    assert summary.failures
    assert any("oracle refused" in actual for _, _, actual in summary.failures)


def test_frozen_reference_table_matches_recomputation():
    assert len(EXPECTED_TABLE) == 48
    assert EXPECTED_TABLE == {(p, w, d): v for p, w, d, v in bound_table_rows()}


def test_per_sigma_length_caps():
    config = VerifyConfig(max_length=6)
    assert config.length_cap(2) == 6
    assert config.length_cap(3) == 4
    assert config.length_cap(4) == 4


def test_repeated_alphabet_sizes_are_rejected():
    for field in ("sigmas", "lemma_sigmas"):
        with pytest.raises(ValidationError, match=f"^{field} must not repeat, got \\[2, 2\\]$"):
            run_verification(replace(TINY, **{field: (2, 2)}))


def test_the_oracle_step_sees_a_fault_in_the_row_kernel(monkeypatch):
    # a symmetric fault, letters a and b comparing equal, reaches the
    # automaton and the production distance alike; only an oracle with a
    # DP of its own can tell
    real = distance._row_step

    def faulty(row, symbol, w, cap, free_start=False):
        return real(row, symbol.replace("b", "a"), w.replace("b", "a"), cap, free_start)

    monkeypatch.setattr(distance, "_row_step", faulty)
    monkeypatch.setattr(neighborhood, "_row_step", faulty)
    rec = _Recorder()
    _step_oracle_equivalence(
        VerifyConfig(max_length=2, max_dist=1, sigmas=(2,), spot_samples=0), rec
    )
    assert rec.cases == 6 * 2 * 3
    assert rec.failures
