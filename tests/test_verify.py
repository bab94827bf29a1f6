"""The cross-module verification sweep: scope control and failure reporting."""
from dataclasses import replace

import pytest

from nbhood import (
    KIND_CONDENSED,
    RangeError,
    ValidationError,
    VerifyConfig,
    bound_table_rows,
    run_verification,
)
from nbhood import distance, neighborhood, verify
from nbhood.verify import (
    EXPECTED_TABLE,
    _case_sweep,
    _Recorder,
    _step_exact_distance,
    _step_leftmost_structure,
    _step_oracle_equivalence,
)

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


def test_a_lemma_alphabet_below_two_is_refused_before_any_step_runs():
    reported = []
    config = VerifyConfig(max_length=1, max_dist=0, sigmas=(2,), lemma_sigmas=(1, 2))
    with pytest.raises(RangeError, match="^alphabet size must be at least 2, got 1$"):
        run_verification(config, report=reported.append)
    assert reported == []


def test_the_leftmost_step_folds_once_per_pair(monkeypatch):
    # the sweep and the exhaustive enumeration read one table's columns
    calls = []
    real = distance._exact

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(distance, "_exact", counted)
    monkeypatch.setattr(verify, "_exact", counted)
    config = VerifyConfig(max_length=3, max_dist=2, sigmas=(2, 3))
    rec = _Recorder()
    _step_leftmost_structure(config, rec)
    assert not rec.failures
    pairs = [
        (w.text, x)
        for w, d in _case_sweep(config)
        if d >= 1
        for x in neighborhood._members(w, d, w.alphabet, KIND_CONDENSED)
    ]
    assert calls == pairs


def _patch_a_equals_b(monkeypatch):
    # a symmetric fault, letters a and b comparing equal, that reaches the
    # automaton and the production distance alike through the one source of
    # their match masks; only a DP of its own can tell
    real_masks = distance._match_masks

    def faulty_masks(w, symbols):
        masks = real_masks(w, symbols)
        masks["a"] = masks["b"] = masks.get("a", 0) | masks.get("b", 0)
        return masks

    monkeypatch.setattr(distance, "_match_masks", faulty_masks)
    monkeypatch.setattr(neighborhood, "_match_masks", faulty_masks)
    # the fault is in: the production distance puts a at 0 from b
    assert distance._distance("a", "b") == 0


def test_the_oracle_step_sees_a_fault_in_the_row_kernel(monkeypatch):
    _patch_a_equals_b(monkeypatch)
    rec = _Recorder()
    _step_oracle_equivalence(
        VerifyConfig(max_length=2, max_dist=1, sigmas=(2,), spot_samples=0), rec
    )
    assert rec.cases == 6 * 2 * 3
    # only the condensed and super-condensed kinds of 'a', 'b', 'ab' and
    # 'ba' at d = 1 come out right
    assert len(rec.failures) == 28


def test_the_exact_distance_step_sees_a_fault_in_the_row_kernel(monkeypatch):
    # The walk lists condensed members the fault lets in, so their distance
    # must come from the oracle's DP: the faulty production distance puts
    # them at exactly d too. The freeness step cannot see this fault: the
    # faulty neighborhood contains the true one, so a listed super-condensed
    # member, with no proper subword in the faulty one, has none in the true.
    _patch_a_equals_b(monkeypatch)
    rec = _Recorder()
    _step_exact_distance(VerifyConfig(max_length=2, max_dist=1, sigmas=(2,)), rec)
    assert rec.cases == 6
    assert [f[0] for f in rec.failures] == [
        "condensed members at exact distance: W='aa' d=1",
        "condensed members at exact distance: W='bb' d=1",
    ]
