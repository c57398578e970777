"""Tests for the experiment framework and the cheap experiments end-to-end.

Experiments with substantial Monte-Carlo budgets (E6, E7, E11, E12) are
exercised by the benchmark harness; here we run the analytic ones in
quick mode and unit-test the framework itself.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    experiment_ids,
    run_experiment,
)
from repro.experiments.framework import ExperimentResult

QUICK = ExperimentConfig(quick=True, seed=99)


class TestFramework:
    def _result(self):
        return ExperimentResult(
            experiment_id="T",
            title="test",
            claim="testing",
            columns=["a", "b"],
        )

    def test_ratio_band(self):
        result = self._result()
        result.check_ratio_band("ok", [0.5, 1.0, 1.5], 0.25, 2.0)
        result.check_ratio_band("bad", [0.1, 5.0], 0.25, 2.0)
        assert result.checks[0].passed
        assert not result.checks[1].passed
        assert not result.all_passed

    def test_ratio_band_empty(self):
        result = self._result()
        result.check_ratio_band("none", [float("nan")], 0, 1)
        assert not result.checks[0].passed

    def test_slope(self):
        result = self._result()
        result.check_slope("linear", [1, 2, 4], [3, 6, 12], 1.0, 0.1)
        assert result.checks[0].passed

    def test_dominates(self):
        result = self._result()
        result.check_dominates("dom", [1, 2], [2, 4], slack=1.0)
        result.check_dominates("viol", [3, 2], [2, 4], slack=1.0)
        assert result.checks[0].passed
        assert not result.checks[1].passed

    def test_markdown_rendering(self):
        result = self._result()
        result.rows.append({"a": 1, "b": 0.5, "_hidden": object()})
        result.add_check("c", True, "fine")
        result.notes.append("a note")
        text = result.to_markdown()
        assert "| a | b |" in text
        assert "PASS" in text
        assert "a note" in text
        assert "_hidden" not in text

    def test_config_trials_scaling(self):
        assert ExperimentConfig(quick=False).trials(1000) == 1000
        assert ExperimentConfig(quick=True).trials(1000) == 125
        assert ExperimentConfig(
            quick=False, trials_scale=0.5
        ).trials(1000) == 500
        assert ExperimentConfig(quick=True).trials(10) == 50  # floor


class TestRegistry:
    def test_all_ids_present(self):
        assert experiment_ids() == [
            f"E{i}" for i in range(1, 13)
        ] + ["A1", "A2"]

    def test_unknown_id(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_experiment("E99", QUICK)

    def test_case_insensitive(self):
        result = run_experiment("e4", QUICK)
        assert result.experiment_id == "E4"


@pytest.mark.parametrize("eid", ["E4", "E8", "E9"])
def test_analytic_experiments_pass_quick(eid):
    """The pure-closed-form experiments are cheap enough for the suite."""
    result = run_experiment(eid, QUICK)
    assert result.rows, f"{eid} produced no table"
    failed = [check for check in result.checks if not check.passed]
    assert not failed, f"{eid} failed: {[str(c) for c in failed]}"


def test_e5_optimality_quick():
    result = run_experiment("E5", QUICK)
    assert result.all_passed, [str(c) for c in result.checks if not c.passed]


def test_e10_adaptive_competitive_quick():
    result = run_experiment("E10", QUICK)
    assert result.all_passed, [str(c) for c in result.checks if not c.passed]
