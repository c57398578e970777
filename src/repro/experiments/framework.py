"""Shared experiment infrastructure.

Every paper claim is reproduced by one experiment module exposing

    run(config: ExperimentConfig) -> ExperimentResult

An :class:`ExperimentResult` carries the measured table (rows of one
sweep), a set of :class:`Check` outcomes encoding the paper's *shape*
predictions (who wins, scaling exponents, constant bands), and renders
itself as markdown for ``EXPERIMENTS.md``.

Shape checking philosophy: a Θ/O/Ω statement predicts a ratio between
measurement and formula that is bounded by constants across a sweep.
We assert the band (with generous slack — Monte-Carlo noise and honest
constants) and, where the claim is a growth rate, the log-log slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.simulation.plan import SimulationPlan


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Smaller parameters / fewer trials; used by the test suite.
    quick: bool = False
    #: Root seed for all randomness in the experiment.
    seed: int = 20230414  # the paper's arXiv date
    #: Multiplier on Monte-Carlo trial counts.
    trials_scale: float = 1.0
    #: How Monte-Carlo legs execute and when they stop: engine, worker
    #: processes, and the adaptive precision target all live here. The
    #: per-experiment ``config.trials(base)`` counts become the trial
    #: *cap* once ``plan.target_halfwidth`` is set.
    plan: SimulationPlan = SimulationPlan()

    def trials(self, base: int) -> int:
        """Trial count: ``base`` scaled by ``trials_scale``; quick mode
        divides it by 8 with a floor of 50."""
        scaled = int(base * self.trials_scale)
        if self.quick:
            scaled = max(50, scaled // 8)
        return max(1, scaled)


@dataclass
class Check:
    """One pass/fail shape assertion with its evidence."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


@dataclass
class ExperimentResult:
    """The output of one experiment: a table plus its shape checks."""

    experiment_id: str
    title: str
    claim: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """True when every recorded check passed."""
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, detail: str) -> None:
        """Record one named pass/fail check with its detail string."""
        self.checks.append(Check(name, passed, detail))

    def check_ratio_band(
        self,
        name: str,
        ratios: Sequence[float],
        low: float,
        high: float,
    ) -> None:
        """Assert every measured/formula ratio lies in [low, high]."""
        finite = [r for r in ratios if math.isfinite(r)]
        if not finite:
            self.add_check(name, False, "no finite ratios")
            return
        worst_low, worst_high = min(finite), max(finite)
        passed = worst_low >= low and worst_high <= high
        self.add_check(
            name,
            passed,
            f"ratios in [{worst_low:.3g}, {worst_high:.3g}], "
            f"required [{low:.3g}, {high:.3g}]",
        )

    def check_slope(
        self,
        name: str,
        xs: Sequence[float],
        ys: Sequence[float],
        expected: float,
        tolerance: float,
    ) -> None:
        """Assert the log-log slope of (xs, ys) is ``expected ± tolerance``."""
        from repro.analysis.bounds import log_log_slope

        try:
            slope = log_log_slope(xs, ys)
        except Exception as exc:  # pragma: no cover - degenerate sweeps
            self.add_check(name, False, f"slope undefined: {exc}")
            return
        passed = abs(slope - expected) <= tolerance
        self.add_check(
            name,
            passed,
            f"log-log slope {slope:.3f}, expected {expected} ± {tolerance}",
        )

    def check_dominates(
        self,
        name: str,
        winners: Sequence[float],
        losers: Sequence[float],
        slack: float = 1.0,
    ) -> None:
        """Assert ``winners[i] <= slack * losers[i]`` pointwise."""
        violations = [
            (winner, loser)
            for winner, loser in zip(winners, losers)
            if winner > slack * loser
        ]
        self.add_check(
            name,
            not violations,
            f"{len(violations)}/{len(list(winners))} violations "
            f"(slack {slack})",
        )

    # -- rendering ----------------------------------------------------------

    def to_markdown(self) -> str:
        """Render the result as a markdown section."""
        lines: List[str] = [
            f"### {self.experiment_id}: {self.title}",
            "",
            f"*Claim:* {self.claim}",
            "",
        ]
        if self.rows:
            lines.append("| " + " | ".join(self.columns) + " |")
            lines.append("|" + "---|" * len(self.columns))
            for row in self.rows:
                cells = [_format_cell(row.get(col)) for col in self.columns]
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
        if self.checks:
            lines.append("Shape checks:")
            lines.append("")
            for check in self.checks:
                lines.append(f"- {check}")
            lines.append("")
        for note in self.notes:
            lines.append(f"> {note}")
            lines.append("")
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 1_000_000_000:
        return f"2^{value.bit_length() - 1}~" if value > 0 else str(value)
    return str(value)
