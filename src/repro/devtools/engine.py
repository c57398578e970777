"""The lint engine: parse modules, run rules, apply suppressions.

Flow: :class:`LintEngine` collects ``.py`` files (a directory argument
is walked recursively), parses each into a :class:`ModuleUnit` (AST +
source lines + inline suppressions + enabled rule families from the
:class:`~repro.devtools.policy.Policy`), runs every registered
module-scope rule whose family the path enables, then runs the
project-wide rules once over the whole set.

Suppressions are inline comments::

    payload[o : o + n]  # noqa: REPRO201 -- offsets pre-validated above

A suppression silences matching findings *on its line only*, and only
when it carries a justification after ``--``. The meta-rules enforce
the suppression policy itself:

* **REPRO001** — a suppression without a justification (including a
  bare ``# noqa: REPRO``) is a finding.
* **REPRO002** — a justified suppression that silenced nothing is a
  finding (stale suppressions rot).

Meta-findings cannot themselves be suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.devtools.policy import DEFAULT_POLICY, Policy
from repro.devtools.registry import Finding, all_rules
from repro.errors import LintError

#: Inline suppression syntax: a ``REPRO201``-style code (or comma
#: list) after the noqa marker, optionally followed by ``-- reason``.
#: A code with no digits is matched too so REPRO001 can reject it.
_SUPPRESSION_RE = re.compile(
    r"#\s*noqa:\s*(?P<codes>REPRO[0-9]*(?:\s*,\s*REPRO[0-9]*)*)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``# noqa: REPRO###`` comment."""

    path: str
    line: int
    codes: Tuple[str, ...]
    reason: str

    @property
    def justified(self) -> bool:
        """True when the noqa names full rule codes and carries a reason."""
        return bool(self.reason) and all(
            len(code) > len("REPRO") for code in self.codes
        )

    def matches(self, finding: Finding) -> bool:
        """True when ``finding`` sits on this line and names a listed code."""
        return finding.line == self.line and finding.rule in self.codes


@dataclass
class ModuleUnit:
    """One parsed module plus everything rules need to inspect it."""

    path: str
    source: str
    tree: ast.Module
    families: FrozenSet[str]
    suppressions: Tuple[Suppression, ...]

    @property
    def lines(self) -> List[str]:
        """The module source split into lines, for line-keyed rules."""
        return self.source.splitlines()


@dataclass
class ProjectContext:
    """Shared state for one engine run (what project-wide rules see)."""

    policy: Policy
    units: List[ModuleUnit] = field(default_factory=list)


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int

    @property
    def exit_code(self) -> int:
        """1 if any finding survived suppression, else 0."""
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        """Surviving-finding totals per rule code."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def _extract_suppressions(path: str, source: str) -> Tuple[Suppression, ...]:
    """Parse ``# noqa: REPRO...`` comments via the tokenizer (so string
    literals that merely *mention* noqa are never misread)."""
    suppressions: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if not match:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
            )
            suppressions.append(
                Suppression(
                    path=path,
                    line=token.start[0],
                    codes=codes,
                    reason=(match.group("reason") or "").strip(),
                )
            )
    except tokenize.TokenError:
        # The AST parse below will report the real syntax problem.
        pass
    return tuple(suppressions)


class LintEngine:
    """Run the registered rules over a set of paths or source strings."""

    def __init__(self, policy: Optional[Policy] = None):
        self.policy = policy or DEFAULT_POLICY

    # -- collection ---------------------------------------------------------

    def _collect_files(self, paths: Iterable[str]) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                files.append(path)
            else:
                raise LintError(f"no such file or directory: {raw}")
        # De-duplicate while keeping deterministic order.
        seen = set()
        unique: List[Path] = []
        for path in files:
            key = str(path)
            if key not in seen:
                seen.add(key)
                unique.append(path)
        return unique

    def _parse(self, path: str, source: str) -> ModuleUnit:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        return ModuleUnit(
            path=path,
            source=source,
            tree=tree,
            families=self.policy.families_for(path),
            suppressions=_extract_suppressions(path, source),
        )

    # -- running ------------------------------------------------------------

    def lint_paths(self, paths: Iterable[str]) -> LintReport:
        """Parse every ``.py`` file under ``paths`` and run the enabled rules."""
        units = []
        for file_path in self._collect_files(paths):
            source = file_path.read_text(encoding="utf-8")
            units.append(self._parse(str(file_path), source))
        return self._run(units)

    def lint_sources(self, sources: Dict[str, str]) -> LintReport:
        """Lint in-memory sources keyed by virtual path (for tests)."""
        units = [self._parse(path, src) for path, src in sources.items()]
        return self._run(units)

    def _run(self, units: List[ModuleUnit]) -> LintReport:
        context = ProjectContext(policy=self.policy, units=units)
        raw: List[Finding] = []
        for rule in all_rules():
            if rule.project_wide:
                raw.extend(rule.check_project(context))
            else:
                for unit in units:
                    if rule.family in unit.families:
                        raw.extend(rule.check(unit, context))

        findings: List[Finding] = []
        suppressed: List[Finding] = []
        used: Dict[Tuple[str, int], bool] = {}
        suppression_index: Dict[str, Tuple[Suppression, ...]] = {
            unit.path: unit.suppressions for unit in units
        }
        for finding in raw:
            silenced = False
            for sup in suppression_index.get(finding.path, ()):
                if sup.justified and sup.matches(finding):
                    used[(sup.path, sup.line)] = True
                    silenced = True
            (suppressed if silenced else findings).append(finding)

        # Meta-rules: suppression discipline (never themselves
        # suppressible — they are appended after the silencing pass).
        for unit in units:
            for sup in unit.suppressions:
                if not sup.justified:
                    findings.append(
                        Finding(
                            rule="REPRO001",
                            path=sup.path,
                            line=sup.line,
                            col=0,
                            message=(
                                "suppression without justification: add "
                                "a full rule code and a reason, e.g. "
                                "'# noqa: REPRO201 -- why it is safe'"
                            ),
                        )
                    )
                elif not used.get((sup.path, sup.line), False):
                    findings.append(
                        Finding(
                            rule="REPRO002",
                            path=sup.path,
                            line=sup.line,
                            col=0,
                            message=(
                                "unused suppression for "
                                + ",".join(sup.codes)
                                + ": nothing fired on this line; "
                                "remove the stale noqa"
                            ),
                        )
                    )

        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintReport(
            findings=findings,
            suppressed=suppressed,
            files_checked=len(units),
        )
