"""``repro.devtools`` — the repo-specific static-analysis engine and
runtime determinism sanitizer.

Run it::

    uuidp lint [paths...] [--format text|json]
    python -m repro.devtools src --format json

The engine (:mod:`~repro.devtools.engine`) parses every ``.py`` file
under the given paths and runs the registered ``REPRO###`` rules over
each module whose path the policy
(:data:`~repro.devtools.policy.DEFAULT_POLICY`) enables for the rule's
family. Findings can be silenced inline — but only with a
justification::

    risky_line()  # noqa: REPRO201 -- offsets pre-validated above

See the README's "Static analysis & sanitizers" section for the full
rule catalog and suppression policy, and
:mod:`repro.devtools.sanitizer` for the runtime half.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devtools.engine import (
    LintEngine,
    LintReport,
    ModuleUnit,
    ProjectContext,
    Suppression,
)
from repro.devtools.policy import DEFAULT_POLICY, FamilyScope, Policy
from repro.devtools.registry import Finding, Rule, all_rules, get_rule
from repro.devtools.report import render, render_json, render_text
from repro.devtools.sanitizer import (
    determinism_sanitizer,
    sanitizer_active,
)
from repro.errors import ReproError

# Importing the rule modules registers their rules; referencing them
# here keeps the imports visibly load-bearing.
from repro.devtools import (  # noqa: F401  (registration side effects)
    rules_api,
    rules_asyncio,
    rules_bounds,
    rules_determinism,
    rules_docs,
    rules_exceptions,
)

_RULE_MODULES = (
    rules_determinism,
    rules_bounds,
    rules_asyncio,
    rules_exceptions,
    rules_api,
    rules_docs,
)

__all__ = [
    "DEFAULT_POLICY",
    "FamilyScope",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleUnit",
    "Policy",
    "ProjectContext",
    "Rule",
    "Suppression",
    "all_rules",
    "determinism_sanitizer",
    "get_rule",
    "main",
    "render",
    "render_json",
    "render_text",
    "sanitizer_active",
]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.devtools``). Returns the
    process exit code: 1 if any finding survived suppression, 2 if the
    run failed (``error: ...`` on stderr, as ``uuidp`` prints it), else
    0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools",
        description=(
            "Run the repo-specific REPRO lint rules over python "
            "sources."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    args = parser.parse_args(argv)
    try:
        report = LintEngine().lint_paths(args.paths or ["src"])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(report, args.format))
    return report.exit_code
