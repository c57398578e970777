"""REPRO5xx: cross-module API invariants (project-wide rules).

These run once with every parsed module in view, because the invariant
spans modules:

* **REPRO501** — every public field of the configured config
  dataclasses (the serving stack's ``Options``, ``DriverConfig`` and
  ``AutoscalerConfig``; the estimation stack's ``SimulationPlan`` and
  ``ExperimentConfig``) must be *consumed*: read as
  an attribute (``options.memtable_entries``) somewhere in the linted
  tree. A field nothing reads is either dead configuration or —
  worse — a knob users set that silently does nothing.
* **REPRO502** — the configured stats contracts: each listed mutator
  of each listed class (``MiniRocks.put``/``get``/``delete``/``scan``/
  ``flush``) must reference the stats attribute (``self.stats...``)
  somewhere in its body, so ``DBStats`` stays the single accounting
  surface for the storage engine.

Consumption is deliberately lenient (any attribute *read* anywhere,
including the defining class): the rule is for catching fully dead
fields, not for auditing where reads happen.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools.engine import ProjectContext
from repro.devtools.registry import Finding, Rule, register


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.attr
            if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


def _public_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    fields: List[Tuple[str, ast.AST]] = []
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
        ):
            # ClassVar annotations are class constants, not fields.
            ann = stmt.annotation
            ann_src = ast.dump(ann)
            if "ClassVar" in ann_src:
                continue
            fields.append((stmt.target.id, stmt))
    return fields


@register
class ConfigFieldConsumedRule(Rule):
    """REPRO501: every public field of a config dataclass is consumed."""
    code = "REPRO501"
    name = "config-field-consumed"
    family = "REPRO5"
    summary = (
        "every public field of a config dataclass (Options, "
        "DriverConfig, AutoscalerConfig, SimulationPlan, "
        "ExperimentConfig) must be read somewhere (no silently-dead "
        "config knobs)"
    )
    project_wide = True

    def check_project(
        self, context: ProjectContext
    ) -> Iterator[Finding]:
        """Flag config-dataclass fields nothing in the tree ever reads."""
        targets = set(context.policy.config_dataclasses)
        declared: Dict[str, List[Tuple[str, str, ast.AST]]] = {}
        for unit in context.units:
            if "REPRO5" not in unit.families:
                continue
            for node in ast.walk(unit.tree):
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name in targets
                    and _is_dataclass(node)
                ):
                    declared.setdefault(node.name, []).extend(
                        (name, unit.path, stmt)
                        for name, stmt in _public_fields(node)
                    )
        if not declared:
            return

        consumed: Set[str] = set()
        for unit in context.units:
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    consumed.add(node.attr)

        for cls_name in sorted(declared):
            for field_name, path, stmt in declared[cls_name]:
                if field_name not in consumed:
                    yield self.finding(
                        path,
                        stmt,
                        f"{cls_name}.{field_name} is never read: "
                        "either wire the knob into the code path it "
                        "configures or delete the field",
                    )


@register
class StatsContractRule(Rule):
    """REPRO502: contract methods must route through the stats attribute."""
    code = "REPRO502"
    name = "stats-contract"
    family = "REPRO5"
    summary = (
        "listed kvstore mutators must route accounting through the "
        "stats attribute (DBStats)"
    )
    project_wide = True

    def check_project(
        self, context: ProjectContext
    ) -> Iterator[Finding]:
        """Flag contract methods whose bodies never touch the stats attr."""
        contracts = dict(context.policy.stats_contracts)
        stats_attr = context.policy.stats_attribute
        for unit in context.units:
            if "REPRO5" not in unit.families:
                continue
            for node in ast.walk(unit.tree):
                if (
                    not isinstance(node, ast.ClassDef)
                    or node.name not in contracts
                ):
                    continue
                required = set(contracts[node.name])
                for stmt in node.body:
                    if (
                        isinstance(
                            stmt,
                            (ast.FunctionDef, ast.AsyncFunctionDef),
                        )
                        and stmt.name in required
                    ):
                        touches_stats = any(
                            isinstance(sub, ast.Attribute)
                            and sub.attr == stats_attr
                            for sub in ast.walk(stmt)
                        )
                        if not touches_stats:
                            yield self.finding(
                                unit.path,
                                stmt,
                                f"{node.name}.{stmt.name}() does not "
                                f"touch self.{stats_attr}: kvstore "
                                "mutators must account through "
                                "DBStats",
                            )
