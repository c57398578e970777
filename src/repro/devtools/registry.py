"""Rule registry for the repo-specific lint engine.

A *rule* is a small AST analysis with a stable ``REPRO###`` code. Rules
register themselves at import time via :func:`register`; the engine
(:mod:`repro.devtools.engine`) enumerates them through
:func:`all_rules` and runs each one over every module whose path
policy enables the rule's *family* (``REPRO1`` determinism, ``REPRO2``
decoder bounds, ...). A handful of rules are *project-wide*: they see
every parsed module at once (cross-module invariants like "every
``Options`` field is consumed somewhere") instead of one module at a
time.

Codes are append-only API: reports, suppression comments
(``# noqa: REPRO201 -- reason``), and the CI artifact schema all key
on them, so a rule may be retired but its code never reused.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type

from repro.errors import LintError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.devtools.engine import ModuleUnit, ProjectContext


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        """``path:line:col`` — the clickable form reports print."""
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement either
    :meth:`check` (module-scope, the default) or — with
    ``project_wide = True`` — :meth:`check_project`.
    """

    #: Stable identifier, e.g. ``"REPRO101"``.
    code: str = "REPRO000"
    #: Short kebab-case name for the catalog table.
    name: str = "abstract"
    #: Policy family prefix, e.g. ``"REPRO1"``.
    family: str = "REPRO0"
    #: One-line description of the invariant.
    summary: str = ""
    #: Project-wide rules run once with every module in view.
    project_wide: bool = False

    def check(
        self, unit: "ModuleUnit", context: "ProjectContext"
    ) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def check_project(
        self, context: "ProjectContext"
    ) -> Iterator[Finding]:
        """Yield findings across the whole module set."""
        return iter(())

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_RULES: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its code."""
    rule = rule_cls()
    if not rule.code.startswith("REPRO"):
        raise LintError(f"rule code must start with REPRO: {rule.code!r}")
    if rule.code in _RULES:
        raise LintError(f"duplicate rule code {rule.code}")
    _RULES[rule.code] = rule
    return rule_cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by code."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def get_rule(code: str) -> Rule:
    """The registered rule for ``code`` (:class:`LintError` if unknown)."""
    try:
        return _RULES[code]
    except KeyError:
        raise LintError(f"unknown rule code {code!r}") from None


# -- shared AST helpers ------------------------------------------------------


def names_in(node: ast.AST) -> List[str]:
    """All plain :class:`ast.Name` identifiers inside ``node``."""
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


def walk_skipping_nested_functions(
    node: ast.AST,
) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested function
    definitions (each definition gets its own analysis pass)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))
