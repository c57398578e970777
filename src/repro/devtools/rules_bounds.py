"""REPRO2xx: decoder bounds discipline.

**REPRO201** targets one bug class in binary decoders: a length field
read out of the buffer (``int.from_bytes(...)`` /
``struct.unpack(...)``) driving a slice without a bounds comparison
first. ``bytes`` slicing never raises on out-of-range indices — a
corrupt length silently yields a short slice that decodes as garbage
downstream instead of failing at the frame.

The analysis is a per-function taint pass over functions whose name
matches the policy's decoder pattern (``decode``/``from_bytes``/
``parse``/``read_``/...):

1. *Taint sources*: names assigned from an expression containing
   ``int.from_bytes`` or ``struct.unpack``/``unpack_from``.
2. *Propagation*: names assigned from expressions referencing tainted
   names become tainted (iterated to a fixpoint, so loop-carried
   offsets like ``offset += 8 + klen`` are caught).
3. *Obligation*: a slice expression (``buf[a:b]``) whose bound
   expressions reference a tainted name must be *dominated* by a
   comparison mentioning that name on an earlier line (an ``if``/
   ``while``/``assert`` guard such as ``if end > len(payload):``).

Line order is an approximation of dominance that is exact for the
straight-line decoder style this repo uses; a guard after the slice
does not count.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from repro.devtools.engine import ModuleUnit, ProjectContext
from repro.devtools.registry import Finding, Rule, names_in, register

_LENGTH_SOURCES = ("from_bytes", "unpack", "unpack_from")


def _is_length_read(node: ast.AST) -> bool:
    """Does ``node`` contain an ``int.from_bytes``/``struct.unpack``
    call (a value decoded out of a byte buffer)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ):
            if sub.func.attr in _LENGTH_SOURCES:
                return True
    return False


def _assign_targets(node: ast.stmt) -> List[str]:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    names: List[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(
                el.id for el in target.elts if isinstance(el, ast.Name)
            )
    return names


def _assign_value(node: ast.stmt) -> ast.expr:
    if isinstance(node, ast.Assign):
        return node.value
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return node.value if node.value is not None else ast.Constant(0)
    raise AssertionError("not an assignment")


@register
class DecoderBoundsRule(Rule):
    """REPRO201: decoders must length-check before slicing buffers."""
    code = "REPRO201"
    name = "decoder-bounds"
    family = "REPRO2"
    summary = (
        "buffer slices driven by decoded length fields must be "
        "preceded by a bounds comparison on that field"
    )

    def check(
        self, unit: ModuleUnit, context: ProjectContext
    ) -> Iterator[Finding]:
        """Yield a finding per unguarded slice in a decoder function."""
        pattern = re.compile(context.policy.decoder_function_pattern)
        for node in ast.walk(unit.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and pattern.search(node.name):
                yield from self._check_function(unit, node)

    def _check_function(
        self,
        unit: ModuleUnit,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Iterator[Finding]:
        assignments: List[Tuple[List[str], ast.expr]] = []
        compares: List[Tuple[int, Set[str]]] = []
        slices: List[ast.Subscript] = []

        for node in ast.walk(func):
            if isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                names = _assign_targets(node)
                if names:
                    assignments.append((names, _assign_value(node)))
            elif isinstance(node, ast.Compare):
                compares.append(
                    (node.lineno, set(names_in(node)))
                )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Slice
            ):
                slices.append(node)

        # 1+2. Seed taint from length reads, then propagate to a
        # fixpoint through ordinary assignments.
        tainted: Set[str] = set()
        for names, value in assignments:
            if _is_length_read(value):
                tainted.update(names)
        changed = True
        while changed:
            changed = False
            for names, value in assignments:
                if _is_length_read(value):
                    continue
                if tainted.intersection(names_in(value)):
                    new = set(names) - tainted
                    if new:
                        tainted.update(new)
                        changed = True
        if not tainted:
            return

        # 3. Every tainted name used in a slice bound needs an
        # earlier-line comparison mentioning it.
        for subscript in slices:
            slice_node = subscript.slice
            bound_names: Set[str] = set()
            for bound in (
                slice_node.lower, slice_node.upper, slice_node.step
            ):
                if bound is not None:
                    bound_names.update(names_in(bound))
            unguarded = sorted(
                name
                for name in bound_names & tainted
                if not any(
                    line < subscript.lineno and name in names
                    for line, names in compares
                )
            )
            if unguarded:
                yield self.finding(
                    unit.path,
                    subscript,
                    "slice driven by decoded length field(s) "
                    + ", ".join(repr(n) for n in unguarded)
                    + " without a preceding bounds comparison; "
                    "bytes slicing never raises, so a corrupt length "
                    "yields silent truncation — guard with an explicit "
                    "compare against the buffer size first",
                )
