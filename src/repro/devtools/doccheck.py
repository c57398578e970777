"""Documentation smoke-checker: the fenced examples must still run.

``uuidp doccheck`` extracts every fenced ``bash``/``python`` code
block from the given markdown files (default: ``README.md`` plus
``docs/*.md``) and executes each one in a subprocess from the repo
root. The point is *rot detection*, not output validation — a block
**fails** only when it shows one of the signatures of a stale
example:

* exit code 126/127 (command missing or not executable);
* an import that no longer resolves (``ModuleNotFoundError``,
  ``No module named``, ``ImportError``);
* code that no longer parses (``SyntaxError``);
* argparse rot — the documented flag or subcommand is gone
  (``unrecognized arguments``, ``invalid choice``, a newly required
  argument).

Everything else a real command might legitimately do in a sandboxed
checkout — time out, hit a closed port, exit nonzero on a red
experiment — is **tolerated**: it proves the words still map onto the
code, which is all a smoke check can promise.

Blocks that cannot meaningfully run standalone (a foreground server,
an example requiring external state) opt out with an HTML comment on
any line above the fence::

    <!-- doccheck: skip (blocks serving forever) -->
    ```bash
    uuidp serve --port 7417 ...
    ```

Execution environment: ``PYTHONPATH`` gets the checkout's ``src``
prepended and a ``uuidp`` shim (delegating to ``python -m
repro.cli``) is placed on ``PATH`` — so docs written against the
installed entry point check out in a bare tree and in CI without an
install step. ``REPRO_DOCCHECK_TIMEOUT`` caps seconds per block
(default 60; rot signatures surface in the first few).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import LintError, ReproError

#: Markdown info strings treated as runnable, normalized.
_LANGS = {
    "bash": "bash",
    "sh": "bash",
    "shell": "bash",
    "python": "python",
    "py": "python",
}

#: Output substrings that mark a block as rotted (see module docstring).
ROT_SIGNATURES: Tuple[str, ...] = (
    "command not found",
    "ModuleNotFoundError",
    "No module named",
    "ImportError",
    "SyntaxError",
    "unrecognized arguments",
    "invalid choice",
    "the following arguments are required",
)

#: Exit codes that mean the command itself was missing/unrunnable.
_ROT_EXIT_CODES = frozenset({126, 127})

_FENCE_RE = re.compile(r"^(`{3,})\s*([A-Za-z0-9_+-]*)\s*$")
# Anchored at line start so prose *mentioning* the marker (in backticks,
# mid-sentence) does not opt out the next real block.
_SKIP_RE = re.compile(
    r"^\s*<!--\s*doccheck:\s*skip(?:\s*\((?P<reason>[^)]*)\))?\s*-->"
)

DEFAULT_TIMEOUT = 60.0


@dataclass(frozen=True)
class CodeBlock:
    """One fenced example: where it lives and what it claims to run."""

    path: str
    line: int
    lang: str
    code: str
    skip_reason: Optional[str] = None

    @property
    def runnable(self) -> bool:
        """True when the info string names a language we execute."""
        return self.lang in _LANGS.values() and self.skip_reason is None


@dataclass(frozen=True)
class BlockResult:
    """The verdict on one block: ``ok``, ``tolerated`` (ran but hit a
    sandbox limit — timeout, closed port, red exit), ``skipped``
    (opted out), ``ignored`` (not a runnable language), or ``failed``
    (a rot signature; see :data:`ROT_SIGNATURES`)."""

    block: CodeBlock
    status: str
    detail: str = ""

    def location(self) -> str:
        """``path:line`` of the opening fence — the clickable form."""
        return f"{self.block.path}:{self.block.line}"


def extract_blocks(text: str, path: str) -> List[CodeBlock]:
    """All fenced code blocks in ``text``, skip markers resolved.

    A ``doccheck: skip`` comment anywhere between two fences applies
    to the next fence that opens.
    """
    blocks: List[CodeBlock] = []
    fence: Optional[str] = None
    lang = ""
    start = 0
    body: List[str] = []
    skip_reason: Optional[str] = None
    for number, line in enumerate(text.splitlines(), start=1):
        if fence is None:
            marker = _SKIP_RE.search(line)
            if marker:
                skip_reason = marker.group("reason") or "marked skip"
                continue
            match = _FENCE_RE.match(line)
            if match:
                fence, info = match.group(1), match.group(2).lower()
                lang = _LANGS.get(info, info)
                start = number
                body = []
        elif line.strip() == fence:
            blocks.append(
                CodeBlock(
                    path=path,
                    line=start,
                    lang=lang,
                    code="\n".join(body) + "\n",
                    skip_reason=(
                        skip_reason if lang in _LANGS.values() else None
                    ),
                )
            )
            fence = None
            skip_reason = None
        else:
            body.append(line)
    return blocks


def _classify(returncode: int, output: str) -> Tuple[str, str]:
    for signature in ROT_SIGNATURES:
        if signature in output:
            return "failed", f"rot signature {signature!r}"
    if returncode in _ROT_EXIT_CODES:
        return "failed", f"exit {returncode} (command missing)"
    if returncode != 0:
        return "tolerated", f"exit {returncode} (not a rot signature)"
    return "ok", ""


def _write_uuidp_shim(directory: str) -> None:
    shim = Path(directory) / "uuidp"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m repro.cli "$@"\n'
    )
    shim.chmod(0o755)


def _block_env(src_root: str, shim_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    pythonpath = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + pythonpath if pythonpath else "")
    )
    env["PATH"] = shim_dir + os.pathsep + env.get("PATH", "")
    return env


def run_block(
    block: CodeBlock,
    cwd: str,
    env: Dict[str, str],
    timeout: float,
) -> BlockResult:
    """Execute one block and classify the outcome (never raises)."""
    if block.skip_reason is not None:
        return BlockResult(block, "skipped", block.skip_reason)
    if not block.runnable:
        return BlockResult(block, "ignored", f"lang {block.lang!r}")
    if block.lang == "bash":
        argv = ["bash", "-c", block.code]
    else:
        argv = [sys.executable, "-c", block.code]
    # A session of its own makes the block a process group, so a
    # timeout kills everything it started — a background job left
    # running would steal CPU from the blocks checked after it.
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        errors="replace",
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()  # the partial output
        for signature in ROT_SIGNATURES:
            if signature in output:
                return BlockResult(
                    block, "failed", f"rot signature {signature!r}"
                )
        return BlockResult(
            block, "tolerated", f"timeout after {timeout:.0f}s"
        )
    status, detail = _classify(proc.returncode, output or "")
    return BlockResult(block, status, detail)


@dataclass
class DocReport:
    """Outcome of one doccheck run over a set of markdown files."""

    results: List[BlockResult]
    files_checked: int

    @property
    def failures(self) -> List[BlockResult]:
        """The blocks that showed a rot signature."""
        return [r for r in self.results if r.status == "failed"]

    @property
    def exit_code(self) -> int:
        """1 if any block rotted, else 0."""
        return 1 if self.failures else 0

    def counts(self) -> Dict[str, int]:
        """Result totals per status."""
        totals: Dict[str, int] = {}
        for result in self.results:
            totals[result.status] = totals.get(result.status, 0) + 1
        return totals

    def render(self, verbose: bool = False) -> str:
        """Human-readable report; ``verbose`` lists every block."""
        lines: List[str] = []
        for result in self.results:
            if result.status == "failed" or verbose:
                lines.append(
                    f"{result.location()}: [{result.block.lang}] "
                    f"{result.status}"
                    + (f" — {result.detail}" if result.detail else "")
                )
        counts = self.counts()
        summary = ", ".join(
            f"{status}={counts[status]}" for status in sorted(counts)
        )
        verdict = "ROTTED" if self.failures else "clean"
        lines.append(
            f"doccheck {verdict}: {len(self.results)} block(s) in "
            f"{self.files_checked} file(s) [{summary or 'no blocks'}]"
        )
        return "\n".join(lines)


def default_doc_paths(root: str) -> List[str]:
    """``README.md`` + ``docs/*.md`` under ``root``, when present."""
    base = Path(root)
    paths = []
    readme = base / "README.md"
    if readme.exists():
        paths.append(str(readme))
    paths.extend(sorted(str(p) for p in base.glob("docs/*.md")))
    return paths


def check_paths(
    paths: Iterable[str],
    root: Optional[str] = None,
    timeout: Optional[float] = None,
) -> DocReport:
    """Extract and execute every block in ``paths``; never raises on
    block failures — rot lands in the report, not as an exception."""
    root = root or os.getcwd()
    if timeout is None:
        timeout = float(
            os.environ.get("REPRO_DOCCHECK_TIMEOUT", DEFAULT_TIMEOUT)
        )
    blocks: List[CodeBlock] = []
    files = 0
    for path in paths:
        doc = Path(path)
        if not doc.exists():
            raise LintError(f"doccheck: no such file: {path}")
        files += 1
        blocks.extend(
            extract_blocks(doc.read_text(encoding="utf-8"), str(path))
        )
    src_root = str(Path(root) / "src")
    results: List[BlockResult] = []
    with tempfile.TemporaryDirectory(prefix="doccheck-") as shim_dir:
        _write_uuidp_shim(shim_dir)
        env = _block_env(src_root, shim_dir)
        for block in blocks:
            results.append(run_block(block, root, env, timeout))
    return DocReport(results=results, files_checked=files)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.devtools.doccheck``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.doccheck",
        description=(
            "Smoke-run the fenced bash/python examples in the docs "
            "and fail on rot signatures."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="markdown files (default: README.md + docs/*.md)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="seconds per block (default: REPRO_DOCCHECK_TIMEOUT "
        f"or {DEFAULT_TIMEOUT:.0f}; timeouts are tolerated, not "
        "failures)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="list every block, not just failures",
    )
    args = parser.parse_args(argv)
    paths = args.paths or default_doc_paths(os.getcwd())
    if not paths:
        parser.error(
            "found no README.md or docs/*.md here; pass markdown paths "
            "explicitly"
        )
    try:
        report = check_paths(paths, timeout=args.timeout)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render(verbose=args.verbose))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
