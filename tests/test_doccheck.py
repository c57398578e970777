"""The docs smoke-checker: fence extraction, skip-marker scoping,
rot classification, and end-to-end runs over real markdown files."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.devtools.doccheck import (
    ROT_SIGNATURES,
    _classify,
    check_paths,
    default_doc_paths,
    extract_blocks,
)
from repro.errors import LintError

# -- extraction --------------------------------------------------------------


class TestExtractBlocks:
    def test_langs_are_normalized(self):
        text = "\n".join(
            [
                "```sh",
                "true",
                "```",
                "```py",
                "pass",
                "```",
                "```text",
                "not runnable",
                "```",
            ]
        )
        blocks = extract_blocks(text, "doc.md")
        assert [b.lang for b in blocks] == ["bash", "python", "text"]
        assert [b.runnable for b in blocks] == [True, True, False]

    def test_line_numbers_point_at_the_opening_fence(self):
        text = "intro\n\n```bash\ntrue\n```\n"
        (block,) = extract_blocks(text, "doc.md")
        assert block.line == 3
        assert block.code == "true\n"

    def test_skip_marker_applies_to_the_next_fence_only(self):
        text = "\n".join(
            [
                "<!-- doccheck: skip (serves forever) -->",
                "```bash",
                "uuidp serve",
                "```",
                "```bash",
                "true",
                "```",
            ]
        )
        skipped, live = extract_blocks(text, "doc.md")
        assert skipped.skip_reason == "serves forever"
        assert not skipped.runnable
        assert live.skip_reason is None
        assert live.runnable

    def test_prose_mentioning_the_marker_does_not_skip(self):
        # The marker is anchored at line start; documentation that
        # *talks about* the marker mid-sentence must not opt out the
        # next real block.
        text = "\n".join(
            [
                "Opt out with `<!-- doccheck: skip (reason) -->` above",
                "the fence.",
                "```bash",
                "true",
                "```",
            ]
        )
        (block,) = extract_blocks(text, "doc.md")
        assert block.skip_reason is None

    def test_reasonless_marker_gets_a_default_reason(self):
        text = "<!-- doccheck: skip -->\n```bash\ntrue\n```\n"
        (block,) = extract_blocks(text, "doc.md")
        assert block.skip_reason == "marked skip"

    def test_unterminated_fence_is_dropped(self):
        text = "```bash\ntrue\n"
        assert extract_blocks(text, "doc.md") == []


# -- classification ----------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize("signature", ROT_SIGNATURES)
    def test_rot_signatures_fail_even_on_exit_zero(self, signature):
        status, detail = _classify(0, f"... {signature} ...")
        assert status == "failed"
        assert signature in detail

    @pytest.mark.parametrize("code", [126, 127])
    def test_command_missing_exit_codes_fail(self, code):
        assert _classify(code, "")[0] == "failed"

    def test_other_nonzero_exits_are_tolerated(self):
        assert _classify(1, "experiment went red")[0] == "tolerated"

    def test_clean_exit_is_ok(self):
        assert _classify(0, "all good")[0] == "ok"


# -- end to end --------------------------------------------------------------


def _write_doc(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return str(doc)


def _running(pid):
    """Is ``pid`` alive? A zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


class TestCheckPaths:
    def test_mixed_doc_is_fully_classified(self, tmp_path):
        doc = _write_doc(
            tmp_path,
            "\n".join(
                [
                    "```bash",
                    "true",
                    "```",
                    "```python",
                    "print('ok')",
                    "```",
                    "```bash",
                    "exit 3",
                    "```",
                    "<!-- doccheck: skip (needs a server) -->",
                    "```bash",
                    "definitely-not-a-command",
                    "```",
                    "```json",
                    "{}",
                    "```",
                ]
            ),
        )
        report = check_paths([doc], root=str(tmp_path))
        assert report.counts() == {
            "ok": 2,
            "tolerated": 1,
            "skipped": 1,
            "ignored": 1,
        }
        assert report.exit_code == 0
        assert "clean" in report.render()

    def test_rotted_import_fails_the_run(self, tmp_path):
        doc = _write_doc(
            tmp_path,
            "```python\nimport repro.no_such_module\n```\n",
        )
        report = check_paths([doc], root=str(tmp_path))
        assert report.exit_code == 1
        (failure,) = report.failures
        assert "ModuleNotFoundError" in failure.detail
        assert failure.location() == f"{doc}:1"
        assert "ROTTED" in report.render()

    def test_missing_command_fails_the_run(self, tmp_path):
        doc = _write_doc(
            tmp_path, "```bash\ndefinitely-not-a-command\n```\n"
        )
        report = check_paths([doc], root=str(tmp_path))
        assert report.exit_code == 1

    def test_uuidp_shim_and_pythonpath_are_injected(self, tmp_path):
        # Docs written against the installed entry point must check
        # out in a bare tree: `uuidp` resolves via the injected shim
        # and the repo's src/ lands on PYTHONPATH — no install step.
        doc = _write_doc(
            tmp_path,
            "```bash\nuuidp list >/dev/null\n```\n"
            "```python\nimport repro.cli\n```\n",
        )
        report = check_paths([doc], root=os.getcwd())
        assert [r.status for r in report.results] == ["ok", "ok"]

    def test_timeout_is_tolerated_not_failed(self, tmp_path):
        doc = _write_doc(tmp_path, "```bash\nsleep 30\n```\n")
        report = check_paths([doc], root=str(tmp_path), timeout=0.5)
        (result,) = report.results
        assert result.status == "tolerated"
        assert "timeout" in result.detail

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="needs procfs"
    )
    def test_timeout_kills_background_jobs(self, tmp_path):
        # A job the block left running would keep using CPU while the
        # later blocks run, and could push them past their own budget.
        pid_file = tmp_path / "pid"
        doc = _write_doc(
            tmp_path, f"```bash\nsleep 30 & echo $! > {pid_file}; wait\n```\n"
        )
        report = check_paths([doc], root=str(tmp_path), timeout=1)
        assert report.results[0].status == "tolerated"
        pid = int(pid_file.read_text())
        try:
            deadline = time.monotonic() + 5
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(pid)
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LintError):
            check_paths([str(tmp_path / "absent.md")])

    def test_default_doc_paths_finds_readme_and_docs(self, tmp_path):
        (tmp_path / "README.md").write_text("x", encoding="utf-8")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "b.md").write_text("x", encoding="utf-8")
        (docs / "a.md").write_text("x", encoding="utf-8")
        (docs / "not-markdown.txt").write_text("x", encoding="utf-8")
        paths = default_doc_paths(str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "README.md",
            "a.md",
            "b.md",
        ]


# -- the CLI front end -------------------------------------------------------


class TestCli:
    # cwd stays at the repo root so the interpreter's (relative)
    # PYTHONPATH=src keeps resolving inside the subprocess; the doc
    # under test is passed by absolute path.
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "doccheck", *argv],
            cwd=os.getcwd(),
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_clean_docs(self, tmp_path):
        doc = _write_doc(tmp_path, "```bash\ntrue\n```\n")
        proc = self._run("--timeout", "20", doc)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_exit_one_on_rot(self, tmp_path):
        doc = _write_doc(
            tmp_path, "```bash\nuuidp --no-such-flag\n```\n"
        )
        proc = self._run(doc)
        assert proc.returncode == 1
        assert "ROTTED" in proc.stdout

    def test_verbose_lists_every_block(self, tmp_path):
        doc = _write_doc(tmp_path, "```bash\ntrue\n```\n")
        proc = self._run(doc, "--verbose")
        assert f"{doc}:1" in proc.stdout

    @pytest.mark.parametrize(
        "command", [["repro.devtools.doccheck"], ["repro.cli", "doccheck"]]
    )
    def test_no_docs_to_find_is_an_error(self, tmp_path, command):
        """Both entry points fail in a directory without README.md or
        docs/, instead of reporting zero blocks clean."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", *command],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "found no README.md or docs/*.md" in proc.stderr
