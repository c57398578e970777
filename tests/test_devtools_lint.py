"""The ``repro.devtools`` lint engine: every rule fires on its
violating fixture, stays quiet on the sanctioned form, suppressions
are honored only when justified, reporters keep their schema — and the
engine runs clean over ``src/`` at HEAD."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.devtools import (
    DEFAULT_POLICY,
    FamilyScope,
    LintEngine,
    Policy,
    all_rules,
    get_rule,
    render_json,
    render_text,
)
from repro.devtools.registry import Rule, register
from repro.errors import LintError

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Virtual paths that enable each family under DEFAULT_POLICY. The
#: generic fixtures live outside ``*/repro/*`` so the REPRO6 docs
#: policy stays quiet about their (intentionally terse) snippets;
#: DOCS_PATH opts a fixture into it.
DET_PATH = "src/simcore/snippet.py"            # REPRO1 (+3/4/5)
DECODER_PATH = "src/simcore/wal.py"            # REPRO2 via */wal.py
DOCS_PATH = "src/repro/simulation/snippet.py"  # + REPRO6
DEVTOOLS_PATH = "src/repro/devtools/snippet.py"  # REPRO1 excluded


def lint_one(source, path=DET_PATH):
    return LintEngine().lint_sources({path: source})


def codes(report):
    return [f.rule for f in report.findings]


# -- per-rule fixtures: violating + sanctioned -------------------------------

#: code -> (path, violating snippet). The completeness test below
#: asserts every registered rule has an entry and demonstrably fires.
VIOLATIONS = {
    "REPRO001": (DET_PATH, "x = 1  # noqa: REPRO\n"),
    "REPRO002": (DET_PATH, "x = 1  # noqa: REPRO101 -- nothing fires here\n"),
    "REPRO101": (DET_PATH, "import random\nx = random.random()\n"),
    "REPRO102": (DET_PATH, "h = hash('key')\n"),
    "REPRO103": (DET_PATH, "import time\nt = time.time()\n"),
    "REPRO104": (DET_PATH, "for item in {1, 2, 3}:\n    print(item)\n"),
    "REPRO105": (DET_PATH, "import os\nb = os.urandom(8)\n"),
    "REPRO201": (
        DECODER_PATH,
        "def decode_record(buf):\n"
        "    n = int.from_bytes(buf[0:4], 'big')\n"
        "    return buf[4 : 4 + n]\n",
    ),
    "REPRO301": (
        DET_PATH,
        "import time\n"
        "async def handler():\n"
        "    time.sleep(1)\n",
    ),
    "REPRO302": (
        DET_PATH,
        "import asyncio\nloop = asyncio.get_event_loop()\n",
    ),
    "REPRO401": (
        DET_PATH,
        "def recover():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        pass\n",
    ),
    "REPRO402": (
        DET_PATH,
        "import contextlib\n"
        "def serve():\n"
        "    with contextlib.suppress(Exception):\n"
        "        risky()\n",
    ),
    "REPRO501": (
        DET_PATH,
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Options:\n"
        "    dead_knob: int = 0\n",
    ),
    "REPRO502": (
        DET_PATH,
        "class MiniRocks:\n"
        "    def put(self, key, value):\n"
        "        self._memtable[key] = value\n",
    ),
    "REPRO601": (
        DOCS_PATH,
        "def remaining_capacity(state):\n"
        "    return state.m - state.count\n",
    ),
}


def test_every_registered_rule_has_a_firing_fixture():
    registered = {rule.code for rule in all_rules()}
    # REPRO001/REPRO002 are the engine's own meta-rules (suppression
    # discipline), not registry entries — but they too must fire.
    assert registered == set(VIOLATIONS) - {"REPRO001", "REPRO002"}, (
        "rule catalog and fixture table out of sync"
    )
    for code, (path, snippet) in sorted(VIOLATIONS.items()):
        report = lint_one(snippet, path=path)
        assert code in codes(report), (
            f"{code} did not fire on its violation fixture:\n{snippet}"
        )


def test_rule_metadata_is_complete():
    seen_families = set()
    for rule in all_rules():
        assert rule.code.startswith("REPRO") and rule.code[5:].isdigit()
        assert rule.summary, f"{rule.code} has no summary"
        assert rule.name != "abstract"
        seen_families.add(rule.family)
    # All five shipped families plus the meta family are represented.
    assert {"REPRO1", "REPRO2", "REPRO3", "REPRO4", "REPRO5"} <= (
        seen_families
    )
    assert len(all_rules()) >= 12


# -- determinism family ------------------------------------------------------

def test_repro101_sanctions_seeded_random_instances():
    clean = (
        "import random\n"
        "rng = random.Random(7)\n"
        "x = rng.random()\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro101_skipped_in_devtools_paths():
    source = "import random\nx = random.random()\n"
    assert codes(lint_one(source, path=DEVTOOLS_PATH)) == []
    assert codes(lint_one(source, path=DET_PATH)) == ["REPRO101"]


def test_repro102_builtin_hash_only():
    clean = "import hashlib\nh = hashlib.blake2b(b'key').digest()\n"
    assert codes(lint_one(clean)) == []


def test_repro103_perf_counter_is_sanctioned():
    clean = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "tm = time.monotonic()\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro103_datetime_now_fires():
    source = "import datetime\nts = datetime.datetime.now()\n"
    assert codes(lint_one(source)) == ["REPRO103"]


def test_repro104_sorted_set_is_sanctioned():
    clean = (
        "xs = [3, 1, 2]\n"
        "for item in sorted(set(xs)):\n"
        "    print(item)\n"
        "ys = sorted({1, 2})\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro104_list_of_set_fires():
    assert codes(lint_one("ys = list(set([1, 2]))\n")) == ["REPRO104"]


def test_repro104_comprehension_over_set_fires():
    source = "ys = [x for x in {1, 2}]\n"
    assert codes(lint_one(source)) == ["REPRO104"]


def test_repro105_uuid4_and_secrets_fire():
    source = (
        "import uuid\n"
        "import secrets\n"
        "a = uuid.uuid4()\n"
        "b = secrets.token_bytes(4)\n"
    )
    assert codes(lint_one(source)) == ["REPRO105", "REPRO105"]


# -- decoder bounds ----------------------------------------------------------

def test_repro201_guarded_slice_is_clean():
    clean = (
        "def decode_record(buf):\n"
        "    n = int.from_bytes(buf[0:4], 'big')\n"
        "    if 4 + n > len(buf):\n"
        "        raise ValueError('truncated')\n"
        "    return buf[4 : 4 + n]\n"
    )
    assert codes(lint_one(clean, path=DECODER_PATH)) == []


def test_repro201_taint_propagates_through_assignments():
    source = (
        "def decode_record(buf):\n"
        "    n = int.from_bytes(buf[0:4], 'big')\n"
        "    end = 4 + n\n"
        "    return buf[4:end]\n"
    )
    assert codes(lint_one(source, path=DECODER_PATH)) == ["REPRO201"]


def test_repro201_only_in_decoder_named_functions():
    source = (
        "def format_header(buf):\n"
        "    n = int.from_bytes(buf[0:4], 'big')\n"
        "    return buf[4 : 4 + n]\n"
    )
    assert codes(lint_one(source, path=DECODER_PATH)) == []


def test_repro201_only_in_decoder_files():
    _, snippet = VIOLATIONS["REPRO201"]
    assert codes(lint_one(snippet, path=DET_PATH)) == []


def test_repro201_struct_unpack_is_a_taint_source():
    source = (
        "import struct\n"
        "def parse_header(buf):\n"
        "    (n,) = struct.unpack_from('>I', buf, 0)\n"
        "    return buf[4 : 4 + n]\n"
    )
    assert codes(lint_one(source, path=DECODER_PATH)) == ["REPRO201"]


# -- asyncio hygiene ---------------------------------------------------------

def test_repro301_await_sleep_is_clean():
    clean = (
        "import asyncio\n"
        "async def handler():\n"
        "    await asyncio.sleep(1)\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro301_skips_nested_sync_defs():
    clean = (
        "import os\n"
        "async def handler(loop):\n"
        "    def _sync_part():\n"
        "        os.fsync(3)\n"
        "    await loop.run_in_executor(None, _sync_part)\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro301_open_and_fsync_fire():
    source = (
        "import os\n"
        "async def handler():\n"
        "    with open('f') as fh:\n"
        "        data = fh.read()\n"
        "    os.fsync(3)\n"
    )
    assert codes(lint_one(source)) == ["REPRO301", "REPRO301"]


def test_repro301_ignores_sync_functions():
    clean = "import time\ndef slow():\n    time.sleep(1)\n"
    # time.sleep outside async def is REPRO301-clean (and not a
    # REPRO103 wall-clock read either: sleeping isn't reading).
    assert codes(lint_one(clean)) == []


def test_repro302_get_running_loop_is_clean():
    clean = (
        "import asyncio\n"
        "async def handler():\n"
        "    loop = asyncio.get_running_loop()\n"
    )
    assert codes(lint_one(clean)) == []


# -- exception discipline ----------------------------------------------------

def test_repro401_reraise_is_sanctioned():
    clean = (
        "def recover():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro401_using_the_exception_is_sanctioned():
    clean = (
        "def recover(report):\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception as exc:\n"
        "        report.errors.append(exc)\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro401_logging_is_sanctioned():
    clean = (
        "import warnings\n"
        "def recover():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        warnings.warn('recovery failed')\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro401_narrow_except_is_clean():
    clean = (
        "def recover():\n"
        "    try:\n"
        "        risky()\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro401_bare_except_fires():
    source = (
        "def recover():\n"
        "    try:\n"
        "        risky()\n"
        "    except:\n"
        "        pass\n"
    )
    assert codes(lint_one(source)) == ["REPRO401"]


def test_repro402_cleanup_functions_are_sanctioned():
    clean = (
        "import contextlib\n"
        "def close(self):\n"
        "    with contextlib.suppress(Exception):\n"
        "        self.flush()\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro402_finally_blocks_are_sanctioned():
    clean = (
        "import contextlib\n"
        "def serve():\n"
        "    try:\n"
        "        work()\n"
        "    finally:\n"
        "        with contextlib.suppress(Exception):\n"
        "            teardown()\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro402_narrow_suppress_is_clean():
    clean = (
        "import contextlib\n"
        "def serve():\n"
        "    with contextlib.suppress(KeyError):\n"
        "        del cache['k']\n"
    )
    assert codes(lint_one(clean)) == []


# -- API invariants ----------------------------------------------------------

def test_repro501_consumed_fields_are_clean():
    clean = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Options:\n"
        "    live_knob: int = 0\n"
        "def use(options):\n"
        "    return options.live_knob * 2\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro501_consumption_may_cross_modules():
    report = LintEngine().lint_sources({
        "src/simcore/options_fixture.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Options:\n"
            "    live_knob: int = 0\n"
        ),
        "src/simcore/consumer_fixture.py": (
            "def use(options):\n"
            "    return options.live_knob\n"
        ),
    })
    assert codes(report) == []


def test_repro501_flags_a_dead_simulation_plan_field():
    report = lint_one(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class SimulationPlan:\n"
        "    seed: int = 0\n"
        "    max_steps: int = 0\n"
        "def run(plan):\n"
        "    return plan.seed\n"
    )
    assert codes(report) == ["REPRO501"]
    assert (
        "SimulationPlan.max_steps is never read" in report.findings[0].message
    )


def test_repro501_ignores_non_config_dataclasses():
    clean = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Unrelated:\n"
        "    dead_knob: int = 0\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro502_stats_touch_is_clean():
    clean = (
        "class MiniRocks:\n"
        "    def put(self, key, value):\n"
        "        self._memtable[key] = value\n"
        "        self.stats.puts += 1\n"
    )
    assert codes(lint_one(clean)) == []


def test_repro601_documented_surface_is_clean():
    clean = (
        'def rate(seed, tick):\n'
        '    """Offered load at ``tick``, ops per logical second."""\n'
        '    return 1.0\n'
        'class Controller:\n'
        '    """Scales the fleet against the SLO."""\n'
        '    def observe(self, tick):\n'
        '        """Feed one arrival into the queue model."""\n'
    )
    assert codes(lint_one(clean, path=DOCS_PATH)) == []


def test_repro601_flags_undocumented_class_and_method():
    source = (
        "class Controller:\n"
        "    def observe(self, tick):\n"
        "        return tick\n"
    )
    assert codes(lint_one(source, path=DOCS_PATH)) == [
        "REPRO601",
        "REPRO601",
    ]


def test_repro601_exemptions():
    # Private names, nested defs, private-class members, @property
    # setters, and @overload stubs all live outside the rule.
    clean = (
        "from typing import overload\n"
        "def _helper():\n"
        "    return 1\n"
        "def outer():\n"
        '    """Docstring on the public owner."""\n'
        "    def inner():\n"
        "        return 2\n"
        "    return inner\n"
        "class _Private:\n"
        "    def member(self):\n"
        "        return 3\n"
        "class Knob:\n"
        '    """A documented public class."""\n'
        "    @property\n"
        "    def value(self):\n"
        '        """The knob position."""\n'
        "        return self._value\n"
        "    @value.setter\n"
        "    def value(self, new):\n"
        "        self._value = new\n"
        "@overload\n"
        "def convert(x: int) -> int: ...\n"
        "def convert(x):\n"
        '    """Identity, typed per overload."""\n'
        "    return x\n"
    )
    assert codes(lint_one(clean, path=DOCS_PATH)) == []


def test_repro601_quiet_outside_library_paths():
    source = "def undocumented():\n    return 1\n"
    assert codes(lint_one(source, path=DET_PATH)) == []
    assert codes(
        lint_one(source, path="tests/test_fixture.py")
    ) == []


def test_repro601_suppressible_with_justification():
    source = (
        "def size(store):  # noqa: REPRO601 -- the name is the doc\n"
        "    return len(store)\n"
    )
    report = lint_one(source, path=DOCS_PATH)
    assert codes(report) == []
    assert [f.rule for f in report.suppressed] == ["REPRO601"]


# -- suppressions ------------------------------------------------------------

def test_justified_suppression_silences_and_is_reported():
    source = (
        "import time\n"
        "t = time.time()  # noqa: REPRO103 -- fixture wall clock\n"
    )
    report = lint_one(source)
    assert codes(report) == []
    assert [f.rule for f in report.suppressed] == ["REPRO103"]


def test_unjustified_suppression_is_rejected():
    source = "import time\nt = time.time()  # noqa: REPRO103\n"
    report = lint_one(source)
    # The original finding survives AND the naked noqa is flagged.
    assert codes(report) == ["REPRO001", "REPRO103"]


def test_bare_noqa_repro_is_a_finding():
    report = lint_one("x = 1  # noqa: REPRO\n")
    assert codes(report) == ["REPRO001"]


def test_unused_justified_suppression_is_a_finding():
    report = lint_one("x = 1  # noqa: REPRO101 -- stale reason\n")
    assert codes(report) == ["REPRO002"]


def test_suppression_only_matches_its_line_and_code():
    source = (
        "import time\n"
        "t = time.time()  # noqa: REPRO101 -- wrong code\n"
    )
    report = lint_one(source)
    # Wrong code: REPRO103 stays, and the suppression is unused.
    assert codes(report) == ["REPRO002", "REPRO103"]


def test_multi_code_suppression():
    source = (
        "import time\n"
        "t = [time.time() for x in {1, 2}]"
        "  # noqa: REPRO103,REPRO104 -- fixture exercising both\n"
    )
    report = lint_one(source)
    assert codes(report) == []
    assert sorted(f.rule for f in report.suppressed) == [
        "REPRO103",
        "REPRO104",
    ]


# -- reporters ---------------------------------------------------------------

def test_json_reporter_schema():
    _, snippet = VIOLATIONS["REPRO103"]
    payload = json.loads(render_json(lint_one(snippet)))
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"REPRO103": 1}
    assert payload["suppressed"] == []
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "REPRO103"
    assert finding["path"] == DET_PATH
    assert finding["line"] == 2


def test_text_reporter_mentions_location_and_counts():
    _, snippet = VIOLATIONS["REPRO103"]
    text = render_text(lint_one(snippet))
    assert f"{DET_PATH}:2" in text
    assert "REPRO103" in text
    assert "1 finding(s)" in text


def test_text_reporter_clean_run():
    text = render_text(lint_one("x = 1\n"))
    assert text.startswith("clean: 0 findings")


# -- engine plumbing ---------------------------------------------------------

def test_engine_rejects_missing_paths(tmp_path):
    with pytest.raises(LintError):
        LintEngine().lint_paths([str(tmp_path / "nope.py")])


def test_engine_rejects_unparsable_source():
    with pytest.raises(LintError):
        lint_one("def broken(:\n")


def test_registry_rejects_duplicate_codes():
    with pytest.raises(LintError):
        @register
        class Duplicate(Rule):  # pragma: no cover - never runs
            code = "REPRO101"
            family = "REPRO1"


def test_registry_unknown_code():
    with pytest.raises(LintError):
        get_rule("REPRO999")
    assert get_rule("REPRO101").name == "global-random"


def test_policy_families_for_paths():
    families = DEFAULT_POLICY.families_for("src/repro/kvstore/wal.py")
    assert {"REPRO0", "REPRO1", "REPRO2", "REPRO6"} <= families
    nondecoder = DEFAULT_POLICY.families_for("src/repro/kvstore/db.py")
    assert "REPRO2" not in nondecoder
    envelopes = DEFAULT_POLICY.families_for("src/repro/distributed/cluster.py")
    assert "REPRO2" in envelopes
    id_algorithm = DEFAULT_POLICY.families_for("src/repro/core/cluster.py")
    assert "REPRO2" not in id_algorithm
    devtools = DEFAULT_POLICY.families_for(
        "src/repro/devtools/engine.py"
    )
    assert "REPRO1" not in devtools
    assert "REPRO6" in devtools  # the linter documents itself too
    tests = DEFAULT_POLICY.families_for("src/repro/tests/test_x.py")
    assert "REPRO6" not in tests


def test_custom_policy_scopes():
    policy = Policy(
        scopes=(FamilyScope(family="REPRO1", include=("*/only_here/*",)),)
    )
    report = LintEngine(policy=policy).lint_sources(
        {"elsewhere/mod.py": "import time\nt = time.time()\n"}
    )
    assert codes(report) == []


# -- the repo itself ---------------------------------------------------------

def test_src_tree_is_lint_clean():
    """The acceptance gate: the full engine over src/ at HEAD."""
    report = LintEngine().lint_paths([str(SRC_ROOT)])
    assert report.findings == [], render_text(report)
    # Sanity: this really was the whole tree, not an empty walk.
    assert report.files_checked >= 90
    # Every suppression in the tree is justified and load-bearing
    # (REPRO001/REPRO002 would have fired above otherwise).
    assert len(report.suppressed) >= 1


# -- CLI ---------------------------------------------------------------------

def _write_tree(tmp_path, source):
    pkg = tmp_path / "repro" / "simulation"
    pkg.mkdir(parents=True)
    target = pkg / "snippet.py"
    target.write_text(source)
    return target


def test_cli_lint_exits_nonzero_on_violation(tmp_path, capsys):
    from repro.cli import main

    target = _write_tree(tmp_path, "import time\nt = time.time()\n")
    assert main(["lint", str(target)]) == 1
    out = capsys.readouterr().out
    assert "REPRO103" in out


def test_cli_lint_exits_zero_on_clean(tmp_path, capsys):
    from repro.cli import main

    target = _write_tree(tmp_path, "x = 1\n")
    assert main(["lint", str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_json_format(tmp_path, capsys):
    from repro.cli import main

    target = _write_tree(tmp_path, "import time\nt = time.time()\n")
    # The option may come before or after the paths.
    for argv in ([str(target), "--format", "json"],
                 ["--format", "json", str(target)]):
        assert main(["lint", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"REPRO103": 1}


def test_module_entry_point_matches_cli(tmp_path, capsys):
    from repro.devtools import main as devtools_main

    target = _write_tree(tmp_path, "import time\nt = time.time()\n")
    assert devtools_main([str(target)]) == 1
    assert "REPRO103" in capsys.readouterr().out


def test_missing_path_fails_alike_in_every_entry_point(tmp_path):
    """Both tools, in their module and their ``uuidp`` form, report a
    path that does not exist as ``error: ...`` and exit 2."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    missing = str(tmp_path / "absent")
    forms = [
        (["repro.devtools"], missing,
         f"error: no such file or directory: {missing}\n"),
        (["repro.cli", "lint"], missing,
         f"error: no such file or directory: {missing}\n"),
        (["repro.devtools.doccheck"], missing + ".md",
         f"error: doccheck: no such file: {missing}.md\n"),
        (["repro.cli", "doccheck"], missing + ".md",
         f"error: doccheck: no such file: {missing}.md\n"),
    ]
    for command, path, message in forms:
        proc = subprocess.run(
            [sys.executable, "-m", *command, path],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (2, message), command
