"""Model-based test: MiniRocks vs a dict, under random op interleavings.

A hypothesis ``RuleBasedStateMachine`` drives puts/deletes/gets/scans/
flushes/compactions/ingests in arbitrary orders and cross-checks every
read against a plain dict. This is the strongest storage-engine test in
the suite: any ordering bug in memtable shadowing, L0 recency,
compaction merge direction, or tombstone handling shows up as a model
divergence.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.kvstore.db import MiniRocks
from repro.kvstore.iterators import iterate_db
from repro.kvstore.options import Options

KEYS = [f"key{i:02d}".encode() for i in range(24)]


class MiniRocksMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = MiniRocks(
            Options(
                memtable_entries=5,
                block_entries=3,
                level0_file_limit=2,
                num_levels=4,
                id_universe=1 << 32,
            ),
            rng=random.Random(1234),
        )
        self.model = {}

    @rule(key=st.sampled_from(KEYS), value=st.binary(min_size=1, max_size=8))
    def put(self, key, value):
        self.db.put(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.db.delete(key)
        self.model.pop(key, None)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.db.get(key) == self.model.get(key)

    @rule()
    def flush(self):
        self.db.flush()

    @rule()
    def compact(self):
        self.db.compact_all()

    @rule(
        start_index=st.integers(0, len(KEYS) - 1),
        span=st.integers(1, 10),
        open_end=st.booleans(),
        limit=st.one_of(st.none(), st.integers(-1, 12)),
    )
    def scan(self, start_index, span, open_end, limit):
        start = KEYS[start_index]
        end = None if open_end else KEYS[min(start_index + span, len(KEYS) - 1)]
        expected = sorted(
            (k, v)
            for k, v in self.model.items()
            if start <= k and (end is None or k < end)
        )
        if limit is not None:
            expected = expected[: max(limit, 0)]
        assert self.db.scan(start, end, limit) == expected

    @rule(value=st.binary(min_size=1, max_size=6))
    def ingest(self, value):
        # Ingest a two-key sorted batch of fresh, out-of-band keys.
        batch = [(b"zz-bulk-a", value), (b"zz-bulk-b", value)]
        self.db.ingest_external(batch)
        self.model[b"zz-bulk-a"] = value
        self.model[b"zz-bulk-b"] = value

    @invariant()
    def iterator_matches_model(self):
        assert dict(iterate_db(self.db)) == self.model


MiniRocksMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestMiniRocksStateful = MiniRocksMachine.TestCase
