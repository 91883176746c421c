"""Differential property test for the shared checkpoint log stack.

Random take / store / load / rollback / commit sequences run on both
engines; after every step the stack's views must equal a naive model
kept here: committed memory plus one plain ``{word: value}`` dict per
live checkpoint.  Checked per step: ``speculative_value`` of every word
the sequence can touch, ``line_view`` and ``line_overlay`` (words and
the ``overlaid`` flag) of every such line, ``live_write_logs``, and that
every cached line holds exactly its newest view.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.checkpoint import CheckpointedProcessor, ExactCheckpointEngine

MAX_CHECKPOINTS = 4
#: Two sets of two ways: three lines in set 0 and one in set 1, so
#: stores and loads evict and refill lines while checkpoints are live.
GEOMETRY = CacheGeometry(size_bytes=256, associativity=2)
LINES = (0x40, 0x42, 0x44, 0x41)
OFFSETS = (0, 15)

ENGINES = {
    "Bulk": lambda: CheckpointedProcessor(
        geometry=GEOMETRY, max_checkpoints=MAX_CHECKPOINTS
    ),
    "Exact": lambda: ExactCheckpointEngine(
        geometry=GEOMETRY, max_checkpoints=MAX_CHECKPOINTS
    ),
}

#: Loads and stores outnumber the stack operations, so epochs grow
#: long enough to evict, refill and then roll back a written line.
KINDS = (
    "take", "store", "store", "load", "load", "load", "rollback", "commit"
)
operation = st.tuples(
    st.sampled_from(KINDS),
    st.tuples(st.sampled_from(LINES), st.sampled_from(OFFSETS)),
    st.integers(0, 2**32 - 1),
)


def byte_address(line, offset):
    return ((line << 4) + offset) << 2


class Model:
    """Committed words plus a list of ``(checkpoint id, log)``."""

    def __init__(self):
        self.committed = {}
        self.stack = []

    def value(self, word):
        for _, log in reversed(self.stack):
            if word in log:
                return log[word]
        return self.committed.get(word, 0)

    def line(self, line):
        words = [self.value((line << 4) + offset) for offset in range(16)]
        overlaid = any(
            word >> 4 == line for _, log in self.stack for word in log
        )
        return words, overlaid


def check(engine, model):
    for line in LINES:
        words, overlaid = model.line(line)
        assert engine.line_overlay(line) == (words, overlaid)
        assert engine.line_view(line) == words
        for offset in range(16):
            assert engine.speculative_value(
                byte_address(line, offset)
            ) == words[offset]
    assert engine.live_write_logs() == [
        (cid, dict(log)) for cid, log in model.stack
    ]
    for cached in engine.cache.all_lines():
        assert cached.words == model.line(cached.line_address)[0]


@pytest.mark.parametrize("name", sorted(ENGINES))
@settings(max_examples=100, deadline=None)
@given(operations=st.lists(operation, max_size=50))
@example(  # a written line is evicted, refilled by a load, rolled back
    operations=[
        ("take", (0x40, 0), 0),
        ("store", (0x40, 0), 5),
        ("load", (0x42, 0), 0),
        ("load", (0x44, 0), 0),
        ("load", (0x40, 0), 0),
        ("rollback", (0x40, 0), 0),
    ]
)
def test_stack_matches_naive_model(name, operations):
    engine = ENGINES[name]()
    model = Model()
    for op, where, value in operations:
        if op == "take":
            if len(model.stack) == MAX_CHECKPOINTS:
                continue
            model.stack.append((engine.take_checkpoint(), {}))
        elif not model.stack:
            continue
        elif op == "store":
            engine.store(byte_address(*where), value)
            line, offset = where
            model.stack[-1][1][(line << 4) + offset] = value
        elif op == "load":
            line, offset = where
            if engine.cache.lookup(line) is None:
                engine.fill_line(line)  # the system's load-miss fill
            expected = model.value((line << 4) + offset)
            assert engine.load(byte_address(*where)) == expected
        elif op == "rollback":
            keep = value % len(model.stack)
            assert engine.rollback_to(model.stack[keep][0]) == (
                len(model.stack) - keep
            )
            del model.stack[keep:]
        else:
            _, log = model.stack.pop(0)
            engine.commit_oldest()
            model.committed.update(log)
        check(engine, model)
