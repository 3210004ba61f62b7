import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from demon import expr as ex
from demon.errors import ConflictingObservation
from demon.store import (
    EMPTY_MEMORY,
    Event,
    Memory,
    _replace_max,
    mem_from_event,
    memory_merge,
    merge_with,
)

from helpers import memory_merge_all

RANK = {ex.UNKNOWN: 0, ex.BOTTOM: 1, ex.TOP: 2}  # the merge order: UNKNOWN < BOTTOM < TOP


class TestMergeWith:
    def test_disjoint_domains(self):
        out = merge_with({"x": 1}, {"y": 2}, max)
        assert out == {"x": 1, "y": 2}

    def test_neutral_element(self):
        f = {"x": 1, "y": 2}
        assert merge_with(f, {}, max) == f
        assert merge_with({}, f, max) == f

    def test_shared_key_uses_op(self):
        out = merge_with({"x": ex.BOTTOM}, {"x": ex.TOP},
                         lambda a, b: b if RANK[a] < RANK[b] else a)
        assert out == {"x": ex.TOP}

    def test_domain_is_union(self):
        f, g = {"x": 1, "y": 2}, {"y": 9, "z": 3}
        assert set(merge_with(f, g, min)) == {"x", "y", "z"}


class TestEvent:
    def test_conflicting_event_rejected(self):
        with pytest.raises(ConflictingObservation):
            Event.of(("a", ex.TOP), ("a", ex.BOTTOM))

    def test_non_final_observation_rejected(self):
        with pytest.raises(ConflictingObservation):
            Event.of(("a", ex.UNKNOWN))

    def test_union(self):
        e = Event.of(("a", ex.TOP)).union(Event.of(("b", ex.BOTTOM)))
        assert e.propositions() == {"a", "b"}


class TestMemoryMerge:
    def test_replace_max_follows_verdict_rank(self):
        for a, b in itertools.product(ex.Verdict, repeat=2):
            expected = b if RANK[a] < RANK[b] else a
            assert _replace_max(a, b) is expected, (a, b)

    def test_idempotent(self):
        m = Memory({ex.plain("a"): ex.TOP, ex.plain("b"): ex.UNKNOWN})
        assert memory_merge(dict(m), m) == m

    def test_disjoint(self):
        m = memory_merge(
            Memory({ex.plain("a"): ex.TOP}), Memory({ex.plain("b"): ex.BOTTOM})
        )
        assert m == Memory({ex.plain("a"): ex.TOP, ex.plain("b"): ex.BOTTOM})

    def test_final_beats_unknown(self):
        m = memory_merge(
            Memory({ex.plain("a"): ex.UNKNOWN}), Memory({ex.plain("a"): ex.BOTTOM})
        )
        assert m.get(ex.plain("a")) is ex.BOTTOM

    def test_monotone_domain(self):
        rng = random.Random(5)
        atoms = [ex.plain(f"x{i}") for i in range(6)]
        for _ in range(100):
            m1 = _random_memory(rng, atoms)
            m2 = _random_memory(rng, atoms)
            assert memory_merge(dict(m1), m2).keys() >= m1.keys()

    def test_merges_in_place_and_only_reads_its_argument(self):
        rng = random.Random(6)
        atoms = [ex.plain(f"x{i}") for i in range(6)]
        for _ in range(100):
            m1 = _random_memory(rng, atoms)
            m2 = _random_memory(rng, atoms)
            before, sent = dict(m1), dict(m2)
            out = memory_merge(m1, m2)
            assert out is m1 and out is not m2
            assert m2 == sent
            assert out == merge_with(before, sent, _replace_max)

    def test_empty_memory_never_changes(self):
        m = Memory({ex.timed(1, "a"): ex.TOP})
        out = memory_merge(EMPTY_MEMORY, m)
        assert out == m and out is not m and out is not EMPTY_MEMORY
        out[ex.timed(2, "b")] = ex.BOTTOM
        assert EMPTY_MEMORY == {} and m == Memory({ex.timed(1, "a"): ex.TOP})


class TestMemFromEvent:
    def test_timestamp_encoding(self):
        m = mem_from_event(Event.of(("a", ex.TOP), ("b", ex.BOTTOM)), 1)
        assert m == Memory({ex.timed(1, "a"): ex.TOP, ex.timed(1, "b"): ex.BOTTOM})

    def test_empty_event(self):
        assert mem_from_event(Event(), 4) == EMPTY_MEMORY


def _random_memory(rng, atoms, allow_unknown=True):
    choices = [ex.TOP, ex.BOTTOM] + ([ex.UNKNOWN] if allow_unknown else [])
    return Memory({a: rng.choice(choices) for a in atoms if rng.random() < 0.7})


verdicts = st.sampled_from([ex.TOP, ex.BOTTOM, ex.UNKNOWN])
atom_names = st.sampled_from([f"x{i}" for i in range(5)])
memories = st.dictionaries(atom_names, verdicts, max_size=5).map(
    lambda d: Memory({ex.plain(k): v for k, v in d.items()})
)


@given(memories)
@settings(max_examples=100, deadline=None)
def test_merge_idempotent(m):
    assert memory_merge(dict(m), m) == m


@given(memories, memories)
@settings(max_examples=150, deadline=None)
def test_merge_commutative_without_conflicts(m1, m2):
    # The replace order is total, so commutativity can only fail on opposing
    # final verdicts; those are excluded by the no-conflict assumption.
    conflict = any(
        m1.get(a) is not None
        and m2.get(a) is not None
        and m1.get(a).is_final
        and m2.get(a).is_final
        and m1.get(a) is not m2.get(a)
        for a in m1.keys() | m2.keys()
    )
    if not conflict:
        assert memory_merge(dict(m1), m2) == memory_merge(dict(m2), m1)


@given(memories, memories, memories)
@settings(max_examples=150, deadline=None)
def test_merge_associative(m1, m2, m3):
    left = memory_merge(memory_merge(dict(m1), m2), m3)
    right = memory_merge(dict(m1), memory_merge(dict(m2), m3))
    assert left == right


@given(st.lists(memories, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_merge_all_matches_fold(ms):
    folded = dict(ms[0])
    for m in ms[1:]:
        folded = memory_merge(folded, m)
    assert memory_merge_all(ms) == folded
