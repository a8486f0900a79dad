from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planwright.gateway import HashedBagOfWordsEmbedder, ToolCall, assistant, system, tool_result, user
from planwright.memory import ContextBuffer, CosineScore, ProceduralStore

FRIDGE_NOTE = "for problems involving the fridge, append a goal to close the fridge, even if not explicitly stated"

WORDS = ["fridge", "salmon", "goal", "battery", "tower", "close", "open", "heat", "table", "robot", "block", "move"]


def exact_cosine_key(query_vec):
    """Brute-force comparison key used as the ranking oracle: compares
    cosines via integer cross-multiplication, no square roots."""

    def compare(a, b):
        (dot_a, n2_a, pos_a), (dot_b, n2_b, pos_b) = a, b
        sign_a = 0 if dot_a == 0 or n2_a == 0 else (1 if dot_a > 0 else -1)
        sign_b = 0 if dot_b == 0 or n2_b == 0 else (1 if dot_b > 0 else -1)
        if sign_a != sign_b:
            return -1 if sign_a > sign_b else 1  # higher first
        if sign_a == 0:
            return -1 if pos_a < pos_b else 1
        lhs = dot_a * dot_a * n2_b
        rhs = dot_b * dot_b * n2_a
        if lhs == rhs:
            return -1 if pos_a < pos_b else 1
        bigger = lhs > rhs if sign_a > 0 else lhs < rhs
        return -1 if bigger else 1

    return cmp_to_key(compare)


class TestStore:
    def test_fridge_instruction_stored(self, tmp_path):
        store = ProceduralStore(tmp_path / "memory.jsonl")
        entry = store.store(FRIDGE_NOTE, source_agent="goal-generator")
        assert "append a goal to close the fridge" in entry.summary
        assert entry.embedding == HashedBagOfWordsEmbedder().embed(FRIDGE_NOTE)

    def test_duplicate_summaries_both_kept(self):
        store = ProceduralStore()
        store.store("note")
        store.store("note")
        assert len(store.entries) == 2

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            ProceduralStore().store("   ")

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        store = ProceduralStore(path, clock=lambda: 1234.5)
        store.store("watch the battery level", source_agent="goal-generator")
        store.store(FRIDGE_NOTE, source_agent="goal-generator")
        reloaded = ProceduralStore(path)
        assert [e.summary for e in reloaded.entries] == [e.summary for e in store.entries]
        assert [e.embedding for e in reloaded.entries] == [e.embedding for e in store.entries]
        assert reloaded.retrieve("fridge", k=2) == store.retrieve("fridge", k=2)

    def test_two_stores_appending_in_turn_share_one_header(self, tmp_path, monkeypatch):
        path = tmp_path / "memory.jsonl"
        first = ProceduralStore(path, clock=lambda: 1.0)
        second = ProceduralStore(path, clock=lambda: 2.0)
        entries = [first.store("watch the battery level", "goal-generator"), second.store(FRIDGE_NOTE, "critic")]

        # Both stores now know the header exists and no longer read the file.
        def no_reads(self, *args, **kwargs):
            raise AssertionError(f"{self} read while appending")

        monkeypatch.setattr(Path, "read_text", no_reads)
        entries += [first.store("close the fridge", "goal-generator"), second.store("heat the salmon", "critic")]
        monkeypatch.undo()

        header = json.dumps({"version": 1, "embedder": HashedBagOfWordsEmbedder().id})
        expected = "".join(line + "\n" for line in [header] + [json.dumps(e.to_json()) for e in entries])
        assert path.read_bytes() == expected.encode("utf-8")
        assert [e.summary for e in ProceduralStore(path).entries] == [e.summary for e in entries]

    def test_embedder_mismatch_detected(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        ProceduralStore(path).store("note")
        with pytest.raises(ValueError):
            ProceduralStore(path, embedder=HashedBagOfWordsEmbedder(dimension=64))


class TestRetrieve:
    def test_exact_match_scores_one(self):
        store = ProceduralStore()
        store.store("unrelated words entirely")
        store.store(FRIDGE_NOTE)
        results = store.retrieve(FRIDGE_NOTE, k=2)
        assert results[0][0].summary == FRIDGE_NOTE
        assert results[0][1] == pytest.approx(1.0)

    def test_empty_store(self):
        assert ProceduralStore().retrieve("anything", k=3) == []

    def test_threshold_filters(self):
        store = ProceduralStore()
        store.store("alpha beta gamma")
        results = store.retrieve("totally different tokens", k=5, threshold=Fraction(35, 100))
        assert results == []

    def test_k_bounds_results(self):
        store = ProceduralStore()
        for i in range(10):
            store.store(f"fridge note number {i}")
        assert len(store.retrieve("fridge", k=3)) == 3

    def test_full_scan_with_min_threshold_returns_everything(self):
        store = ProceduralStore()
        for i in range(7):
            store.store(f"entry {i} fridge")
        results = store.retrieve("fridge", k=10_000, threshold=Fraction(-1))
        assert len(results) == 7

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        embedder = HashedBagOfWordsEmbedder()
        store = ProceduralStore()
        for _ in range(100):
            summary = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
            store.store(summary)
        query = " ".join(rng.choices(WORDS, k=3))
        qvec = embedder.embed(query)

        scored = []
        for pos, entry in enumerate(store.entries):
            dot = sum(a * b for a, b in zip(qvec, entry.embedding))
            n2 = sum(b * b for b in entry.embedding) * sum(a * a for a in qvec)
            scored.append(((dot, n2, pos), entry))
        scored.sort(key=lambda item: exact_cosine_key(qvec)(item[0]))
        expected = [entry.summary for _, entry in scored]

        got = [e.summary for e, _ in store.retrieve(query, k=len(store.entries), threshold=Fraction(-1))]
        assert got == expected

    def test_score_symmetry(self):
        embedder = HashedBagOfWordsEmbedder()
        a = embedder.embed("close the fridge")
        b = embedder.embed("fridge duty roster")
        assert CosineScore.of(a, b) == CosineScore.of(b, a)
        assert CosineScore.of(a, b).as_float() == CosineScore.of(b, a).as_float()


class TestContextBuffer:
    def test_eviction_keeps_system_and_last_three(self):
        buf = ContextBuffer(system("sys"), capacity=3)
        for i in range(5):
            buf.append(user(f"m{i}"))
        contents = [m.content for m in buf.window()]
        assert contents == ["sys", "m2", "m3", "m4"]

    def test_fresh_buffer_window(self):
        buf = ContextBuffer(system("sys"), capacity=3)
        assert [m.role for m in buf.window()] == ["system"]

    def test_clear_leaves_system_only(self):
        buf = ContextBuffer(system("sys"), capacity=3)
        buf.append(user("hello"))
        buf.clear()
        assert [m.content for m in buf.window()] == ["sys"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["user", "pair"]), max_size=12), st.integers(min_value=2, max_value=6))
    def test_tool_results_never_orphaned(self, script, capacity):
        buf = ContextBuffer(system("sys"), capacity=capacity)
        counter = 0
        for kind in script:
            if kind == "user":
                buf.append(user(f"u{counter}"))
            else:
                call = ToolCall(f"call-{counter}", "open", {})
                buf.append(assistant(tool_calls=(call,)))
                buf.append(tool_result(call.id, "ok"))
            counter += 1
        window = buf.window()
        call_ids = {tc.id for m in window for tc in m.tool_calls}
        for msg in window:
            if msg.role == "tool-result":
                assert msg.tool_call_id in call_ids
        assert len(buf) <= capacity + 1  # a trailing pair may briefly round up
