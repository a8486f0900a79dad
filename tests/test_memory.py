from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planwright.data_paths import scenario_dir
from planwright.gateway import FixtureEmbedder, HashedBagOfWordsEmbedder, ToolCall, assistant, system, tool_result, user
from planwright.memory import ContextBuffer, ProceduralStore, cosine_key
from planwright.values import IRDecodeError

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

    def test_store_without_its_header_is_refused(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        store = ProceduralStore(path)
        store.store("watch the battery level")
        store.store(FRIDGE_NOTE)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:]))
        with pytest.raises(ValueError, match="header"):
            ProceduralStore(path)

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

    def test_malformed_line_names_its_file_and_line(self, tmp_path):
        """A torn last line is reported with the store's path and the line's
        number in the file, blank lines counted."""
        header, entry = (scenario_dir("fridge_recall") / "memory.jsonl").read_text().splitlines()
        path = tmp_path / "memory.jsonl"
        path.write_text(f"{header}\n\n{entry}\n{entry[:30]}")
        with pytest.raises(IRDecodeError) as info:
            ProceduralStore(path)
        assert str(info.value) == f"memory store {path}, line 4: Unterminated string starting at: line 1 column 13 (char 12)"

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

    @pytest.mark.parametrize(
        "threshold, expected",
        [
            (Fraction(1), "x"),
            (Fraction(3, 5), "xyh"),
            (0.6, "xyh"),
            (Fraction(0), "xyhzo"),
            (Fraction(-3, 5), "xyhzog"),
            (Fraction(-1), "xyhzogwv"),
        ],
    )
    def test_threshold_is_inclusive_on_both_signs(self, threshold, expected):
        """Cosines against (1, 0): x 1, y 1/sqrt 2, h 3/5, z 0, o 0 (zero
        vector), g -3/5, w -1/sqrt 2, v -1; float components take the exact
        path too."""
        vectors = {
            "q": (1, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1), "w": (-1, 1),
            "v": (-1, 0), "o": (0, 0), "h": (3, 4), "g": (-3.0, 4.0),
        }
        store = ProceduralStore(embedder=FixtureEmbedder(vectors))
        for name in "xyzwvohg":
            store.store(name)
        got = store.retrieve("q", k=10, threshold=threshold)
        assert "".join(e.summary for e, _ in got) == expected
        scores = {e.summary: score for e, score in got}
        assert (scores.get("h", 0.6), scores.get("g", -0.6), scores.get("o", 0.0)) == (0.6, -0.6, 0.0)

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
        assert cosine_key(a, b) == cosine_key(b, a)


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

    def test_repeated_call_ids_evict_one_group(self):
        """A backend that names every turn's first call ``call-0`` repeats
        ids; eviction drops only the oldest group, not every group that
        reuses its id."""
        buf = ContextBuffer(system("sys"), capacity=4)
        for turn in ("first", "second"):
            buf.append(assistant(turn, (ToolCall("call-0", "open", {}),)))
            buf.append(tool_result("call-0", f"{turn} result"))
        buf.append(user("next"))
        assert [m.content for m in buf.window()] == ["sys", "second", "second result", "next"]

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
        assert len(buf.window()) - 1 <= capacity + 1  # a trailing pair may briefly round up
