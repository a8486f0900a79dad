"""Short-term context buffer and long-term procedural memory.

Retrieval ranks stored summaries by cosine similarity between embedding
vectors. Scores are compared in exact rational arithmetic (vector
components are integers or floats, both exactly representable as
fractions), so ranking and thresholding are reproducible bit for bit; the
float rendering is only for display.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from .gateway.embedding import Embedder, HashedBagOfWordsEmbedder
from .gateway.messages import ROLE_SYSTEM, ROLE_TOOL_RESULT, AgentMessage
from .ir import jsonio


@total_ordering
@dataclass(frozen=True)
class CosineScore:
    """Exactly comparable cosine similarity.

    Stored as (dot product, squared norms); comparisons square through the
    square roots so no irrational value is ever materialized.
    """

    dot: Fraction
    left_norm2: Fraction
    right_norm2: Fraction

    @staticmethod
    def of(left: Sequence, right: Sequence) -> "CosineScore":
        if len(left) != len(right):
            raise ValueError(f"dimension mismatch: {len(left)} vs {len(right)}")
        if all(type(v) is int for v in left) and all(type(v) is int for v in right):
            # integer fast path: the bundled embedder produces count vectors
            dot = Fraction(sum(a * b for a, b in zip(left, right)))
            l2 = Fraction(sum(a * a for a in left))
            r2 = Fraction(sum(b * b for b in right))
        else:
            dot = sum((Fraction(a) * Fraction(b) for a, b in zip(left, right)), Fraction(0))
            l2 = sum((Fraction(a) ** 2 for a in left), Fraction(0))
            r2 = sum((Fraction(b) ** 2 for b in right), Fraction(0))
        return CosineScore(dot, l2, r2)

    @property
    def defined(self) -> bool:
        return self.left_norm2 > 0 and self.right_norm2 > 0

    def as_float(self) -> float:
        if not self.defined:
            return 0.0
        return float(self.dot) / math.sqrt(float(self.left_norm2 * self.right_norm2))

    def _sign(self) -> int:
        if not self.defined or self.dot == 0:
            return 0
        return 1 if self.dot > 0 else -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CosineScore):
            return NotImplemented
        s1, s2 = self._sign(), other._sign()
        if s1 != s2:
            return False
        if s1 == 0:
            return True
        return self.dot**2 * other.left_norm2 * other.right_norm2 == other.dot**2 * self.left_norm2 * self.right_norm2

    def __lt__(self, other: "CosineScore") -> bool:
        s1, s2 = self._sign(), other._sign()
        if s1 != s2:
            return s1 < s2
        if s1 == 0:
            return False
        lhs = self.dot**2 * other.left_norm2 * other.right_norm2
        rhs = other.dot**2 * self.left_norm2 * self.right_norm2
        return lhs < rhs if s1 > 0 else lhs > rhs

    def __hash__(self) -> int:  # total_ordering + frozen dataclass
        return hash((self._sign(),))

    def at_least(self, threshold: Union[Fraction, float]) -> bool:
        """Exact ``cosine >= threshold`` without evaluating the root."""
        theta = Fraction(threshold)
        if not self.defined:
            return 0 >= theta
        d = self.left_norm2 * self.right_norm2
        if theta <= 0:
            if self.dot >= 0:
                return True
            return self.dot**2 <= theta**2 * d
        if self.dot < 0:
            return False
        return self.dot**2 >= theta**2 * d


@dataclass(frozen=True)
class MemoryEntry:
    summary: str
    embedding: tuple
    source_agent: str = ""
    timestamp: float = 0.0

    def to_json(self) -> dict:
        return {
            "summary": self.summary,
            "embedding": list(self.embedding),
            "source_agent": self.source_agent,
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_json(data: Any) -> "MemoryEntry":
        return MemoryEntry(
            summary=jsonio.field(data, "summary", str),
            embedding=jsonio.tuple_of(data, "embedding", (int, float)),
            source_agent=jsonio.field(data, "source_agent", str, ""),
            timestamp=jsonio.field(data, "timestamp", (int, float), 0.0),
        )


class ProceduralStore:
    """Append-only long-term store of generalizable correction summaries.

    Entries persist to a JSON-lines file (one header line plus one line per
    entry); reloading reproduces embeddings and retrieval order exactly.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        embedder: Optional[Embedder] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.embedder = embedder or HashedBagOfWordsEmbedder()
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.entries: list[MemoryEntry] = []
        self._has_header = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        lines = [l for l in self.path.read_text(encoding="utf-8").splitlines() if l.strip()]
        if not lines:
            return
        self._has_header = True
        stored_id = jsonio.field(jsonio.read_object(lines[0]), "embedder", str, "")
        if stored_id and stored_id != self.embedder.id:
            raise ValueError(f"store was built with embedder {stored_id!r}, not {self.embedder.id!r}")
        self.entries = [MemoryEntry.from_json(jsonio.read_object(line)) for line in lines[1:]]

    def _persist(self, entry: MemoryEntry) -> None:
        if self.path is None:
            return
        text = json.dumps(entry.to_json()) + "\n"
        if not self._has_header:
            # Another store on the same path may have written the header
            # since this one loaded; look once, then remember.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if not self.path.exists() or not self.path.read_text(encoding="utf-8").strip():
                text = json.dumps({"version": 1, "embedder": self.embedder.id}) + "\n" + text
            self._has_header = True
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(text)

    def store(self, summary: str, source_agent: str = "") -> MemoryEntry:
        if not summary.strip():
            raise ValueError("summary must be nonempty")
        entry = MemoryEntry(
            summary=summary,
            embedding=tuple(self.embedder.embed(summary)),
            source_agent=source_agent,
            timestamp=self.clock(),
        )
        self.entries.append(entry)
        self._persist(entry)
        return entry

    def retrieve(
        self,
        query: str,
        k: int = 3,
        threshold: Union[Fraction, float] = Fraction(-1),
    ) -> list[tuple[MemoryEntry, float]]:
        """Top-k entries with cosine >= threshold, descending; ties keep
        insertion order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        theta = Fraction(threshold)
        if not -1 <= theta <= 1:
            raise ValueError("threshold must lie in [-1, 1]")
        query_vec = self.embedder.embed(query)
        scored: list[tuple[CosineScore, int, MemoryEntry]] = []
        for position, entry in enumerate(self.entries):
            score = CosineScore.of(query_vec, entry.embedding)
            if score.at_least(theta):
                scored.append((score, position, entry))
        scored.sort(key=lambda item: item[1])  # stable insertion order…
        scored.sort(key=lambda item: item[0], reverse=True)  # …then by score
        return [(entry, score.as_float()) for score, _, entry in scored[:k]]


class ContextBuffer:
    """Bounded recent-message window; the system message is never evicted.

    Capacity counts non-system messages. An assistant message carrying tool
    calls and the tool results answering it form an eviction group: they are
    always dropped together, never orphaned.
    """

    def __init__(self, system_message: AgentMessage, capacity: int = 40):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if system_message.role != ROLE_SYSTEM:
            raise ValueError("context buffer must be rooted at a system message")
        self.system_message = system_message
        self.capacity = capacity
        self._messages: list[AgentMessage] = []

    def append(self, message: AgentMessage) -> None:
        if message.role == ROLE_SYSTEM:
            raise ValueError("only one system message per buffer")
        self._messages.append(message)
        while len(self._messages) > self.capacity:
            self._evict_oldest_group()

    def _evict_oldest_group(self) -> None:
        head = self._messages[0]
        group_ids: set[str] = set()
        if head.tool_calls:
            group_ids = {tc.id for tc in head.tool_calls}
        elif head.role == ROLE_TOOL_RESULT and head.tool_call_id:
            # find the assistant that issued this call and take its whole group
            for msg in self._messages:
                if any(tc.id == head.tool_call_id for tc in msg.tool_calls):
                    group_ids = {tc.id for tc in msg.tool_calls}
                    break
            group_ids.add(head.tool_call_id)
        if not group_ids:
            self._messages.pop(0)
            return
        self._messages = [
            m
            for m in self._messages
            if not (
                (m.tool_calls and {tc.id for tc in m.tool_calls} & group_ids)
                or (m.role == ROLE_TOOL_RESULT and m.tool_call_id in group_ids)
            )
        ]

    def window(self) -> list[AgentMessage]:
        return [self.system_message] + list(self._messages)

    def clear(self) -> None:
        self._messages.clear()

    def __len__(self) -> int:
        return len(self._messages)
