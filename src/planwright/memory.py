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
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .gateway.embedding import Embedder, HashedBagOfWordsEmbedder
from .gateway.messages import ROLE_SYSTEM, ROLE_TOOL_RESULT, AgentMessage
from .ir import jsonio
from .values import IRDecodeError, Value


def cosine_key(left: Sequence, right: Sequence) -> tuple[Fraction, float]:
    """Exact ranking key and display value of the cosine similarity.

    The key is cos·|cos| = sign(dot)·dot²/(|l|²·|r|²): rational, and
    monotone in the cosine, so ranking and thresholding never materialize
    a square root. Both are 0 when either vector is zero.
    """
    if len(left) != len(right):
        raise ValueError(f"dimension mismatch: {len(left)} vs {len(right)}")
    # A float becomes its exact fraction; an int, such as a count from the
    # bundled embedder, stays an int, so a count vector's sums stay ints.
    left = [Fraction(v) if isinstance(v, float) else v for v in left]
    right = [Fraction(v) if isinstance(v, float) else v for v in right]
    dot = sum(a * b for a, b in zip(left, right))
    l2 = sum(a * a for a in left)
    r2 = sum(b * b for b in right)
    if l2 == 0 or r2 == 0:
        return Fraction(0), 0.0
    return Fraction(dot * abs(dot), l2 * r2), float(dot) / math.sqrt(float(l2 * r2))


class MemoryEntry(Value):
    summary: str
    embedding: tuple
    source_agent: str = ""
    timestamp: float = 0.0
    _json_kinds = {"summary": str, "embedding": [(int, float)], "source_agent": str, "timestamp": (int, float)}


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
        records: list = []  # the header's dict, then one entry per line
        # Numbered before blank lines are skipped, so an error names the
        # line as the file counts it.
        for number, line in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                data = jsonio.read_object(line)
                records.append(MemoryEntry.from_json(data) if records else data)
            except IRDecodeError as exc:
                raise IRDecodeError(f"memory store {self.path}, line {number}: {exc}") from exc
        if not records:
            return
        header, self.entries = records[0], records[1:]
        if jsonio.field(header, "version", int, None) != 1:
            raise ValueError(f"memory store {self.path} does not start with its version 1 header")
        self._has_header = True
        stored_id = jsonio.field(header, "embedder", str, "")
        if stored_id and stored_id != self.embedder.id:
            raise ValueError(f"store was built with embedder {stored_id!r}, not {self.embedder.id!r}")
        # Retrieval scores every entry, so one it cannot score is refused here.
        dimension = self.embedder.dimension
        for entry in self.entries:
            finite = all(isinstance(v, int) or math.isfinite(v) for v in entry.embedding)
            if len(entry.embedding) != dimension or not finite:
                raise ValueError(f"memory entry {entry.summary!r} needs {dimension} finite embedding components")

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
        bound = theta * abs(theta)
        scored: list[tuple[Fraction, float, MemoryEntry]] = []
        for entry in self.entries:
            key, score = cosine_key(query_vec, entry.embedding)
            if key >= bound:
                scored.append((key, score, entry))
        scored.sort(key=lambda item: item[0], reverse=True)  # stable: ties keep insertion order
        return [(entry, score) for _, score, entry in scored[:k]]


class ContextBuffer:
    """Bounded recent-message window; the system message is never evicted.

    Capacity counts non-system messages. An assistant message carrying tool
    calls and the tool results that follow it form an eviction group: they
    are always dropped together, never orphaned. Eviction drops the oldest
    message and every tool result right behind it, so a group is told by
    position alone, never by call ids, which a backend may repeat.
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
        messages = self._messages
        messages.append(message)
        while len(messages) > self.capacity:
            del messages[0]
            while messages and messages[0].role == ROLE_TOOL_RESULT:
                del messages[0]

    def window(self) -> list[AgentMessage]:
        return [self.system_message] + list(self._messages)
