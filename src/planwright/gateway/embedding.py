"""Text embedders.

The bundled embedder hashes a bag of words into a fixed 256-dimension count
vector via sha256, so it is deterministic across processes and needs no
network. Live embedding backends plug in behind the same one-method
interface.
"""
from __future__ import annotations

import re
from typing import Protocol, Sequence

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class Embedder(Protocol):
    id: str
    dimension: int

    def embed(self, text: str) -> tuple: ...


class HashedBagOfWordsEmbedder:
    """Each token is hashed to one of ``dimension`` buckets; counts accumulate."""

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self.id = f"hashed-bow-{dimension}"

    def tokenize(self, text: str) -> list[str]:
        return _TOKEN_RE.findall(text.lower())

    def bucket(self, token: str) -> int:
        import hashlib  # only on this path; keeps CLI start-up lean

        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self.dimension

    def embed(self, text: str) -> tuple:
        counts = [0] * self.dimension
        for token in self.tokenize(text):
            counts[self.bucket(token)] += 1
        return tuple(counts)


class FixtureEmbedder:
    """Serves fixed vectors from a text-to-vector table; a text missing
    from the table raises `LookupError`."""

    def __init__(self, vectors: dict[str, Sequence], source_id: str = "fixture"):
        self.vectors = {k: tuple(v) for k, v in vectors.items()}
        self.id = source_id
        self.dimension = len(next(iter(self.vectors.values()))) if self.vectors else 0

    def embed(self, text: str) -> tuple:
        try:
            return self.vectors[text]
        except KeyError:
            raise LookupError(f"no embedding in the table for text: {text[:60]!r}") from None
