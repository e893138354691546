"""Vocabulary construction and serialization.

The vocabulary is a bidirectional token<->id map built from a training
corpus. Ordering is deterministic (frequency descending, ties broken
lexicographically) so that downstream artifacts such as neighbor tables
are byte-reproducible. Two reserved tokens are always present: ``<unk>``
for out-of-vocabulary words and ``<eos>`` for end of sentence; if the
corpus already contains them literally their ids are reused.
"""

import hashlib
import itertools
from collections import Counter
from collections.abc import Iterable

import numpy as np

from .arrayio import replacing

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


class Vocabulary:
    """Immutable token<->id map with reserved unk/eos ids."""

    def __init__(self, tokens: list[str], counts: list[int]):
        if len(tokens) != len(counts):
            raise ValueError("tokens and counts length mismatch")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if UNK_TOKEN not in tokens or EOS_TOKEN not in tokens:
            raise ValueError("vocabulary must contain %r and %r" % (UNK_TOKEN, EOS_TOKEN))
        self.tokens = list(tokens)
        self.counts = list(counts)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        self.unk_id = self.index[UNK_TOKEN]
        self.eos_id = self.index[EOS_TOKEN]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id(self, token: str) -> int:
        """Id of `token`, falling back to unk_id for unknown tokens."""
        return self.index.get(token, self.unk_id)

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        """int64 ids of `tokens`, unk_id for unknown ones, as `id` gives them."""
        ids = map(self.index.get, tokens, itertools.repeat(self.unk_id))
        return np.fromiter(ids, dtype=np.int64)

    def to_text(self) -> str:
        """Newline-delimited "token<TAB>count" serialization."""
        return "".join("%s\t%d\n" % (tok, cnt) for tok, cnt in zip(self.tokens, self.counts))

    def save(self, path) -> None:
        """Write to_text() through a temporary file renamed over `path`."""
        with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_text())

    def content_hash(self) -> str:
        """sha256 of the serialized form; used to pin checkpoints to a vocabulary."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def build_vocabulary(corpus: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from a token stream.

    Tokens occurring fewer than `min_count` times are dropped (they map to
    unk afterwards). Surviving tokens are ordered by frequency descending,
    ties broken lexicographically; reserved tokens not already present in
    the corpus are appended at the end with their observed counts (zero if
    absent). The corpus must be non-empty, and at least one word besides
    the reserved tokens must occur `min_count` times.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1, got %d" % min_count)
    freq = Counter(corpus)
    if not freq:
        raise ValueError("empty corpus")

    reserved = (UNK_TOKEN, EOS_TOKEN)
    kept = [t for t, c in freq.items() if c >= min_count or t in reserved]
    if all(t in reserved for t in kept):
        raise ValueError("no corpus word besides %s and %s occurs min_count = %d times"
                         % (UNK_TOKEN, EOS_TOKEN, min_count))
    kept.sort(key=lambda t: (-freq[t], t))
    for tok in reserved:
        if tok not in freq:
            kept.append(tok)
    return Vocabulary(kept, [freq.get(t, 0) for t in kept])


def read_corpus(path) -> list[str]:
    """Whitespace-tokenize a text file, appending <eos> per non-empty line."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            tokens.extend(parts)
            tokens.append(EOS_TOKEN)
    if not tokens:
        raise ValueError("empty corpus file: %s" % path)
    return tokens
