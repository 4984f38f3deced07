"""Word/punctuation tokenizer and vocabulary for the token model.

Text splits on whitespace with ( ) , [ ] : as standalone single-character
tokens; every other maximal run is one word token. Responses get a trailing
EOS. Unknown words map to UNK. Ids are dense in [0, |V|) with BOS, EOS and
UNK reserved at the front.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PlangenError

BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"

_TOKEN_RE = re.compile(r"[()\[\],:]|[^\s()\[\],:]+")


class VocabularyError(PlangenError):
    pass


def split_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.tokens[:3] != (BOS, EOS, UNK):
            raise VocabularyError("vocabulary must reserve BOS, EOS, UNK at ids 0..2")
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabularyError("duplicate token in vocabulary")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return 1

    @property
    def unk_id(self) -> int:
        return 2

    def token_id(self, token: str) -> int:
        return self._index.get(token, 2)

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_id(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


def build_vocab(texts: Iterable[str]) -> Vocabulary:
    """Vocabulary over every token appearing in the texts, sorted for
    determinism, with the reserved tokens up front."""
    seen = set()
    for text in texts:
        seen.update(split_tokens(text))
    seen.discard(BOS)
    seen.discard(EOS)
    seen.discard(UNK)
    return Vocabulary((BOS, EOS, UNK, *sorted(seen)))


def check_response(text: str, field: str = "response") -> str:
    """``text``, if none of its tokens is <bos>: the token model is trained
    on responses and reads a <bos> it emits as the end of a decode."""
    if BOS in text and BOS in split_tokens(text):
        raise VocabularyError(f"{field} holds the token {BOS}")
    return text


def tokenize(text: str, vocab: Vocabulary, response: bool = False) -> list[int]:
    """Token ids for the text; responses get EOS appended."""
    ids = vocab.encode(split_tokens(text))
    if response:
        ids.append(vocab.eos_id)
    return ids


_NO_SPACE_BEFORE = {")", "]", ",", ":", "."}
_NO_SPACE_AFTER = {"(", "["}


def detokenize(tokens: Sequence[str]) -> str:
    """Rebuild readable text; good enough for the response grammar to parse."""
    out: list[str] = []
    prev = None
    for tok in tokens:
        if tok in (BOS, EOS):
            prev = tok
            continue
        if not out:
            out.append(tok)
        elif tok in _NO_SPACE_BEFORE or tok == "(" or prev in _NO_SPACE_AFTER:
            out.append(tok)
        else:
            out.append(" " + tok)
        prev = tok
    return "".join(out)
