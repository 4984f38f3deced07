"""Tabular autoregressive token model.

The model holds a row of logits over the vocabulary for each context. A
context is one splitmix64 of ``key ^ (position << 32) ^ prev``: the integer
template key (``sql.template_key``) the caller passes, the step index and the
previous token id, so the conditional next-token distribution factorizes the
response probability exactly:

    log p(y | x) = sum_t log softmax(logits[ctx(x, t, y_{t-1})])[y_t]

The model never reads a prompt. All hashing is explicit 64-bit arithmetic,
never Python's randomized hash(). splitmix64 is a bijection on 64-bit words,
so under one key two steps whose position and previous token are both below
2**32 never share a row; steps of different keys share one only by a 64-bit
hash collision.

Only the rows training touches are stored. ``rows`` is a slab of logit rows
and ``index`` maps each touched context to its slab row. Row 0 is all zeros
and stands for every context without a row of its own, so an untouched
context reads zero logits. A training run reserves a row for each context it
can update before its first step (``TokenModel.reserve``), which also gives
the slab row of each, once; ``add_rows`` then works on slab rows and refuses
row 0. Memory grows with the touched rows only.

Decoding is greedy and stops at <eos> or <bos>. An untouched context's
logits are all zero, so its argmax is token 0, <bos>. Training never sees
<bos> as the previous token after position 0, since no response may hold it
(``tokenizer.check_response``), so every step after a <bos> reads no row and
emits <bos> again, which adds nothing to the text.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PlangenError
from .jsonl import NUMBER, read_json, require_fields
from .tokenizer import Vocabulary, check_response, detokenize, tokenize

_MASK = (1 << 64) - 1

CHECKPOINT_FORMAT = "plangen-token-model/4"
CONTEXT_SPACE = 2**64  # a context is a full 64-bit hash


class ModelError(PlangenError):
    pass


def _splitmix(x):
    """splitmix64 of a Python int, or of each entry of a numpy uint64 array."""
    if isinstance(x, np.ndarray):  # wraps modulo 2**64 by itself: no masks, half the cost
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def context_id(template_key: int, position, prev_token):
    """Context of a step; ``position`` and ``prev_token`` may also be
    equal-length uint64 arrays, giving the contexts of every step. The int
    path's first masked add drops the bits above 64, as numpy wraps."""
    return _splitmix(template_key ^ (position << 32) ^ prev_token)


@dataclass
class TokenModel:
    vocab: Vocabulary
    index: dict[int, int]  # each touched context -> its row of ``rows``
    rows: np.ndarray  # (touched + 1, |V|) float64 logits; row 0 is the shared zero row

    @classmethod
    def create(cls, vocab: Vocabulary) -> "TokenModel":
        return cls(vocab, {}, np.zeros((1, len(vocab))))

    @classmethod
    def from_rows(cls, vocab: Vocabulary, contexts, rows) -> "TokenModel":
        """The model whose logits are ``rows[i]`` at ``contexts[i]`` and zero elsewhere."""
        model = cls.create(vocab)
        at = model.reserve(contexts)  # before reading model.rows, which it grows
        model.rows[at] = rows
        return model

    def copy(self) -> "TokenModel":
        return TokenModel(self.vocab, dict(self.index), self.rows.copy())

    def reserve(self, contexts) -> np.ndarray:
        """Give each of ``contexts`` that has no row a zero row of its own;
        returns the slab row of each."""
        index = self.index
        at = [index.setdefault(ctx, len(index) + 1) for ctx in np.asarray(contexts, dtype=np.uint64).tolist()]
        if len(index) >= len(self.rows):
            fresh = np.zeros((len(index) + 1 - len(self.rows), self.rows.shape[1]))
            self.rows = np.concatenate([self.rows, fresh])
        return np.array(at, dtype=np.intp)

    def resolve(self, contexts) -> np.ndarray:
        """The slab row of each of ``contexts``, 0 for one without a row."""
        get = self.index.get
        return np.array([get(ctx, 0) for ctx in np.asarray(contexts, dtype=np.uint64).tolist()], dtype=np.intp)

    def logits(self, contexts):
        """The logit rows of ``contexts``: one id, or an array of ids."""
        contexts = np.asarray(contexts, dtype=np.uint64)
        return self.rows[self.resolve(contexts.ravel()).reshape(contexts.shape)]

    def encode_response(self, key: int, response: str) -> "EncodedSequence":
        ids = tokenize(check_response(response), self.vocab, response=True)
        prev = np.array([self.vocab.bos_id, *ids[:-1]], dtype=np.uint64)
        ctx = context_id(key, np.arange(len(ids), dtype=np.uint64), prev)
        return EncodedSequence(ctx, np.asarray(ids, dtype=np.int32))

    def log_prob(self, encoded: "EncodedSequence") -> float:
        return float(self.log_probs(PackedSequences.pack([encoded]))[0])

    def log_probs(self, packed: "PackedSequences", at: np.ndarray | None = None) -> np.ndarray:
        """log p of every packed sequence, ``at`` holding the slab row of each
        of packed.contexts (resolved here if not given): each distinct
        context's row max and log-sum-exp is computed once, a token's log-prob
        is (logits[c, y] - max_c) - lse_c, and each equal-length group is
        summed along axis 1."""
        if at is None:
            at = self.resolve(packed.contexts)
        row_max, lse = np.empty(len(at)), np.empty(len(at))
        for first in range(0, len(at), 512):  # small blocks keep the peak memory low
            span = slice(first, first + 512)
            block = self.rows[at[span]]
            row_max[span] = block.max(axis=1)
            block -= row_max[span, np.newaxis]
            lse[span] = np.log(np.exp(block, out=block).sum(axis=1))
        out = np.empty(len(packed))
        for length, seqs in packed.groups:
            first = packed.starts[seqs[0]]
            span = slice(first, first + len(seqs) * length)
            of = packed.context_of[span]
            token = self.rows[at[of], packed.ids[span]]
            token -= row_max[of]
            token -= lse[of]
            out[seqs] = token.reshape(-1, length).sum(axis=1)
        return out

    def row_grads(
        self, packed: "PackedSequences", seqs: np.ndarray, at: np.ndarray | None = None, nll: bool = False
    ) -> tuple:
        """(log p of each of the packed sequences ``seqs``, the slab rows of
        their tokens in order, d log p / d row of each token) from one gather
        and one softmax, ``at`` as in ``log_probs``; with ``nll``,
        d(-log p) / d row. Stage two takes the softmax as exp / row sum, stage
        one as exp(log-softmax): they differ in the last bit, and each keeps
        its own so checkpoints do not move."""
        if at is None:
            at = self.resolve(packed.contexts)
        lengths = packed.lengths[seqs]
        ends = np.cumsum(lengths)
        tokens = np.arange(ends[-1]) + np.repeat(packed.starts[seqs] - (ends - lengths), lengths)
        slab_rows = at[packed.context_of[tokens]]
        target = (np.arange(len(tokens)), packed.ids[tokens])
        grad = self.rows[slab_rows]  # worked on in place to keep the peak small
        grad -= grad.max(axis=1, keepdims=True)
        total = np.exp(grad).sum(axis=1, keepdims=True)
        if nll:
            grad -= np.log(total)
            picked = grad[target]
            np.exp(grad, out=grad)
            grad[target] -= 1.0
        else:
            picked = grad[target] - np.log(total[:, 0])
            np.exp(grad, out=grad)
            grad /= total
            np.negative(grad, out=grad)
            grad[target] += 1.0
        ends = ends.tolist()
        log_p = np.array([np.add.reduce(picked[a:b]) for a, b in zip([0, *ends], ends)])
        return log_p, slab_rows, grad

    def greedy_decode(self, key: int, max_len: int) -> str:
        """Argmax decoding up to ``max_len`` steps, <eos> or <bos>. A step
        whose context has no row reads zero logits, whose argmax is <bos>, so
        it ends the decode without an argmax: an untrained template decodes
        in one step. Each step hashes its context once, ``context_id``
        inlined."""
        if max_len <= 0:
            raise ModelError(f"max_len must be positive, got {max_len}")
        bos, eos = self.vocab.bos_id, self.vocab.eos_id
        rows, index = self.rows, self.index
        out: list[int] = []
        prev = bos
        for position in range(max_len):
            x = ((key ^ (position << 32) ^ prev) + 0x9E3779B97F4A7C15) & _MASK
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            row = index.get(x ^ (x >> 31))
            if row is None:
                break
            token = int(rows[row].argmax())
            if token == eos or token == bos:
                break
            out.append(token)
            prev = token
        return detokenize(self.vocab.decode(out))


@dataclass(frozen=True)
class EncodedSequence:
    contexts: np.ndarray  # (n_tokens,) uint64
    ids: np.ndarray


@dataclass(frozen=True)
class PackedSequences:
    """Encoded sequences in compact arrays, tokens grouped by sequence length
    so each group is one block of equal-length rows. A token names its
    context by its place in ``contexts``, the distinct contexts."""

    contexts: np.ndarray  # (n_distinct,) distinct uint64 contexts, ascending
    context_of: np.ndarray  # (n_tokens,) index into contexts
    ids: np.ndarray  # (n_tokens,) target token ids
    starts: np.ndarray  # (n_seqs,) first token of each sequence
    lengths: np.ndarray  # (n_seqs,)
    groups: tuple[tuple[int, np.ndarray], ...]  # (length, its sequences)

    @classmethod
    def pack(cls, seqs: Sequence[EncodedSequence]) -> "PackedSequences":
        lengths = np.array([len(seq.ids) for seq in seqs], dtype=np.int32)
        groups = tuple((int(n), np.flatnonzero(lengths == n)) for n in np.flatnonzero(np.bincount(lengths)))
        order = np.concatenate([members for _, members in groups])
        sizes = lengths[order]
        starts = np.empty(len(seqs), dtype=np.int64)
        starts[order] = np.cumsum(sizes) - sizes
        contexts, context_of = np.unique(
            np.concatenate([seqs[i].contexts for i in order]), return_inverse=True
        )
        ids = np.concatenate([seqs[i].ids for i in order])
        return cls(contexts, context_of.ravel(), ids, starts, lengths, groups)

    def __len__(self) -> int:
        return len(self.lengths)


def add_rows(model: TokenModel, at: np.ndarray, rows: np.ndarray) -> None:
    """Slab row at[i] += rows[i] for every i in order, as np.add.at over the
    rows would, but as one several times faster flat np.add.at onto the
    slab. Row 0, the shared zero row, is refused: reserve a row first."""
    slab = model.rows
    if not slab.flags.c_contiguous:
        raise ModelError("add_rows needs a C-contiguous slab")
    if not at.all():
        raise ModelError("an update reaches the shared zero row; reserve a row first")
    width = slab.shape[1]
    flat = np.add.outer(at * width, np.arange(width)).ravel()
    np.add.at(slab.reshape(-1), flat, rows.ravel())


def save_model(model: TokenModel, path: str | Path) -> None:
    """Write a checkpoint: the contexts whose rows left their zero init,
    ascending, and those rows as one little-endian float64 blob."""
    nonzero = model.rows.any(axis=1)
    contexts = sorted(ctx for ctx, row in model.index.items() if nonzero[row])
    payload = {
        "format": CHECKPOINT_FORMAT,
        "n_contexts": CONTEXT_SPACE,
        "vocab": list(model.vocab.tokens),
        "rows": contexts,
        "logits": base64.b64encode(model.logits(contexts).astype("<f8", copy=False)).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as out:  # streamed, never one string
        json.dump(payload, out, sort_keys=True)


def load_model(path: str | Path) -> TokenModel:
    return read_json(path, convert=_from_checkpoint)


def _from_checkpoint(payload: dict) -> TokenModel:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ModelError(f"unsupported checkpoint format {payload.get('format')!r}")
    require_fields(payload, {"n_contexts": NUMBER, "vocab": list, "rows": list, "logits": str})
    if type(payload["n_contexts"]) is not int or payload["n_contexts"] != CONTEXT_SPACE:
        raise ModelError(f"n_contexts must be {CONTEXT_SPACE}, the number of 64-bit contexts")
    if not all(isinstance(token, str) for token in payload["vocab"]):
        raise ModelError("vocab holds a token that is not a string")
    vocab, contexts = Vocabulary(tuple(payload["vocab"])), payload["rows"]
    if not set(map(type, contexts)) <= {int}:  # a bool is not a context
        raise ModelError("rows holds a context that is not an integer")
    if contexts and not 0 <= min(contexts) <= max(contexts) < CONTEXT_SPACE:
        raise ModelError("rows holds a context outside [0, 2**64)")
    contexts = np.array(contexts, dtype=np.uint64)
    if (contexts[1:] <= contexts[:-1]).any():
        raise ModelError("rows are not strictly ascending")
    try:
        blob = base64.b64decode(payload["logits"], validate=True)
    except ValueError:  # a non-base64 character, bad padding or non-ASCII text
        raise ModelError("logits is not base64") from None
    if len(blob) != 8 * len(contexts) * len(vocab):
        raise ModelError(f"logits hold {len(blob)} bytes, not {len(contexts)} x {len(vocab)} float64 values")
    logits = np.frombuffer(blob, dtype="<f8").reshape(len(contexts), len(vocab))
    if not np.isfinite(logits).all():
        raise ModelError("non-finite parameters")
    return TokenModel.from_rows(vocab, contexts, logits)
