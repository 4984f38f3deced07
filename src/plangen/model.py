"""Tabular autoregressive token model.

The model holds a row of logits over the vocabulary for each context id. A
context id hashes together the integer template key (``sql.template_key``)
the caller passes, the step index and the previous token id, so the
conditional next-token distribution factorizes the response probability
exactly:

    log p(y | x) = sum_t log softmax(logits[ctx(x, t, y_{t-1})])[y_t]

The model never reads a prompt. All hashing is explicit 64-bit arithmetic,
never Python's randomized hash().

Only the rows training touches are stored. ``rows`` is a slab of logit rows
and ``slots`` maps each context id to its slab row. Row 0 is all zeros and
shared by every context without a row of its own, so an untouched context
reads zero logits. A training run reserves a row for each context it can
update before its first step (``TokenModel.reserve``), and ``add_rows``
refuses a context without one, so nothing ever writes row 0. Memory grows
with the touched rows plus 4 bytes per context, not with ``n_contexts``
times the vocabulary; every read gathers ``rows[slots[ctx]]`` and sees the
floats a dense table would hold.

Decoding is greedy. An untouched context's logits are all zero, so its
argmax is token 0, <bos>: ``greedy_decode`` argmaxes only touched rows, and
reads a run of <bos> steps, whose contexts depend only on their positions,
a block at a time up to its first other token. Below ``_BOS_BLOCK`` the
key-free inner hash of a step is read from a table built once per
vocabulary size, so a step hashes once, and a decode gathers the first
block's rows at most once. Responses equal step-by-step decoding.
"""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PlangenError
from .jsonl import NUMBER, read_json, require_fields
from .tokenizer import Vocabulary, detokenize, tokenize

_MASK = (1 << 64) - 1

CHECKPOINT_FORMAT = "plangen-token-model/2"
DEFAULT_CONTEXTS = 4096
MAX_CONTEXTS = 2**31 - 1  # context ids are int32 in EncodedSequence and PackedSequences
_BOS_BLOCK = 256  # positions per block of after-<bos> steps


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


def _after_bos(start: int, end: int) -> np.ndarray:
    """Key-free inner hash of the steps after <bos> (id 0) at start..end-1."""
    return _splitmix(np.arange(start, end, dtype=np.uint64) ^ np.uint64(_splitmix(0)))


_AFTER_BOS = _after_bos(0, _BOS_BLOCK)  # the after-<bos> steps below _BOS_BLOCK


@functools.lru_cache(maxsize=8)
def _inner_hashes(width: int) -> list[list[int]]:
    """``_splitmix(position ^ _splitmix(prev))`` as Python ints, indexed
    [position][prev] for every position below _BOS_BLOCK and token id below
    ``width``: a step's context is then one splitmix of key ^ this."""
    positions = np.arange(_BOS_BLOCK, dtype=np.uint64)[:, np.newaxis]
    return _splitmix(positions ^ _splitmix(np.arange(width, dtype=np.uint64))).tolist()


@dataclass
class TokenModel:
    vocab: Vocabulary
    n_contexts: int
    slots: np.ndarray  # (n_contexts,) int32: each context's row of ``rows``, 0 if it has none
    rows: np.ndarray  # (touched + 1, |V|) float64 logits; row 0 is the shared zero row

    @classmethod
    def create(cls, vocab: Vocabulary, n_contexts: int = DEFAULT_CONTEXTS) -> "TokenModel":
        if type(n_contexts) is not int or not 1 <= n_contexts <= MAX_CONTEXTS:  # nor a bool
            raise ModelError(
                f"n_contexts must be an integer from 1 to {MAX_CONTEXTS}, got {n_contexts!r}"
            )
        slots = np.zeros(n_contexts, dtype=np.int32)
        _inner_hashes(len(vocab))  # built here, so no decode pays for it
        return cls(vocab, n_contexts, slots, np.zeros((1, len(vocab))))

    @classmethod
    def from_rows(cls, vocab: Vocabulary, n_contexts: int, contexts, rows) -> "TokenModel":
        """The model whose logits are ``rows[i]`` at ``contexts[i]`` and zero elsewhere."""
        model = cls.create(vocab, n_contexts)
        model.reserve(contexts)
        model.rows[model.slots[contexts]] = rows
        return model

    def copy(self) -> "TokenModel":
        return TokenModel(self.vocab, self.n_contexts, self.slots.copy(), self.rows.copy())

    def reserve(self, contexts) -> None:
        """Give each of ``contexts`` that has no row a zero row of its own."""
        contexts = np.asarray(contexts, dtype=np.intp)
        fresh = contexts[self.slots[contexts] == 0]
        if not len(fresh):
            return
        # A repeated context keeps the number of one of its entries, so the
        # entries whose number stuck are one per context, found without a sort.
        numbers = np.arange(len(self.rows), len(self.rows) + len(fresh), dtype=np.int32)
        self.slots[fresh] = numbers
        fresh = fresh[self.slots[fresh] == numbers]
        self.slots[fresh] = numbers[: len(fresh)]
        self.rows = np.concatenate([self.rows, np.zeros((len(fresh), self.rows.shape[1]))])

    def logits(self, contexts):
        """The logit rows of ``contexts``: one id, or an array of ids."""
        return self.rows[self.slots[contexts]]

    def context_id(self, template_key: int, position, prev_token):
        """Context of a step; ``position`` and ``prev_token`` may also be
        equal-length uint64 arrays, giving the contexts of every step."""
        return _splitmix(template_key ^ _splitmix(position ^ _splitmix(prev_token))) % self.n_contexts

    def encode_response(self, key: int, response: str) -> "EncodedSequence":
        ids = tokenize(response, self.vocab, response=True)
        prev = np.array([self.vocab.bos_id, *ids[:-1]], dtype=np.uint64)
        ctx = self.context_id(key, np.arange(len(ids), dtype=np.uint64), prev)
        return EncodedSequence(ctx.astype(np.int32), np.asarray(ids, dtype=np.int32))

    def log_prob(self, encoded: "EncodedSequence") -> float:
        return float(self.log_probs(PackedSequences.pack([encoded]))[0])

    def log_probs(self, packed: "PackedSequences") -> np.ndarray:
        """log p of every packed sequence: each distinct context's row max and
        log-sum-exp is computed once, a token's log-prob is (logits[c, y] -
        max_c) - lse_c, and each equal-length group is summed along axis 1."""
        row_slots = self.slots[packed.rows]
        row_max, lse = np.empty(len(packed.rows)), np.empty(len(packed.rows))
        for first in range(0, len(packed.rows), 512):  # small blocks keep the peak memory low
            span = slice(first, first + 512)
            block = self.rows[row_slots[span]]
            row_max[span] = block.max(axis=1)
            block -= row_max[span, np.newaxis]
            lse[span] = np.log(np.exp(block, out=block).sum(axis=1))
        out = np.empty(len(packed))
        for length, seqs in packed.groups:
            first = packed.starts[seqs[0]]
            span = slice(first, first + len(seqs) * length)
            slots = packed.slots[span]
            token = self.rows[row_slots[slots], packed.ids[span]]
            token -= row_max[slots]
            token -= lse[slots]
            out[seqs] = token.reshape(-1, length).sum(axis=1)
        return out

    def row_grads(self, packed: "PackedSequences", seqs: np.ndarray, nll: bool = False) -> tuple:
        """(log p of each of the packed sequences ``seqs``, the contexts of
        their tokens in order, d log p / d row of each token) from one gather
        and one softmax; with ``nll``, d(-log p) / d row. Stage two takes the
        softmax as exp / row sum, stage one as exp(log-softmax): they differ
        in the last bit, and each keeps its own so checkpoints do not move."""
        lengths = packed.lengths[seqs]
        ends = np.cumsum(lengths)
        tokens = np.arange(ends[-1]) + np.repeat(packed.starts[seqs] - (ends - lengths), lengths)
        contexts = packed.rows[packed.slots[tokens]]
        at = (np.arange(len(tokens)), packed.ids[tokens])
        grad = self.logits(contexts)  # worked on in place to keep the peak small
        grad -= grad.max(axis=1, keepdims=True)
        total = np.exp(grad).sum(axis=1, keepdims=True)
        if nll:
            grad -= np.log(total)
            picked = grad[at]
            np.exp(grad, out=grad)
            grad[at] -= 1.0
        else:
            picked = grad[at] - np.log(total[:, 0])
            np.exp(grad, out=grad)
            grad /= total
            np.negative(grad, out=grad)
            grad[at] += 1.0
        ends = ends.tolist()
        log_p = np.array([np.add.reduce(picked[a:b]) for a, b in zip([0, *ends], ends)])
        return log_p, contexts, grad

    def greedy_decode(self, key: int, max_len: int) -> str:
        """Argmax decoding up to ``max_len`` steps or <eos>. A run of <bos> is
        read up to _BOS_BLOCK positions at a time and appends one <bos>:
        detokenize resets its spacing on a run once. The rows of the block
        below _BOS_BLOCK are gathered at the first run and sliced by later
        ones. Other steps hash one context each, through ``_inner_hashes``
        below _BOS_BLOCK and through ``context_id`` past it."""
        if max_len <= 0:
            raise ModelError(f"max_len must be positive, got {max_len}")
        bos, eos, n_contexts = self.vocab.bos_id, self.vocab.eos_id, self.n_contexts
        rows, slots, inner = self.rows, self.slots, _inner_hashes(len(self.vocab))
        first = None  # slots of the after-<bos> steps below min(_BOS_BLOCK, max_len)
        out: list[int] = []
        position, prev = 0, bos
        while position < max_len:
            if out and prev == bos:  # a run of <bos>, after its first step
                if position < _BOS_BLOCK:
                    end = min(_BOS_BLOCK, max_len)
                    if first is None:
                        first = slots[(_splitmix(_AFTER_BOS[:end] ^ key) % n_contexts).astype(np.intp)]
                    at = first[position:]
                else:
                    end = min(position + _BOS_BLOCK, max_len)
                    at = slots[(_splitmix(_after_bos(position, end) ^ key) % n_contexts).astype(np.intp)]
                touched = at.nonzero()[0]
                tokens = rows[at[touched]].argmax(axis=1)
                ends = (tokens != bos).nonzero()[0]
                if not len(ends):  # <bos> up to the block's end
                    position = end
                    continue
                position += int(touched[ends[0]])
                token = int(tokens[ends[0]])
            else:
                if position < _BOS_BLOCK:  # _splitmix(key ^ inner), inlined
                    x = ((key ^ inner[position][prev]) + 0x9E3779B97F4A7C15) & _MASK
                    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
                    slot = slots.item((x ^ (x >> 31)) % n_contexts)
                else:
                    slot = slots.item(self.context_id(key, position, prev))
                token = int(rows[slot].argmax()) if slot else bos
            if token == eos:
                break
            out.append(token)  # a <bos> here starts a run
            prev = token
            position += 1
        return detokenize(self.vocab.decode(out))


@dataclass(frozen=True)
class EncodedSequence:
    contexts: np.ndarray
    ids: np.ndarray


@dataclass(frozen=True)
class PackedSequences:
    """Encoded sequences in compact arrays, tokens grouped by sequence length
    so each group is one block of equal-length rows. A token names its
    context by its slot in ``rows``, the distinct contexts."""

    rows: np.ndarray  # (n_rows,) distinct context ids, ascending
    slots: np.ndarray  # (n_tokens,) index into rows
    ids: np.ndarray  # (n_tokens,) target token ids
    starts: np.ndarray  # (n_seqs,) first token of each sequence
    lengths: np.ndarray  # (n_seqs,)
    groups: tuple[tuple[int, np.ndarray], ...]  # (length, its sequences)

    @classmethod
    def pack(cls, seqs: Sequence[EncodedSequence]) -> "PackedSequences":
        # Counting and lookup tables, not sorts: the first np.unique call
        # alone adds over a megabyte to a run's peak memory.
        lengths = np.array([len(seq.ids) for seq in seqs], dtype=np.int32)
        groups = tuple((int(n), np.flatnonzero(lengths == n)) for n in np.flatnonzero(np.bincount(lengths)))
        order = np.concatenate([members for _, members in groups])
        sizes = lengths[order]
        starts = np.empty(len(seqs), dtype=np.int64)
        starts[order] = np.cumsum(sizes) - sizes
        contexts = np.concatenate([seqs[i].contexts for i in order])
        slot_of = np.zeros(contexts.max() + 1, dtype=np.int32)
        slot_of[contexts] = 1
        rows = np.flatnonzero(slot_of).astype(np.int32)
        slot_of[rows] = np.arange(len(rows), dtype=np.int32)
        slots = slot_of[contexts]
        ids = np.concatenate([seqs[i].ids for i in order])
        return cls(rows, slots, ids, starts, lengths, groups)

    def __len__(self) -> int:
        return len(self.lengths)


def add_rows(model: TokenModel, contexts: np.ndarray, rows: np.ndarray) -> None:
    """The logits of context c += row for every (c, row) in order, as
    np.add.at over the rows would, but as one several times faster flat
    np.add.at onto the slab. Every context needs a row (``reserve``)."""
    slab = model.rows
    if not slab.flags.c_contiguous:
        raise ModelError("add_rows needs a C-contiguous slab")
    at = model.slots[contexts]
    if not at.all():
        raise ModelError(f"context {contexts[np.argmin(at)]} has no row; reserve one first")
    width = slab.shape[1]
    flat = np.add.outer(at.astype(np.intp) * width, np.arange(width)).ravel()
    np.add.at(slab.reshape(-1), flat, rows.ravel())


def save_model(model: TokenModel, path: str | Path) -> None:
    """Write a checkpoint: the contexts whose rows left their zero init,
    ascending, and those rows as one little-endian float64 blob."""
    contexts = np.flatnonzero(model.rows.any(axis=1)[model.slots])
    payload = {
        "format": CHECKPOINT_FORMAT,
        "n_contexts": model.n_contexts,
        "vocab": list(model.vocab.tokens),
        "rows": contexts.tolist(),
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
    if not all(isinstance(token, str) for token in payload["vocab"]):
        raise ModelError("vocab holds a token that is not a string")
    vocab, contexts = Vocabulary(tuple(payload["vocab"])), payload["rows"]
    if not set(map(type, contexts)) <= {int}:  # a bool is not a context
        raise ModelError("rows holds a context that is not an integer")
    if contexts and not 0 <= min(contexts) <= max(contexts) < payload["n_contexts"]:
        raise ModelError("rows holds a context outside the context table")
    if (np.diff(contexts) <= 0).any():  # a context past int64 means an n_contexts create refuses
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
    return TokenModel.from_rows(vocab, payload["n_contexts"], contexts, logits)
