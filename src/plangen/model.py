"""Tabular autoregressive token model.

The model keeps a logits table indexed by (context id, token id). A context
id hashes together the prompt's query-template key, the step index, and the
previous token id, so the conditional next-token distribution factorizes the
response probability exactly:

    log p(y | x) = sum_t log softmax(theta[ctx(x, t, y_{t-1})])[y_t]

The template key is recovered by parsing the SQL out of the prompt's INPUT
section; prompts that do not parse fall back to hashing the raw text. All
hashing is explicit 64-bit arithmetic, never Python's randomized hash().
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import extract_input_sql
from .errors import PlangenError
from .sql import parse_sql, template_of
from .tokenizer import Vocabulary, detokenize, tokenize

_MASK = (1 << 64) - 1

CHECKPOINT_FORMAT = "plangen-token-model/1"
DEFAULT_CONTEXTS = 4096


class ModelError(PlangenError):
    pass


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def prompt_key(prompt: str) -> int:
    """Stable conditioning key: the query template when recoverable."""
    try:
        spec = parse_sql(extract_input_sql(prompt))
        return fnv1a64("template:" + template_of(spec).key())
    except PlangenError:
        return fnv1a64("prompt:" + prompt)


@dataclass
class TokenModel:
    vocab: Vocabulary
    n_contexts: int
    theta: np.ndarray  # (n_contexts, |V|) float64 logits

    @classmethod
    def create(cls, vocab: Vocabulary, n_contexts: int = DEFAULT_CONTEXTS) -> "TokenModel":
        return cls(vocab, n_contexts, np.zeros((n_contexts, len(vocab)), dtype=np.float64))

    def copy(self) -> "TokenModel":
        return TokenModel(self.vocab, self.n_contexts, self.theta.copy())

    def context_id(self, template_key: int, position: int, prev_token: int) -> int:
        return _splitmix(template_key ^ _splitmix(position ^ _splitmix(prev_token))) % self.n_contexts

    def encode_response(self, prompt_or_key: str | int, response: str) -> "EncodedSequence":
        key = prompt_or_key if isinstance(prompt_or_key, int) else prompt_key(prompt_or_key)
        ids = tokenize(response, self.vocab, response=True)
        prev = [self.vocab.bos_id, *ids[:-1]]
        ctx = [self.context_id(key, t, p) for t, p in enumerate(prev)]
        return EncodedSequence(
            np.asarray(ctx, dtype=np.int64), np.asarray(ids, dtype=np.int64)
        )

    def log_prob(self, encoded: "EncodedSequence") -> float:
        rows = self.theta[encoded.contexts]
        return float(np.sum(_log_softmax(rows)[np.arange(len(encoded.ids)), encoded.ids]))

    def accumulate_nll_grad(self, encoded: "EncodedSequence", grad: np.ndarray, scale: float) -> float:
        """Add scale * d(-log p)/d theta into grad; returns -log p."""
        nll, delta = self.nll_and_row_grad(encoded)
        np.add.at(grad, encoded.contexts, scale * delta)
        return nll

    def nll_and_row_grad(self, encoded: "EncodedSequence") -> tuple[float, np.ndarray]:
        """-log p plus its per-step row gradient (softmax minus onehot)."""
        rows = self.theta[encoded.contexts]
        log_probs = _log_softmax(rows)
        picked = log_probs[np.arange(len(encoded.ids)), encoded.ids]
        delta = np.exp(log_probs)
        delta[np.arange(len(encoded.ids)), encoded.ids] -= 1.0
        return -float(np.sum(picked)), delta

    def greedy_decode(self, prompt: str, max_len: int) -> str:
        if max_len <= 0:
            raise ModelError(f"max_len must be positive, got {max_len}")
        key = prompt_key(prompt)
        out: list[int] = []
        prev = self.vocab.bos_id
        for position in range(max_len):
            row = self.theta[self.context_id(key, position, prev)]
            token = int(np.argmax(row))
            if token == self.vocab.eos_id:
                break
            out.append(token)
            prev = token
        return detokenize(self.vocab.decode(out))

    def sample_decode(self, prompt: str, max_len: int, temperature: float, seed: int) -> str:
        if max_len <= 0:
            raise ModelError(f"max_len must be positive, got {max_len}")
        if temperature <= 0:
            raise ModelError("temperature must be positive")
        rng = np.random.Generator(np.random.PCG64(seed))
        key = prompt_key(prompt)
        out: list[int] = []
        prev = self.vocab.bos_id
        for position in range(max_len):
            row = self.theta[self.context_id(key, position, prev)] / temperature
            probs = _softmax(row[np.newaxis, :])[0]
            token = int(rng.choice(len(probs), p=probs))
            if token == self.vocab.eos_id:
                break
            out.append(token)
            prev = token
        return detokenize(self.vocab.decode(out))


@dataclass(frozen=True)
class EncodedSequence:
    contexts: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def save_model(model: TokenModel, path: str | Path) -> None:
    """Write a checkpoint, storing only rows that left their zero init."""
    nonzero = np.flatnonzero(np.any(model.theta != 0.0, axis=1))
    rows = {
        str(int(ctx)): base64.b64encode(
            np.ascontiguousarray(model.theta[ctx], dtype="<f8").tobytes()
        ).decode("ascii")
        for ctx in nonzero
    }
    payload = {
        "format": CHECKPOINT_FORMAT,
        "n_contexts": model.n_contexts,
        "vocab": list(model.vocab.tokens),
        "dtype": "<f8",
        "rows": rows,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> TokenModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ModelError(f"checkpoint {path} is not a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ModelError(f"unsupported checkpoint format {payload.get('format')!r}")
    for key in ("n_contexts", "vocab", "rows"):
        if key not in payload:
            raise ModelError(f"checkpoint {path} has no {key!r}")
    vocab = Vocabulary(tuple(payload["vocab"]))
    n_contexts = payload["n_contexts"]
    theta = np.zeros((n_contexts, len(vocab)), dtype=np.float64)
    for key, blob in payload["rows"].items():
        ctx = int(key)
        if not 0 <= ctx < n_contexts:
            raise ModelError(f"checkpoint row {ctx} outside the context table")
        row = np.frombuffer(base64.b64decode(blob), dtype="<f8")
        if len(row) != len(vocab):
            raise ModelError(f"checkpoint row {ctx} does not match the vocabulary size")
        theta[ctx] = row
    if not np.isfinite(theta).all():
        raise ModelError("checkpoint contains non-finite parameters")
    return TokenModel(vocab, n_contexts, theta)
