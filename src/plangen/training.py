"""Training objectives and loops for the token model.

Stage one minimizes the mean negative log-likelihood of (template key,
response) pairs. Stage two refines the stage-one model on preference triples
with the logistic preference loss

    u = beta * [ (log pi(y_w|x) - log ref(y_w|x))
               - (log pi(y_l|x) - log ref(y_l|x)) ]
    loss = -log sigmoid(u)

against the frozen stage-one model as the reference. Both loops are plain
minibatch gradient descent, deterministic given their seeds. Stage one
reshuffles every epoch; stage two shuffles once and then cycles.

Both loops, the objectives and both gradient checks run on one packed kernel
(model.py): whole-set log-probs come from each distinct context's softmax row,
and a step does one gather, one softmax and one np.add.at over its batch's
rows, in the order a sequence-at-a-time loop adds them. Each row's softmax is
computed on its own and each log p sums exactly its own tokens, so parameters,
traces and checkpoints are bit for bit those of that loop (kept in the tests).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import PlangenError
from .model import PackedSequences, TokenModel, add_rows
from .tokenizer import build_vocab

QIT_LEARNING_RATE = 2e-4
QDPO_LEARNING_RATE = 5e-6
QIT_STEPS = 600
QDPO_STEPS = 200
DEFAULT_BATCH_SIZE = 8
DEFAULT_BETA = 0.1


class TrainingError(PlangenError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int = DEFAULT_BATCH_SIZE
    beta: float = DEFAULT_BETA
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError(f"learning rate must be positive, got {self.learning_rate}")
        if self.steps < 0:
            raise TrainingError(f"step count must be non-negative, got {self.steps}")
        if self.batch_size <= 0:
            raise TrainingError(f"batch size must be positive, got {self.batch_size}")
        if self.beta <= 0:
            raise TrainingError(f"beta must be positive, got {self.beta}")


# --- objectives ---


def sequence_log_prob(model: TokenModel, key: int, response: str) -> float:
    """log p(y | x) summed over response tokens (EOS included)."""
    return model.log_prob(model.encode_response(key, response))


def sft_loss(model: TokenModel, batch: Sequence[tuple[int, str]]) -> float:
    """Mean negative log-likelihood over (key, response) pairs."""
    if not batch:
        raise TrainingError("empty batch")
    packed = _encode_pairs(model, batch)
    return _sft_loss_grad(model, packed, np.arange(len(batch)))[0]


def dpo_reward_diff(
    policy: TokenModel, reference: TokenModel, key: int, chosen: str, rejected: str, beta: float
) -> float:
    """Reference-normalized, beta-scaled log-likelihood-ratio difference."""
    encoded = encode_triples(reference, [(key, chosen, rejected)])
    log_p = policy.log_probs(encoded.sequences)
    return _rewards(log_p, encoded.reference, beta)[0]


def dpo_loss(
    policy: TokenModel, reference: TokenModel, key: int, chosen: str, rejected: str, beta: float
) -> float:
    return _softplus(-dpo_reward_diff(policy, reference, key, chosen, rejected, beta))


def _softplus(x: float) -> float:
    # log(1 + exp(x)) without overflow
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# --- stage one: instruction tuning ---


@dataclass(frozen=True)
class TraceRow:
    step: int
    loss: float
    margin: float | None = None


def train_qit(
    model: TokenModel, pairs: Sequence[tuple[int, str]], config: TrainConfig
) -> tuple[TokenModel, list[TraceRow]]:
    """Minibatch gradient descent on the mean NLL; reshuffles every epoch."""
    if not pairs:
        raise TrainingError("empty training dataset")
    trained = model.copy()
    packed = _encode_pairs(trained, pairs)
    at = trained.reserve(packed.contexts)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    epochs = (rng.permutation(len(pairs)) for _ in itertools.count())  # a shuffle per epoch
    size = config.batch_size
    batches = (order[i:i + size] for order in epochs for i in range(0, len(order), size))
    trace: list[TraceRow] = []
    for step, batch in zip(range(config.steps), batches):
        # Gradients are read off the pre-update parameters for the whole
        # batch, then applied to the rows of its contexts only.
        loss, slab_rows, delta = _sft_loss_grad(trained, packed, batch, at)
        delta *= -(config.learning_rate / len(batch))
        add_rows(trained, slab_rows, delta)
        trace.append(TraceRow(step=step, loss=loss))
    return trained, trace


def _sft_loss_grad(model: TokenModel, packed: PackedSequences, batch: np.ndarray, at=None) -> tuple:
    """(mean NLL of the sequences ``batch``, their slab rows, rows of d(summed NLL)/d logits)."""
    log_p, slab_rows, delta = model.row_grads(packed, batch, at, nll=True)
    loss = 0.0
    for lp in log_p.tolist():
        loss -= lp
    return loss / len(batch), slab_rows, delta


def _encode_pairs(model: TokenModel, pairs: Sequence[tuple[int, str]]) -> PackedSequences:
    if not pairs:
        raise TrainingError("nothing to encode")
    encoded = {pair: model.encode_response(*pair) for pair in dict.fromkeys(pairs)}
    return PackedSequences.pack([encoded[pair] for pair in pairs])


# --- stage two: preference optimization ---


@dataclass(frozen=True)
class EncodedTriples:
    """Preference triples packed as sequences chosen 0, rejected 0, chosen 1,
    ..., with their log-probs under the frozen model that encoded them."""

    sequences: PackedSequences
    reference: np.ndarray


def encode_triples(
    reference: TokenModel, triples: Sequence[tuple[int, str, str]]
) -> EncodedTriples:
    pairs = [(key, response) for key, *responses in triples for response in responses]
    packed = _encode_pairs(reference, pairs)
    if np.any(packed.lengths <= 1):
        raise TrainingError("preference responses must tokenize to at least one token")
    return EncodedTriples(packed, reference.log_probs(packed))


def _dpo_loss_grad(policy: TokenModel, encoded: EncodedTriples, batch, beta: float, at=None) -> tuple:
    """(mean preference loss over the triples ``batch``, slab rows, rows of d(loss)/d logits)."""
    seqs = (2 * np.asarray(batch)[:, np.newaxis] + [0, 1]).ravel()
    log_p, slab_rows, grad = policy.row_grads(encoded.sequences, seqs, at)
    loss, weights = 0.0, []
    for u in _rewards(log_p, encoded.reference[seqs], beta):
        loss += _softplus(-u)
        # dL/dlogits = -sigmoid(-u) * beta * (dlogp(y_w) - dlogp(y_l))
        scale = -_sigmoid(-u) * beta / len(batch)
        weights += [scale, -scale]
    grad *= np.repeat(weights, encoded.sequences.lengths[seqs])[:, np.newaxis]
    return loss / len(batch), slab_rows, grad


def _rewards(log_p: np.ndarray, reference: np.ndarray, beta: float) -> list[float]:
    """u of each (chosen, rejected) pair of sequences."""
    lp, ref = log_p.tolist(), reference.tolist()
    return [beta * ((lp[k] - ref[k]) - (lp[k + 1] - ref[k + 1])) for k in range(0, len(lp), 2)]


def train_qdpo(
    policy_init: TokenModel, triples: Sequence[tuple[int, str, str]], config: TrainConfig
) -> tuple[TokenModel, list[TraceRow]]:
    """Preference optimization against the frozen initial model.

    The dataset is shuffled once; steps walk consecutive batches, wrapping.
    The reference model is never modified.
    """
    if not triples:
        raise TrainingError("empty preference dataset")
    encoded = encode_triples(policy_init, triples)
    policy = policy_init.copy()
    at = policy.reserve(encoded.sequences.contexts)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    order = rng.permutation(len(triples))
    size = min(config.batch_size, len(triples))
    trace: list[TraceRow] = []
    for step in range(config.steps):
        batch = order.take(range(step * size, (step + 1) * size), mode="wrap")
        loss, slab_rows, rows = _dpo_loss_grad(policy, encoded, batch, config.beta, at)
        rows *= -config.learning_rate
        add_rows(policy, slab_rows, rows)
        trace.append(TraceRow(step=step, loss=loss, margin=mean_margin(policy, encoded, at)))
    return policy, trace


def mean_margin(policy: TokenModel, encoded: EncodedTriples, at: np.ndarray | None = None) -> float:
    """Mean margin over the triples, ``at`` holding the policy's slab row
    of each of encoded.sequences.contexts (resolved if not given)."""
    margins = triple_margins(policy, encoded, at)
    total = 0.0
    for margin in margins:
        total += margin
    return total / len(margins)


def triple_margins(policy: TokenModel, encoded: EncodedTriples, at: np.ndarray | None = None) -> list[float]:
    log_p = policy.log_probs(encoded.sequences, at)
    return (log_p[0::2] - log_p[1::2]).tolist()


# --- gradient verification ---


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    checked: int
    passed: bool


def grad_check(
    terms: Callable[[TokenModel], tuple], model: TokenModel, candidates: Sequence[int],
    h: float = 1e-5, tolerance: float = 1e-5, n_params: int = 200, seed: int = 0,
) -> GradCheckReport:
    """Central finite differences of the loss against the analytic gradient.

    ``terms(model)`` gives the loss and its gradient as rows with their slab
    rows in ``model``, as a training step applies it. Samples parameter
    entries from the rows of the candidate contexts (so the check is not
    vacuous) and reports the worst relative error.
    """
    if h <= 0:
        raise TrainingError("finite-difference step must be positive")
    if n_params < 1:
        raise TrainingError(f"n_params must be at least 1, got {n_params}: nothing would be checked")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_cols = len(model.vocab)
    entries = set()
    while len(entries) < min(n_params, len(candidates) * n_cols):
        entries.add((candidates[rng.integers(len(candidates))], int(rng.integers(n_cols))))
    probe = model.copy()
    probe.reserve(candidates)
    _, slab_rows, rows = terms(probe)
    analytic = TokenModel(probe.vocab, probe.index, np.zeros_like(probe.rows))
    add_rows(analytic, slab_rows, rows)
    max_rel = 0.0
    work = probe.rows
    for ctx, c in sorted(entries):
        row = probe.index[ctx]
        expected = analytic.rows[row, c]
        original = work[row, c]
        work[row, c] = original + h
        up = terms(probe)[0]
        work[row, c] = original - h
        down = terms(probe)[0]
        work[row, c] = original
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(expected))
        # Entries below the finite-difference noise floor count as agreement
        # (shared chosen/rejected prefixes cancel to an exact analytic zero).
        if denom >= 1e-8:
            max_rel = max(max_rel, abs(numeric - expected) / denom)
    return GradCheckReport(max_rel_error=max_rel, checked=len(entries), passed=max_rel <= tolerance)


def sft_grad_check(
    model: TokenModel, pairs: Sequence[tuple[int, str]],
    h: float = 1e-5, tolerance: float = 1e-5, n_params: int = 200, seed: int = 0,
) -> GradCheckReport:
    packed = _encode_pairs(model, pairs)
    everything = np.arange(len(pairs))

    def terms(probe: TokenModel):
        loss, slab_rows, delta = _sft_loss_grad(probe, packed, everything)
        return loss, slab_rows, delta / len(pairs)

    return grad_check(terms, model, packed.contexts.tolist(), h, tolerance, n_params, seed)


def dpo_grad_check(
    policy: TokenModel, reference: TokenModel, triples: Sequence[tuple[int, str, str]], beta: float,
    h: float = 1e-5, tolerance: float = 1e-5, n_params: int = 200, seed: int = 0,
) -> GradCheckReport:
    if policy.vocab != reference.vocab:
        raise TrainingError("policy and reference differ in vocabulary")
    encoded = encode_triples(reference, triples)
    return grad_check(
        lambda probe: _dpo_loss_grad(probe, encoded, range(len(triples)), beta),
        policy, encoded.sequences.contexts.tolist(), h, tolerance, n_params, seed,
    )


# --- dataset-level helpers ---


def fit_qit_from_records(
    pairs: Sequence[tuple[int, str]], config: TrainConfig
) -> tuple[TokenModel, list[TraceRow]]:
    """Build a fresh model (vocabulary from the responses) and train it."""
    vocab = build_vocab(response for _, response in pairs)
    return train_qit(TokenModel.create(vocab), pairs, config)


def write_trace(trace: Sequence[TraceRow], path: str | Path) -> None:
    lines = ["step,loss,margin"]
    for row in trace:
        margin = "" if row.margin is None else repr(row.margin)
        lines.append(f"{row.step},{row.loss!r},{margin}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
