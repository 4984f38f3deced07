import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plangen.catalog import load_catalog, serialize_stats
from plangen.dataset import Demonstration, build_prompt
from plangen.model import (
    CHECKPOINT_FORMAT,
    ModelError,
    TokenModel,
    _splitmix,
    add_rows,
    context_id,
    load_model,
    save_model,
)
from plangen.pipeline import PipelineConfig, run_pipeline, stage_workload
from plangen.sql import render_sql, template_key, template_of
from plangen.tokenizer import BOS, EOS, UNK, Vocabulary, build_vocab, detokenize, split_tokens
from plangen.training import (
    dpo_loss,
    dpo_reward_diff,
    sequence_log_prob,
    sft_loss,
)
from plangen.workload import gen_workload, load_join_graph
from tests.conftest import (
    FIXTURES_DIR,
    array_bytes,
    dense_model,
    dense_theta,
    index_bytes,
    random_model,
    reference_greedy_decode,
    reference_prompt_key,
    reference_save_model,
    touched,
)

RESPONSES = [
    "Step1: [a, b, MergeJoin],\n\nTherefore, the final answer is:\nMergeJoin(a b).",
    "Step1: [b, c, HashJoin],\n\nTherefore, the final answer is:\nHashJoin(b c).",
]


@pytest.fixture()
def vocab():
    return build_vocab(RESPONSES)


@pytest.fixture()
def uniform_model(vocab):
    return TokenModel.create(vocab)


@pytest.fixture(name="random_model")
def random_model_fixture(vocab):
    """Random logits at every step of RESPONSES under the keys 1 to 3."""
    rng = np.random.Generator(np.random.PCG64(3))
    return random_model(vocab, rng, 1.0, [(key, r) for key in (1, 2, 3) for r in RESPONSES])


def naive_log_prob(model: TokenModel, key: int, response: str) -> float:
    """Direct per-step summation oracle using plain Python floats."""
    from plangen.tokenizer import tokenize

    ids = tokenize(response, model.vocab, response=True)
    table = dict(zip(touched(model).tolist(), dense_theta(model)))
    prev = model.vocab.bos_id
    total = 0.0
    for position, target in enumerate(ids):
        row = table.get(context_id(key, position, prev), np.zeros(len(model.vocab)))
        exps = [math.exp(v) for v in row]
        z = sum(exps)
        total += math.log(exps[target] / z)
        prev = target
    return total


def test_uniform_log_prob(uniform_model):
    response = RESPONSES[0]
    n_tokens = len(split_tokens(response)) + 1  # EOS
    got = sequence_log_prob(uniform_model, 2, response)
    assert got == pytest.approx(-n_tokens * math.log(len(uniform_model.vocab)), abs=1e-10)


def test_near_deterministic_model_log_prob_zero(vocab):
    # One-hot-like rows: the model's own greedy output has probability ~1.
    model = TokenModel.create(vocab)
    response = RESPONSES[0]
    seq = model.encode_response(2, response)
    assert len(set(seq.contexts.tolist())) == len(seq.contexts)  # no two steps share a row
    theta = np.zeros((len(seq.contexts), len(vocab)))
    theta[np.arange(len(seq.ids)), seq.ids] = 400.0
    model = dense_model(vocab, theta, seq.contexts)
    assert abs(model.log_prob(seq)) < 1e-12
    assert model.greedy_decode(2, max_len=64) == (
        "Step1: [a, b, MergeJoin], Therefore, the final answer is: MergeJoin(a b)."
    )


def test_log_prob_matches_naive_oracle(random_model):
    for response in RESPONSES:
        got = sequence_log_prob(random_model, 3, response)
        want = naive_log_prob(random_model, 3, response)
        assert got == pytest.approx(want, abs=1e-10)


def test_sft_loss_uniform(uniform_model):
    response = RESPONSES[0]
    n_tokens = len(split_tokens(response)) + 1
    loss = sft_loss(uniform_model, [(1, response)])
    assert loss == pytest.approx(n_tokens * math.log(len(uniform_model.vocab)), abs=1e-10)


def test_sft_loss_mean_semantics(random_model):
    pair = (1, RESPONSES[0])
    assert sft_loss(random_model, [pair, pair]) == pytest.approx(
        sft_loss(random_model, [pair]), abs=1e-12
    )


def test_sft_loss_matches_oracle(random_model):
    batch = [(1, RESPONSES[0]), (2, RESPONSES[1])]
    want = sum(-naive_log_prob(random_model, p, r) for p, r in batch) / len(batch)
    assert sft_loss(random_model, batch) == pytest.approx(want, abs=1e-10)
    assert sft_loss(random_model, batch) >= 0.0


def test_dpo_reward_diff_zero_at_reference(random_model):
    u = dpo_reward_diff(random_model, random_model, 1, RESPONSES[0], RESPONSES[1], beta=0.1)
    assert u == 0.0


def test_dpo_reward_diff_linear_in_beta(random_model, uniform_model):
    args = (1, RESPONSES[0], RESPONSES[1])
    u1 = dpo_reward_diff(random_model, uniform_model, *args, beta=0.1)
    u2 = dpo_reward_diff(random_model, uniform_model, *args, beta=0.2)
    assert u2 == pytest.approx(2 * u1, rel=1e-12)


def test_dpo_reward_diff_four_term_oracle(random_model, uniform_model):
    beta = 0.1
    key, chosen, rejected = 1, RESPONSES[0], RESPONSES[1]
    want = beta * (
        naive_log_prob(random_model, key, chosen)
        - naive_log_prob(uniform_model, key, chosen)
        - naive_log_prob(random_model, key, rejected)
        + naive_log_prob(uniform_model, key, rejected)
    )
    got = dpo_reward_diff(random_model, uniform_model, key, chosen, rejected, beta)
    assert got == pytest.approx(want, abs=1e-10)


def test_dpo_loss_ln2_at_reference(random_model):
    for beta in (0.05, 0.1, 0.3):
        loss = dpo_loss(random_model, random_model, 1, RESPONSES[0], RESPONSES[1], beta)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_dpo_loss_monotone_in_margin(random_model, uniform_model):
    # Larger u must strictly shrink the loss.
    beta = 0.1
    u = dpo_reward_diff(random_model, uniform_model, 1, RESPONSES[0], RESPONSES[1], beta)
    base = dpo_loss(random_model, uniform_model, 1, RESPONSES[0], RESPONSES[1], beta)
    assert base == pytest.approx(math.log1p(math.exp(-u)), abs=1e-10)
    for bigger_u in (u + 1.0, u + 5.0, u + 50.0):
        assert math.log1p(math.exp(-bigger_u)) < base


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_joins=st.integers(1, 5), demo_joins=st.integers(1, 5))
def test_template_key_equals_the_key_parsed_from_the_prompt(
    micro_catalog, micro_db_dir, seed, n_joins, demo_joins
):
    """The key a query trains and decodes under is the one once parsed back
    out of its prompt, also behind a demonstration of another template: the
    last INPUT section is the query's."""
    graph = load_join_graph(micro_db_dir / "joins.txt")
    query = gen_workload(micro_catalog, graph, n_joins, 1, seed)[0]
    other = gen_workload(micro_catalog, graph, demo_joins, 1, seed + 1)[0]
    assume(template_of(other) != template_of(query))
    stats = serialize_stats(micro_catalog, list(other.from_order))
    demo = Demonstration(render_sql(other), stats, "Therefore, the final answer is:\nx.")
    key = template_key(template_of(query))
    assert key == reference_prompt_key(build_prompt(query, micro_catalog))
    assert key == reference_prompt_key(build_prompt(query, micro_catalog, demo))
    assert key != template_key(template_of(other))


def test_checkpoint_round_trip(tmp_path, random_model):
    path = tmp_path / "model.ckpt"
    save_model(random_model, path)
    loaded = load_model(path)
    assert np.array_equal(touched(loaded), touched(random_model))
    assert loaded.vocab == random_model.vocab
    assert np.array_equal(dense_theta(loaded), dense_theta(random_model))
    # Saving again yields identical bytes.
    path2 = tmp_path / "model2.ckpt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# Contexts at the edges of the 64-bit range, where a signed or float
# conversion would go wrong first.
_EDGE_CONTEXTS = (0, 1, 2**31 - 1, 2**31, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1)
_CONTEXTS = st.integers(0, 2**64 - 1) | st.sampled_from(_EDGE_CONTEXTS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_saved_model_loads_with_every_logit_and_resaves_its_bytes(tmp_path_factory, data):
    """Any touched set of 64-bit contexts (none included, rows reserved in
    any order) and rows left at zero: the loaded model reads the same logits
    for every context, touched or not, its slab holds only the non-zero
    rows, and saving it again writes the same bytes."""
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(data.draw(st.integers(0, 5))))))
    touched_contexts = data.draw(st.lists(_CONTEXTS, max_size=40, unique=True), label="touched")
    value = st.floats(allow_nan=False, allow_infinity=False) | st.just(0.0)
    row = st.lists(value, min_size=len(vocab), max_size=len(vocab)) | st.just([0.0] * len(vocab))
    rows = np.array(data.draw(st.lists(row, min_size=len(touched_contexts), max_size=len(touched_contexts))), dtype=float)
    model = TokenModel.create(vocab)
    at = model.reserve(touched_contexts)
    model.rows[at] = rows.reshape(len(touched_contexts), len(vocab)) + 0.0  # no -0.0
    out = tmp_path_factory.mktemp("round_trip")
    save_model(model, out / "a.ckpt")
    loaded = load_model(out / "a.ckpt")
    every = touched_contexts + data.draw(st.lists(_CONTEXTS, max_size=8), label="untouched")
    assert loaded.logits(every).tobytes() == model.logits(every).tobytes()
    assert len(loaded.rows) == 1 + int(model.rows.any(axis=1).sum())
    save_model(loaded, out / "b.ckpt")
    assert (out / "a.ckpt").read_bytes() == (out / "b.ckpt").read_bytes()


@pytest.mark.parametrize("old", ["plangen-token-model/1", "plangen-token-model/2", "plangen-token-model/3"])
def test_a_checkpoint_in_an_earlier_format_is_refused_naming_it(fixture_run_dir, tmp_path, old):
    """Formats /1 and /2 hold contexts folded into a table of n_contexts
    rows, and /3 contexts of a nested three-hash: no context of this format
    reads them, so such a file is refused, naming the file and its format,
    rather than read as a silently untrained model."""
    payload = json.loads((fixture_run_dir / "qit.ckpt").read_text())
    assert payload["format"] == CHECKPOINT_FORMAT
    path = tmp_path / "old.ckpt"
    path.write_text(json.dumps({**payload, "format": old, "n_contexts": 131072}))
    refusal = f"{path}: unsupported checkpoint format {old!r}"
    with pytest.raises(ModelError, match=f"^{re.escape(refusal)}$"):
        load_model(path)


def test_checkpoint_rejects_non_finite(tmp_path, random_model):
    theta = dense_theta(random_model)
    theta[0, 0] = np.inf
    path = tmp_path / "bad.ckpt"
    save_model(dense_model(random_model.vocab, theta, touched(random_model)), path)
    with pytest.raises(ModelError, match="non-finite"):
        load_model(path)


def test_greedy_decode_max_len(random_model):
    out = random_model.greedy_decode(1, max_len=1)
    assert len(split_tokens(out)) <= 1


def test_greedy_decode_deterministic(random_model):
    assert random_model.greedy_decode(1, 64) == random_model.greedy_decode(1, 64)


# Rows of a decoding model: untrained (all zeros, so <bos> wins), or trained
# with <bos>, <eos> or an opening bracket on top (the only tokens whose
# spacing a <bos> after them changes), a word on top, tied maxima, or no
# pattern.
_ROW_KINDS = ("zero", "bos", "eos", "open", "word", "tie", "random")
# Lengths of a decode's trained chain, around the inner table's edge at 256.
_CHAIN_LENGTHS = (0, 1, 2, 5, 254, 255, 256, 257, 300)
# Positions on both sides of the inner table's edge at 256, and past 512.
_EDGE_POSITIONS = (0, 1, 2, 255, 256, 257, 258, 511, 512, 513, 514)


def _decoding_row(rng, vocab, kind):
    row = rng.normal(0.0, 1.0, size=len(vocab))
    if kind == "bos":
        row[vocab.bos_id] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "eos":
        row[vocab.eos_id] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "open":
        row[vocab.token_id(rng.choice(["(", "["]))] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "word":
        row[rng.integers(vocab.unk_id, len(vocab))] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "tie":
        row[rng.choice(len(vocab), size=2, replace=False)] = row.max() + 1.0
    return row


@st.composite
def decoding_models(draw):
    """(model, key): rows planted along the decode's own path for the key,
    words and brackets, then one row of any kind (a zero row is left to the
    slab's shared zero row), so a decode follows a chain of trained steps,
    possibly across the inner table's edge, to a <bos>, an <eos>, an
    untrained step or max_len. More rows sit where training can put them
    too: at the chain's positions after other tokens, and under other keys.
    None sits at a step after <bos> past position 0, which training never
    reaches. Decoding a model at several max_len reads its steps again."""
    vocab, key = build_vocab(RESPONSES), draw(st.integers(0, 2**64 - 1))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    planted, prev, length = {}, vocab.bos_id, draw(st.sampled_from(_CHAIN_LENGTHS))
    for position in range(length + 1):
        kind = draw(st.sampled_from(_ROW_KINDS)) if position == length else rng.choice(["word", "open"])
        if kind == "zero":
            break
        row = _decoding_row(rng, vocab, kind)
        planted[context_id(key, position, prev)] = row
        prev = int(row.argmax())
        if prev in (vocab.bos_id, vocab.eos_id):
            break
    others = st.tuples(st.integers(0, 2**64 - 1) | st.just(key), st.integers(0, length + 1),
                       st.integers(vocab.unk_id, len(vocab) - 1), st.sampled_from(_ROW_KINDS[1:]))
    for other_key, position, other_prev, kind in draw(st.lists(others, max_size=8)):
        other_prev = other_prev if position else vocab.bos_id  # a response's first step follows <bos>
        planted.setdefault(context_id(other_key, position, other_prev), _decoding_row(rng, vocab, kind))
    contexts = list(planted)
    model = TokenModel.from_rows(vocab, contexts, np.reshape([planted[c] for c in contexts], (-1, len(vocab))))
    return model, key


@settings(max_examples=150, deadline=None)
@given(case=decoding_models(), max_len=st.integers(1, 600))
def test_greedy_decode_equals_the_step_by_step_reference(case, max_len):
    """Stopping at the first <bos> returns what decoding every step up to
    max_len or <eos> does, at any max_len and across the inner table's edge."""
    model, key = case
    theta = dense_theta(model)
    for n in (max_len, 255, 256, 257, 512, 513):
        assert model.greedy_decode(key, n) == reference_greedy_decode(model, key, n, theta)


def _chain(vocab, key: int, tokens: list[int], last: np.ndarray) -> TokenModel:
    """A model that puts each of ``tokens`` on top at its step of ``key``,
    then ``last`` at the step after them, and has no other row."""
    contexts = [context_id(key, position, prev) for position, prev in enumerate([vocab.bos_id, *tokens])]
    assert len(set(contexts)) == len(contexts)
    rows = np.zeros((len(contexts), len(vocab)))
    rows[np.arange(len(tokens)), tokens] = 1.0
    rows[-1] = last
    return TokenModel.from_rows(vocab, contexts, rows)


@pytest.mark.parametrize("position", _EDGE_POSITIONS)
def test_greedy_decode_finds_the_one_trained_row_at_a_block_edge(position):
    """A chain of word rows leads to the one trained row with a bracket on
    top, at ``position``: the decode follows the chain to it on either side
    of the inner table's edge and stops at the untrained step after it."""
    vocab, key = build_vocab(RESPONSES), 7
    words = [vocab.token_id(word) for word in ("Step1", "a", "MergeJoin")]
    tokens = [words[i % len(words)] for i in range(position)]
    row = _decoding_row(np.random.Generator(np.random.PCG64(position)), vocab, "open")
    model = _chain(vocab, key, tokens, row)
    for max_len in (max(position, 1), position + 1, 600):
        assert model.greedy_decode(key, max_len) == reference_greedy_decode(model, key, max_len)
    assert model.greedy_decode(key, 600) == detokenize(vocab.decode([*tokens, int(row.argmax())]))
    assert vocab.token(int(row.argmax())) in ("(", "[")


def test_greedy_decode_of_a_huge_max_len_stops_at_eos(vocab):
    """Decoding holds nothing per position of max_len."""
    tokens = [vocab.token_id(word) for word in ("Step1", ":", "[", "a", ",")]
    eos = np.zeros(len(vocab))
    eos[vocab.eos_id] = 1.0
    model = _chain(vocab, 7, tokens, eos)
    assert model.greedy_decode(7, 10**12) == detokenize(vocab.decode(tokens)) == "Step1: [a,"


@pytest.fixture(scope="module")
def fixture_run_dir(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("fixture") / "run"
    config = PipelineConfig.from_file(FIXTURES_DIR / "pipeline.cfg")
    run_pipeline(config.with_overrides(out_dir=str(run_dir), tables=str(FIXTURES_DIR / "tables"),
                                       catalog=str(FIXTURES_DIR / "catalog.txt"),
                                       join_graph=str(FIXTURES_DIR / "joins.txt")))
    return run_dir


@pytest.fixture(scope="module")
def fixture_qdpo(fixture_run_dir):
    """The fixture run's qdpo model and the template keys of 300 fresh
    join-1..5 queries, most of whose templates it never trained on."""
    catalog = load_catalog(FIXTURES_DIR / "catalog.txt")
    queries = stage_workload(catalog, FIXTURES_DIR / "joins.txt", "1,2,3,4,5", 300, 21)
    return load_model(fixture_run_dir / "qdpo.ckpt"), [template_key(template_of(q)) for q in queries]


def test_greedy_decode_equals_the_reference_on_the_trained_fixture_model(fixture_qdpo):
    """A real model's contexts are mostly untouched, so an unseen template's
    <bos> run spans whole blocks and meets trained rows of other templates
    inside them, which the Hypothesis models, with at most 24 contexts, never
    show."""
    model, keys = fixture_qdpo
    theta = dense_theta(model)
    texts = set()
    for key in keys:
        for max_len in (1, 255, 256, 257, 600):
            text = model.greedy_decode(key, max_len)
            assert text == reference_greedy_decode(model, key, max_len, theta), (key, max_len)
            texts.add(text)
    assert "" in texts and len(texts) > 10


def test_decoding_allocates_per_block_never_per_context():
    """2**14 trained rows at random 64-bit contexts, 64 tokens wide, with
    <bos> on top, and an untrained key: the decode ends at its first step. A
    chain of 300 trained steps: the decode reads one row per step. Neither
    gathers rows; with 64 tokens the rows of 256 steps (256 x 64 floats)
    would not fit under the bound."""
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(61))))
    rng = np.random.Generator(np.random.PCG64(5))
    contexts = rng.integers(0, 2**64 - 1, size=2**14, dtype=np.uint64, endpoint=True)
    rows = rng.normal(0.0, 1.0, size=(len(contexts), len(vocab)))
    rows[:, vocab.bos_id] = rows.max(axis=1) + 1.0
    tokens = rng.integers(vocab.unk_id, len(vocab), size=300).tolist()
    chain = [context_id(4321, position, prev) for position, prev in enumerate([vocab.bos_id, *tokens[:-1]])]
    chain_rows = np.zeros((len(chain), len(vocab)))
    chain_rows[np.arange(len(chain)), tokens] = 1.0
    model = TokenModel.from_rows(vocab, [*contexts.tolist(), *chain], np.concatenate([rows, chain_rows]))
    before = {name: value.copy() for name, value in vars(model).items() if name != "vocab"}
    for key, max_len, want in ((12345, 256, ""), (12345, 4096, ""),
                               (4321, 256, detokenize(vocab.decode(tokens[:256]))),
                               (4321, 4096, detokenize(vocab.decode(tokens)))):
        tracemalloc.start()
        try:
            assert model.greedy_decode(key, max_len) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (key, max_len, peak)
    assert vars(model).keys() == {"vocab", *before}
    assert model.index == before["index"]
    assert model.rows.nbytes == before["rows"].nbytes and np.array_equal(model.rows, before["rows"])


_STEP = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))  # (position, prev)


@settings(max_examples=200, deadline=None)
@given(key=st.integers(0, 2**64 - 1), a=_STEP, b=_STEP)
def test_under_one_key_distinct_steps_never_share_a_context(key, a, b):
    """key ^ (position << 32) ^ prev is injective in (position, prev) below
    2**32 each, and splitmix64 is a bijection on 64-bit words."""
    assume(a != b)
    assert context_id(key, *a) != context_id(key, *b)
    assert context_id(key, *a) == _splitmix(key ^ (a[0] << 32) ^ a[1])


@settings(max_examples=40, deadline=None)
@given(key=st.integers(0, 2**64 - 1), data=st.data())
def test_a_decode_follows_a_trained_chain_across_the_first_block_edge(key, data):
    """Rows planted at context_id of each step of a response of up to 300
    tokens, none of them <bos>, then <eos>: the decode's inlined hash reads
    every step, those past position 256 too, and returns the whole response
    at any max_len."""
    vocab = build_vocab(RESPONSES)
    tokens = data.draw(st.lists(st.integers(2, len(vocab) - 1), max_size=300), label="tokens")
    contexts = [context_id(key, i, prev) for i, prev in enumerate([vocab.bos_id, *tokens])]
    assume(len(set(contexts)) == len(contexts))
    rows = np.zeros((len(contexts), len(vocab)))
    rows[np.arange(len(contexts)), [*tokens, vocab.eos_id]] = 1.0
    model = TokenModel.from_rows(vocab, contexts, rows)
    for max_len in (1, max(len(tokens), 1), len(tokens) + 1, 600):
        assert model.greedy_decode(key, max_len) == detokenize(vocab.decode(tokens[:max_len]))


# The sha256 of the fixture qdpo model's responses to fixture_qdpo's keys at
# max_len 1, 256 and 600, joined by NUL, as decoding returned them when a
# context became the full 64-bit hash: a decode change that moves a response
# fails here.
FIXTURE_DECODE_DIGEST = "79a46986835222aa89a1a8e1f2e5026d1eb017367803e0cb9c543ca9c27588ea"


def test_the_fixture_model_decodes_the_recorded_responses(fixture_qdpo):
    model, keys = fixture_qdpo
    texts = [model.greedy_decode(key, max_len) for max_len in (1, 256, 600) for key in keys]
    assert hashlib.sha256("\0".join(texts).encode()).hexdigest() == FIXTURE_DECODE_DIGEST


def test_no_trained_template_of_the_fixture_emits_bos(fixture_run_dir, fixture_qdpo):
    """Every step a trained template's decode reads has a row whose argmax is
    not <bos>, so no decode stops at a <bos> of a trained row; and a decode
    of a template the model never trained reads no row at all."""
    model, keys = fixture_qdpo
    trained = {context_id(key, 0, model.vocab.bos_id) for key in keys} & model.index.keys()
    assert 0 < len(trained) < len(keys)
    for key in keys:
        prev, first = model.vocab.bos_id, context_id(key, 0, model.vocab.bos_id)
        for position in range(600):
            row = model.index.get(context_id(key, position, prev))
            if row is None:
                assert position > 0 or first not in trained
                break
            prev = int(model.rows[row].argmax())
            assert prev != model.vocab.bos_id, (key, position)
            if prev == model.vocab.eos_id:
                break


def test_a_new_model_holds_under_a_megabyte(vocab):
    """Under 64 KB with its index, and reserving rows adds their logits and
    an index entry of about a hundred bytes each, nothing else."""
    model = TokenModel.create(vocab)
    assert array_bytes(model) + index_bytes(model) < 64 * 1024
    model.reserve(np.arange(1000, dtype=np.uint64) * np.uint64(2**50))
    assert array_bytes(model) == 8 * len(vocab) * 1001
    assert index_bytes(model) < 128 * 1000


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_slab_equals_a_dense_table(tmp_path_factory, data):
    """Random reserve and add_rows batches over a small pool of 64-bit
    contexts, some repeating a context, leave the slab's logits bit for bit
    those of np.add.at on a dense table; a context without a row reads
    exactly zero and refuses an update; the checkpoint bytes are those the
    dense table writes."""
    pool = sorted(data.draw(st.lists(_CONTEXTS, min_size=1, max_size=12, unique=True), label="pool"))
    width = data.draw(st.integers(3, 8), label="vocabulary size")
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(width - 3))))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    model, dense, reserved = TokenModel.create(vocab), np.zeros((len(pool), width)), set()
    batch = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12)
    for op in data.draw(st.lists(st.sampled_from(["reserve", "add"]), max_size=10), label="ops"):
        places = np.array(data.draw(batch, label=op))
        contexts = np.array(pool, dtype=np.uint64)[places]
        if op == "reserve":
            assert np.array_equal(model.reserve(contexts), model.resolve(contexts))
            reserved.update(contexts.tolist())
            continue
        update = rng.normal(0.0, data.draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(len(contexts), width))
        if reserved.issuperset(contexts.tolist()):
            add_rows(model, model.resolve(contexts), update)
            np.add.at(dense, places, update)
        else:
            before = dict(model.index), model.rows.tobytes()
            with pytest.raises(ModelError, match="shared zero row"):
                add_rows(model, model.resolve(contexts), update)
            assert (model.index, model.rows.tobytes()) == before
        assert model.logits(pool).tobytes() == dense.tobytes()
    assert len(model.rows) == len(reserved) + 1
    for ctx in set(pool) - reserved:
        assert model.logits(ctx).tobytes() == bytes(8 * width)
    assert model.rows[0].tobytes() == bytes(8 * width)
    out = tmp_path_factory.mktemp("slab")
    save_model(model, out / "slab.ckpt")
    reference_save_model(vocab, pool, dense, out / "dense.ckpt")
    assert (out / "slab.ckpt").read_bytes() == (out / "dense.ckpt").read_bytes()
    assert load_model(out / "slab.ckpt").logits(pool).tobytes() == dense.tobytes()
