import hashlib
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
    _BOS_BLOCK,
    MAX_CONTEXTS,
    ModelError,
    TokenModel,
    _inner_hashes,
    _splitmix,
    add_rows,
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
    dense_model,
    dense_theta,
    load_model_format_1,
    reference_greedy_decode,
    reference_prompt_key,
    reference_save_model,
    save_model_format_1,
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
    return TokenModel.create(vocab, n_contexts=512)


@pytest.fixture()
def random_model(vocab):
    rng = np.random.Generator(np.random.PCG64(3))
    return dense_model(vocab, rng.normal(0.0, 1.0, size=(512, len(vocab))))


def naive_log_prob(model: TokenModel, key: int, response: str) -> float:
    """Direct per-step summation oracle using plain Python floats."""
    from plangen.tokenizer import tokenize

    ids = tokenize(response, model.vocab, response=True)
    theta = dense_theta(model)
    prev = model.vocab.bos_id
    total = 0.0
    for position, target in enumerate(ids):
        row = theta[model.context_id(key, position, prev)]
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
    model = TokenModel.create(vocab, n_contexts=512)
    response = RESPONSES[0]
    seq = model.encode_response(2, response)
    assert len(set(seq.contexts.tolist())) == len(seq.contexts)  # no two steps share a row
    theta = np.zeros((512, len(vocab)))
    for ctx, target in zip(seq.contexts, seq.ids):
        theta[ctx, target] = 400.0
    model = dense_model(vocab, theta)
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
    assert loaded.n_contexts == random_model.n_contexts
    assert loaded.vocab == random_model.vocab
    assert np.array_equal(dense_theta(loaded), dense_theta(random_model))
    # Saving again yields identical bytes.
    path2 = tmp_path / "model2.ckpt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_saved_model_loads_with_every_logit_and_resaves_its_bytes(tmp_path_factory, data):
    """Any context count, any touched set (none included, rows reserved in
    any order) and rows left at zero: the loaded model reads the same logits
    for every context, its slab holds only the non-zero rows, and saving it
    again writes the same bytes."""
    n_contexts = data.draw(st.integers(1, 2**17), label="n_contexts")
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(data.draw(st.integers(0, 5))))))
    touched = data.draw(st.lists(st.integers(0, n_contexts - 1), max_size=40, unique=True), label="touched")
    value = st.floats(allow_nan=False, allow_infinity=False) | st.just(0.0)
    row = st.lists(value, min_size=len(vocab), max_size=len(vocab)) | st.just([0.0] * len(vocab))
    rows = np.array(data.draw(st.lists(row, min_size=len(touched), max_size=len(touched))), dtype=float)
    model = TokenModel.create(vocab, n_contexts)
    model.reserve(touched)
    model.rows[model.slots[touched]] = rows.reshape(len(touched), len(vocab)) + 0.0  # no -0.0
    out = tmp_path_factory.mktemp("round_trip")
    save_model(model, out / "a.ckpt")
    loaded = load_model(out / "a.ckpt")
    every = np.arange(n_contexts)
    assert loaded.logits(every).tobytes() == model.logits(every).tobytes()
    assert len(loaded.rows) == 1 + int(model.rows.any(axis=1).sum())
    save_model(loaded, out / "b.ckpt")
    assert (out / "a.ckpt").read_bytes() == (out / "b.ckpt").read_bytes()


# sha256 of the fixture run's checkpoints as the format /1 writer wrote them.
FIXTURE_FORMAT_1_SHA256 = {
    "qit": "9be4b6063b97dd4dd02dc2856f935834ff15ca8f64605ce7faf1c84394ae47ae",
    "qdpo": "b58ffe8691597840fd961cea4fea443156f14a96e28d0e454472ab7a474532b8",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_FORMAT_1_SHA256))
def test_a_format_1_checkpoint_holds_the_logits_of_its_format_2_resave(fixture_run_dir, tmp_path, name):
    """The fixture run's model written as /1 has the bytes the /1 writer
    gave it; read back by the /1 loader it re-saves as the run's /2 bytes,
    and both formats give every context the same logits. The /2 loader
    refuses the /1 file, naming it and its format."""
    ckpt = fixture_run_dir / f"{name}.ckpt"
    model, old = load_model(ckpt), tmp_path / "format_1.ckpt"
    save_model_format_1(model, old)
    assert hashlib.sha256(old.read_bytes()).hexdigest() == FIXTURE_FORMAT_1_SHA256[name]
    from_old = load_model_format_1(old)
    save_model(from_old, tmp_path / "resaved.ckpt")
    assert (tmp_path / "resaved.ckpt").read_bytes() == ckpt.read_bytes()
    every = np.arange(model.n_contexts)
    assert from_old.logits(every).tobytes() == model.logits(every).tobytes()
    refusal = f"{old}: unsupported checkpoint format 'plangen-token-model/1'"
    with pytest.raises(ModelError, match=f"^{re.escape(refusal)}$"):
        load_model(old)


def test_checkpoint_rejects_non_finite(tmp_path, random_model):
    theta = dense_theta(random_model)
    theta[0, 0] = np.inf
    path = tmp_path / "bad.ckpt"
    save_model(dense_model(random_model.vocab, theta), path)
    with pytest.raises(ModelError, match="non-finite"):
        load_model(path)


def test_greedy_decode_max_len(random_model):
    out = random_model.greedy_decode(1, max_len=1)
    assert len(split_tokens(out)) <= 1


def test_greedy_decode_deterministic(random_model):
    assert random_model.greedy_decode(1, 64) == random_model.greedy_decode(1, 64)


# Rows of a decoding model: mostly untrained (all zeros, so <bos> wins),
# plus trained rows with <bos>, <eos> or an opening bracket on top (the only
# tokens whose spacing a <bos> after them changes), tied maxima, or no pattern.
_ROW_KINDS = ("zero", "zero", "zero", "bos", "eos", "open", "tie", "random")
# Positions around the edges of the first two blocks of <bos> steps, which
# start one or two steps after a run's first <bos>.
_BLOCK_EDGES = (0, 1, 2, 255, 256, 257, 258, 511, 512, 513, 514)


def _decoding_row(rng, vocab, kind):
    row = rng.normal(0.0, 1.0, size=len(vocab))
    if kind == "bos":
        row[vocab.bos_id] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "eos":
        row[vocab.eos_id] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "open":
        row[vocab.token_id(rng.choice(["(", "["]))] = row.max() + rng.uniform(0.1, 1.0)
    elif kind == "tie":
        row[rng.choice(len(vocab), size=2, replace=False)] = row.max() + 1.0
    return row


@st.composite
def decoding_models(draw):
    """(model, key) over a random mix of row kinds; a zero row is left to
    the slab's shared zero row. Either few contexts, so steps share rows, or
    many, mostly untouched, with rows planted at the contexts of steps after
    <bos> at block edges for the key, so a <bos> run can fill a whole block
    and end just past it."""
    vocab, key = build_vocab(RESPONSES), draw(st.integers(0, 2**64 - 1))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    kinds = {}
    if draw(st.booleans()):
        n_contexts = draw(st.integers(1, 24))
        contexts = range(n_contexts)
    else:
        n_contexts = draw(st.integers(2**12, 2**16))
        contexts = draw(st.lists(st.integers(0, n_contexts - 1), max_size=8))
        hasher = TokenModel.create(vocab, n_contexts)
        for position in draw(st.lists(st.sampled_from(_BLOCK_EDGES), min_size=1, max_size=3)):
            ctx = hasher.context_id(key, position, vocab.bos_id)
            kinds[ctx] = draw(st.sampled_from(_ROW_KINDS[3:]))  # a planted row is trained
    for ctx in contexts:
        kinds.setdefault(ctx, draw(st.sampled_from(_ROW_KINDS)))
    trained = [(ctx, kind) for ctx, kind in sorted(kinds.items()) if kind != "zero"]
    rows = [_decoding_row(rng, vocab, kind) for _, kind in trained]
    model = TokenModel.from_rows(vocab, n_contexts, [ctx for ctx, _ in trained],
                                 np.reshape(rows, (-1, len(vocab))))
    return model, key


@settings(max_examples=150, deadline=None)
@given(case=decoding_models(), max_len=st.integers(1, 600))
def test_greedy_decode_equals_the_step_by_step_reference(case, max_len):
    """Reading the after-<bos> steps a block at a time returns what decoding
    one step at a time does, at any max_len and across block edges."""
    model, key = case
    theta = dense_theta(model)
    for n in (max_len, 255, 256, 257, 512, 513):
        assert model.greedy_decode(key, n) == reference_greedy_decode(model, key, n, theta)


@pytest.mark.parametrize("position", _BLOCK_EDGES)
def test_greedy_decode_finds_the_one_trained_row_at_a_block_edge(position):
    """The only trained row is at the step after <bos> at ``position``, with
    a bracket on top: the decode runs <bos> up to it, whatever block holds it."""
    vocab, key = build_vocab(RESPONSES), 7
    ctx = TokenModel.create(vocab, 2**16).context_id(key, position, vocab.bos_id)
    row = _decoding_row(np.random.Generator(np.random.PCG64(position)), vocab, "open")
    model = TokenModel.from_rows(vocab, 2**16, [ctx], row[np.newaxis])
    for max_len in (max(position, 1), position + 1, 600):
        assert model.greedy_decode(key, max_len) == reference_greedy_decode(model, key, max_len)
    assert model.greedy_decode(key, 600) in ("(", "[")


def test_greedy_decode_of_a_huge_max_len_stops_at_eos(vocab):
    """Decoding holds one block of positions, never all of max_len."""
    model = TokenModel.create(vocab, n_contexts=4096)
    key = 7
    contexts = [model.context_id(key, position, vocab.bos_id) for position in range(6)]
    assert contexts[5] not in contexts[:5]
    row = np.zeros((1, len(vocab)))
    row[0, vocab.eos_id] = 1.0
    model = TokenModel.from_rows(vocab, 4096, [contexts[5]], row)
    assert model.greedy_decode(key, 10**12) == ""


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
    """A million contexts and an untrained key: every step is <bos>, so the
    decode reads whole blocks up to max_len. Some rows are trained, with <bos>
    on top, so blocks gather rows; with 64 tokens one block of gathered rows
    for every position (256 x 64 floats) would not fit under the bound."""
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(61))))
    rng = np.random.Generator(np.random.PCG64(5))
    contexts = rng.choice(2**20, size=2**14, replace=False)
    rows = rng.normal(0.0, 1.0, size=(len(contexts), len(vocab)))
    rows[:, vocab.bos_id] = rows.max(axis=1) + 1.0
    model = TokenModel.from_rows(vocab, 2**20, contexts, rows)
    before = {name: value.copy() if isinstance(value, np.ndarray) else value
              for name, value in vars(model).items()}
    for max_len in (256, 4096):
        tracemalloc.start()
        try:
            assert model.greedy_decode(12345, max_len) == ""
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (max_len, peak)
    assert vars(model).keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert vars(model)[name].nbytes == value.nbytes
            assert np.array_equal(vars(model)[name], value)


@settings(max_examples=100, deadline=None)
@given(key=st.integers(0, 2**64 - 1), n_contexts=st.integers(1, MAX_CONTEXTS),
       position=st.integers(0, _BOS_BLOCK - 1), width=st.integers(3, 64))
def test_one_hash_of_the_inner_table_is_the_context_of_a_step(key, n_contexts, position, width):
    """Below _BOS_BLOCK a decode step hashes key ^ _inner_hashes(|V|)[position][prev]
    once, and for every token id that is context_id's three-hash context."""
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(width - 3))))
    hasher = TokenModel(vocab, n_contexts, np.zeros(0, dtype=np.int32), np.zeros((1, width)))
    inner = _inner_hashes(width)
    assert len(inner) == _BOS_BLOCK and {len(row) for row in inner} == {width}
    for prev in range(width):
        assert _splitmix(key ^ inner[position][prev]) % n_contexts == hasher.context_id(key, position, prev)


@settings(max_examples=40, deadline=None)
@given(key=st.integers(0, 2**64 - 1), n_contexts=st.integers(2**18, 2**20), data=st.data())
def test_a_decode_follows_a_trained_chain_across_the_first_block_edge(key, n_contexts, data):
    """Rows planted at context_id of each step of a response of up to 300
    tokens, none of them <bos>, then <eos>: the decode reads the steps below
    _BOS_BLOCK through the one-hash table and the later ones through
    context_id, and returns the whole response at any max_len."""
    vocab = build_vocab(RESPONSES)
    tokens = data.draw(st.lists(st.integers(2, len(vocab) - 1), max_size=300), label="tokens")
    hasher = TokenModel.create(vocab, n_contexts)
    contexts = [hasher.context_id(key, i, prev) for i, prev in enumerate([vocab.bos_id, *tokens])]
    assume(len(set(contexts)) == len(contexts))
    rows = np.zeros((len(contexts), len(vocab)))
    rows[np.arange(len(contexts)), [*tokens, vocab.eos_id]] = 1.0
    model = TokenModel.from_rows(vocab, n_contexts, contexts, rows)
    for max_len in (1, max(len(tokens), 1), len(tokens) + 1, 600):
        assert model.greedy_decode(key, max_len) == detokenize(vocab.decode(tokens[:max_len]))


# The sha256 of the fixture qdpo model's responses to fixture_qdpo's keys at
# max_len 1, 256 and 600, joined by NUL, as decoding returned them before
# the one-hash step: a decode change that moves a response fails here.
FIXTURE_DECODE_DIGEST = "4b7508d85a86c5534ae7d48a5cb2e0583207f135c7ef686624056fa76939e1e9"


def test_the_fixture_model_decodes_the_recorded_responses(fixture_qdpo):
    model, keys = fixture_qdpo
    texts = [model.greedy_decode(key, max_len) for max_len in (1, 256, 600) for key in keys]
    assert hashlib.sha256("\0".join(texts).encode()).hexdigest() == FIXTURE_DECODE_DIGEST


def _model_bytes(model: TokenModel) -> int:
    """Bytes of the model's arrays, as the benchmark's ``theta_bytes`` counts them."""
    return sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))


def test_a_new_model_holds_under_a_megabyte(vocab):
    assert _model_bytes(TokenModel.create(vocab, 131072)) < 2**20


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_slab_equals_a_dense_table(tmp_path_factory, data):
    """Random reserve and add_rows batches, some repeating a context, leave
    the slab's logits bit for bit those of np.add.at on a dense table; a
    context without a row reads exactly zero and refuses an update; the
    checkpoint bytes are those the dense table writes."""
    n_contexts = data.draw(st.integers(1, 12), label="n_contexts")
    width = data.draw(st.integers(3, 8), label="vocabulary size")
    vocab = Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(width - 3))))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    model, dense, reserved = TokenModel.create(vocab, n_contexts), np.zeros((n_contexts, width)), set()
    batch = st.lists(st.integers(0, n_contexts - 1), min_size=1, max_size=12)
    for op in data.draw(st.lists(st.sampled_from(["reserve", "add"]), max_size=10), label="ops"):
        contexts = np.array(data.draw(batch, label=op), dtype=np.int32)
        if op == "reserve":
            model.reserve(contexts)
            reserved.update(contexts.tolist())
            continue
        update = rng.normal(0.0, data.draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(len(contexts), width))
        if reserved.issuperset(contexts.tolist()):
            add_rows(model, contexts, update)
            np.add.at(dense, contexts, update)
        else:
            before = model.slots.tobytes(), model.rows.tobytes()
            with pytest.raises(ModelError, match="has no row"):
                add_rows(model, contexts, update)
            assert (model.slots.tobytes(), model.rows.tobytes()) == before
        assert model.logits(np.arange(n_contexts)).tobytes() == dense.tobytes()
    assert len(model.rows) == len(reserved) + 1
    for ctx in set(range(n_contexts)) - reserved:
        assert model.logits(ctx).tobytes() == bytes(8 * width)
    assert model.rows[0].tobytes() == bytes(8 * width)
    out = tmp_path_factory.mktemp("slab")
    save_model(model, out / "slab.ckpt")
    reference_save_model(vocab, dense, out / "dense.ckpt")
    assert (out / "slab.ckpt").read_bytes() == (out / "dense.ckpt").read_bytes()
    assert load_model(out / "slab.ckpt").logits(np.arange(n_contexts)).tobytes() == dense.tobytes()
