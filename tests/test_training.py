import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plangen.dataset import load_dataset
from plangen.model import (
    EncodedSequence, ModelError, PackedSequences, TokenModel, add_rows, context_id,
)
from plangen.pipeline import PipelineConfig, read_triples, run_pipeline
from plangen.plans import parse_response, render_response
from plangen.sql import parse_sql, template_key, template_of
from plangen.tokenizer import BOS, EOS, UNK, Vocabulary, build_vocab, tokenize
from plangen.training import (
    TrainConfig,
    TrainingError,
    _encode_pairs,
    dpo_grad_check,
    encode_triples,
    fit_qit_from_records,
    mean_margin,
    sft_grad_check,
    train_qdpo,
    train_qit,
    triple_margins,
    write_trace,
)
from tests.conftest import (
    FIXTURES_DIR,
    RefSequence,
    array_bytes,
    dense_model,
    dense_theta,
    index_bytes,
    qdpo_config,
    qit_config,
    ref_encode_response,
    ref_log_prob,
    ref_log_prob_row_grad,
    ref_nll_and_row_grad,
    random_model,
    random_plan,
    reference_train_qdpo,
    reference_train_qit,
    touched,
)


@pytest.fixture(scope="module")
def overfit_pair():
    query = parse_sql(
        "SELECT * FROM title, movie_companies, movie_info_idx "
        "WHERE title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = movie_info_idx.movie_id AND title.product_year > 1950;"
    )
    response = render_response(
        parse_response(
            "Therefore, the final answer is:\n"
            "HashJoin(movie_info_idx HashJoin(movie_companies title))."
        )
    )
    return template_key(template_of(query)), response


def test_qit_overfits_single_sample(overfit_pair):
    key, response = overfit_pair
    model, trace = fit_qit_from_records([overfit_pair], qit_config(seed=1))
    # Loss decreases on average over the run.
    first_quarter = [r.loss for r in trace[: len(trace) // 4]]
    last_quarter = [r.loss for r in trace[-len(trace) // 4:]]
    assert sum(last_quarter) / len(last_quarter) < sum(first_quarter) / len(first_quarter)
    decoded = model.greedy_decode(key, max_len=256)
    assert parse_response(decoded) == parse_response(response)
    # Token-for-token reproduction of the target (modulo whitespace layout).
    from plangen.tokenizer import split_tokens

    assert split_tokens(decoded) == split_tokens(response)


def test_qit_zero_steps_no_change(overfit_pair):
    vocab = build_vocab([overfit_pair[1]])
    model = TokenModel.create(vocab)
    trained, trace = train_qit(model, [overfit_pair], qit_config(steps=0))
    every = touched(trained, model)
    assert len(every) > 0  # training reserved rows, and left them zero
    assert np.array_equal(dense_theta(trained, every), dense_theta(model, every))
    assert trace == []


def test_qit_same_seed_bit_identical(overfit_pair):
    a, _ = fit_qit_from_records([overfit_pair], qit_config(steps=50, seed=9))
    b, _ = fit_qit_from_records([overfit_pair], qit_config(steps=50, seed=9))
    assert np.array_equal(dense_theta(a), dense_theta(b))
    # With several samples the shuffle order matters, so seeds separate runs.
    pairs = [overfit_pair] + [
        (k, w) for k, w, _ in _toy_triples()
    ] + [(k, l) for k, _, l in _toy_triples()]
    d, _ = fit_qit_from_records(pairs, qit_config(steps=50, batch_size=2, seed=9))
    e, _ = fit_qit_from_records(pairs, qit_config(steps=50, batch_size=2, seed=10))
    assert not np.array_equal(dense_theta(d), dense_theta(e))


def _toy_triples():
    specs = [
        (
            "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;",
            "HashJoin(cast_info title)",
            "NestLoopJoin(title cast_info)",
        ),
        (
            "SELECT * FROM title, movie_keyword WHERE title.movie_id = movie_keyword.movie_id;",
            "MergeJoin(movie_keyword title)",
            "NestLoopJoin(movie_keyword title)",
        ),
    ]
    triples = []
    for sql, good, bad in specs:
        triples.append(
            (
                template_key(template_of(parse_sql(sql))),
                render_response(parse_response(f"Therefore, the final answer is:\n{good}.")),
                render_response(parse_response(f"Therefore, the final answer is:\n{bad}.")),
            )
        )
    return triples


def test_qdpo_margin_strictly_increases():
    triples = _toy_triples()[:1]
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    policy = TokenModel.create(vocab)
    trained, trace = train_qdpo(policy, triples, qdpo_config(steps=40, learning_rate=0.05, seed=2))
    margins = [row.margin for row in trace]
    assert all(b > a for a, b in zip(margins, margins[1:]))
    assert margins[-1] > margins[0]


def test_qdpo_step0_loss_is_ln2():
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    policy = TokenModel.create(vocab)
    _, trace = train_qdpo(policy, triples, qdpo_config(steps=1, seed=0))
    assert trace[0].loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_qdpo_reference_never_mutated():
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    policy = TokenModel.create(vocab)
    before = dense_theta(policy).tobytes()
    slab = dict(policy.index), policy.rows.tobytes()
    trained, _ = train_qdpo(policy, triples, qdpo_config(steps=30, learning_rate=0.05, seed=4))
    assert dense_theta(policy).tobytes() == before
    assert (policy.index, policy.rows.tobytes()) == slab  # the policy copy reserved its own rows
    every = touched(trained, policy)
    assert not np.array_equal(dense_theta(trained, every), dense_theta(policy, every))


def test_beta_zero_rejected():
    with pytest.raises(TrainingError, match="beta"):
        TrainConfig(learning_rate=0.1, steps=1, beta=0.0)


def test_negative_lr_rejected():
    with pytest.raises(TrainingError, match="learning rate"):
        TrainConfig(learning_rate=-1.0, steps=1)


@pytest.mark.parametrize("n_params", [0, -3])
def test_grad_check_rejects_checking_no_params(overfit_pair, n_params):
    vocab = build_vocab([overfit_pair[1]])
    model = TokenModel.create(vocab)
    with pytest.raises(TrainingError, match=f"^n_params must be at least 1, got {n_params}:"):
        sft_grad_check(model, [overfit_pair], n_params=n_params)


def test_sft_grad_check(overfit_pair):
    vocab = build_vocab([overfit_pair[1]])
    rng = np.random.Generator(np.random.PCG64(8))
    model = random_model(vocab, rng, 0.5, [overfit_pair])
    report = sft_grad_check(model, [overfit_pair], n_params=200, seed=1)
    assert report.checked >= 200
    assert report.passed, report.max_rel_error
    assert report.max_rel_error <= 1e-5


def test_dpo_grad_check():
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    rng = np.random.Generator(np.random.PCG64(5))
    pairs = [(key, response) for key, *responses in triples for response in responses]
    policy = random_model(vocab, rng, 0.5, pairs)
    reference = random_model(vocab, rng, 0.5, pairs)
    before = dense_theta(reference).tobytes()
    report = dpo_grad_check(policy, reference, triples, beta=0.1, n_params=200, seed=2)
    assert report.checked >= 200
    assert report.passed, report.max_rel_error
    assert dense_theta(reference).tobytes() == before


def test_beta_controls_divergence():
    # Higher beta saturates the preference gradient sooner, ending closer to
    # the reference model.
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    policy = TokenModel.create(vocab)
    small, _ = train_qdpo(policy, triples, qdpo_config(steps=2500, learning_rate=0.05, beta=0.05, seed=3))
    large, _ = train_qdpo(policy, triples, qdpo_config(steps=2500, learning_rate=0.05, beta=0.5, seed=3))
    every = touched(small, large, policy)
    disp_small = float(np.linalg.norm(dense_theta(small, every) - dense_theta(policy, every)))
    disp_large = float(np.linalg.norm(dense_theta(large, every) - dense_theta(policy, every)))
    assert disp_large < disp_small


def test_write_trace(tmp_path, overfit_pair):
    _, trace = fit_qit_from_records([overfit_pair], qit_config(steps=3, seed=0))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,margin"
    assert len(lines) == 4


def test_qdpo_margin_oracle_consistency():
    # margin helpers agree with direct log-prob differences
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    rng = np.random.Generator(np.random.PCG64(11))
    policy = random_model(vocab, rng, 1.0, [(key, r) for key, *responses in triples for r in responses])
    encoded = encode_triples(policy, triples)
    at = policy.resolve(encoded.sequences.contexts)
    assert at.all()  # every step reads a random row
    margins = triple_margins(policy, encoded, at)
    assert triple_margins(policy, encoded) == margins
    from plangen.training import sequence_log_prob

    want = [
        sequence_log_prob(policy, k, w) - sequence_log_prob(policy, k, l)
        for k, w, l in triples
    ]
    assert margins == pytest.approx(want, abs=1e-10)
    assert mean_margin(policy, encoded, at) == pytest.approx(sum(want) / len(want), abs=1e-10)


@pytest.fixture(scope="module")
def fixture_datasets(tmp_path_factory):
    """The instruction pairs and preference triples of the shipped fixture
    config (its training cut to one step each)."""
    out = tmp_path_factory.mktemp("fixture_run")
    config = PipelineConfig.from_file(FIXTURES_DIR / "pipeline.cfg").with_overrides(
        out_dir=str(out),
        catalog=str(FIXTURES_DIR / "catalog.txt"),
        tables=str(FIXTURES_DIR / "tables"),
        join_graph=str(FIXTURES_DIR / "joins.txt"),
        qit_steps="1",
        qdpo_steps="1",
    )
    run_pipeline(config)
    pairs = [(template_key(r.template), r.response) for r in load_dataset(out / "sft.jsonl")]
    return pairs, read_triples(out / "dpo.jsonl")


def test_packed_training_equals_sequence_at_a_time_reference(fixture_datasets):
    pairs, triples = fixture_datasets
    vocab = build_vocab([r for _, r in pairs] + [t[1] for t in triples] + [t[2] for t in triples])
    model = TokenModel.create(vocab)
    qit = TrainConfig(learning_rate=0.05, steps=40, batch_size=8, seed=3)
    first = np.random.Generator(np.random.PCG64(qit.seed)).permutation(len(pairs))[: qit.batch_size]
    batch_contexts = np.concatenate(
        [ref_encode_response(vocab, *pairs[i]).contexts for i in first]
    )
    # Responses of one template share a prefix, and so its contexts.
    assert len(np.unique(batch_contexts)) < len(batch_contexts)  # a batch repeats a context

    got, got_trace = train_qit(model, pairs, qit)
    want, want_trace = reference_train_qit(model, pairs, qit)
    every = touched(got, want)
    assert np.array_equal(dense_theta(got, every), dense_theta(want, every))
    assert got_trace == want_trace

    # A triple's two responses share their first context, so every batch
    # repeats one.
    key, chosen, rejected = triples[0]
    first_contexts = {ref_encode_response(vocab, key, r).contexts[0] for r in (chosen, rejected)}
    assert len(first_contexts) == 1
    qdpo = TrainConfig(learning_rate=0.05, steps=30, batch_size=8, beta=0.1, seed=4)
    got, got_trace = train_qdpo(want, triples, qdpo)
    want, want_trace = reference_train_qdpo(want, triples, qdpo)
    every = touched(got, want)
    assert np.array_equal(dense_theta(got, every), dense_theta(want, every))
    assert got_trace == want_trace
    assert len({row.margin for row in got_trace}) > 1


def test_encode_pairs_packs_a_repeated_pair_as_its_own_encode(fixture_datasets):
    """Each distinct pair is encoded once; the packed arrays equal packing
    one encode per pair, bit for bit."""
    _, triples = fixture_datasets
    pairs = [(key, response) for key, *responses in triples for response in responses]
    assert len(set(pairs)) < len(pairs)  # a chosen plan serves several triples
    model = TokenModel.create(build_vocab([response for _, response in pairs]))
    got = _encode_pairs(model, pairs)
    want = PackedSequences.pack([model.encode_response(key, response) for key, response in pairs])
    for name in ("contexts", "context_of", "ids", "starts", "lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert [(n, m.tobytes()) for n, m in got.groups] == [(n, m.tobytes()) for n, m in want.groups]


_TABLES = ["cast_info", "movie_companies", "movie_info", "movie_keyword", "title"]


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True),
    records=st.lists(st.tuples(st.integers(0, 3), st.integers(2, 5), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=16),
)
def test_distinct_steps_get_distinct_slab_rows(keys, records):
    """SFT sets of plan responses under a few template keys repeat steps
    within and across responses: after ``reserve`` every token reads the row
    of its own (key, position, previous token) step, and two distinct steps
    never share a row."""
    pairs = [(keys[k % len(keys)], render_response(random_plan(random.Random(seed), _TABLES[:n])))
             for k, n, seed in records]
    vocab = build_vocab(response for _, response in pairs)
    model = TokenModel.create(vocab)
    packed = _encode_pairs(model, pairs)
    at = model.reserve(packed.contexts)
    row_of = {}
    for i, (key, response) in enumerate(pairs):
        ids = tokenize(response, vocab, response=True)
        rows = at[packed.context_of[packed.starts[i]:packed.starts[i] + len(ids)]]
        for position, (prev, row) in enumerate(zip([vocab.bos_id, *ids[:-1]], rows.tolist())):
            assert row_of.setdefault((key, position, prev), row) == row
    assert len(set(row_of.values())) == len(row_of) == len(model.index) == len(model.rows) - 1
    assert 0 not in row_of.values()


def _vocab(size: int) -> Vocabulary:
    return Vocabulary((BOS, EOS, UNK, *(f"w{i}" for i in range(size - 3))))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_equals_per_sequence_formulas(data):
    pool = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40, unique=True), label="pool")
    width = data.draw(st.integers(3, 30), label="vocabulary size")
    lengths = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=10), label="lengths")
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    contexts = np.array(sorted(pool), dtype=np.uint64)
    theta = rng.normal(0.0, data.draw(st.sampled_from([0.01, 1.0, 50.0])), size=(len(pool), width))
    # A small pool of contexts, so sequences repeat contexts within and across themselves.
    refs = [RefSequence(rng.integers(0, len(pool), n), rng.integers(0, width, n)) for n in lengths]
    model = dense_model(_vocab(width), theta, contexts)
    packed = PackedSequences.pack(
        [EncodedSequence(contexts[r.contexts], r.ids.astype(np.int32)) for r in refs]
    )
    at = model.resolve(packed.contexts)
    assert np.array_equal(model.log_probs(packed, at), [ref_log_prob(theta, r) for r in refs])

    order = data.draw(st.permutations(range(len(refs))), label="order")
    seqs = np.array(order[: data.draw(st.integers(1, len(refs)), label="batch size")])
    places = np.concatenate([refs[i].contexts for i in seqs])
    log_p, got_rows, grad = model.row_grads(packed, seqs, at)
    assert np.array_equal(got_rows, model.resolve(contexts[places]))
    assert np.array_equal(log_p, [ref_log_prob(theta, refs[i]) for i in seqs])
    assert np.array_equal(grad, np.concatenate([ref_log_prob_row_grad(theta, refs[i]) for i in seqs]))
    log_p, _, delta = model.row_grads(packed, seqs, nll=True)
    nll = [ref_nll_and_row_grad(theta, refs[i]) for i in seqs]
    assert np.array_equal(-log_p, [n for n, _ in nll])
    assert np.array_equal(delta, np.concatenate([d for _, d in nll]))

    target, want = model.copy(), theta.copy()
    add_rows(target, got_rows, grad)
    np.add.at(want, places, grad)
    assert np.array_equal(dense_theta(target, contexts), want)


@settings(max_examples=200, deadline=None)
@given(
    key=st.integers(0, 2**64 - 1),
    steps=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=40),
)
@example(key=2**64 - 1, steps=[(0, 0), (255, 2**64 - 1)])
@example(key=0, steps=[(2**63, 1)])
def test_vectorized_context_ids_equal_scalar(key, steps):
    positions = np.array([p for p, _ in steps], dtype=np.uint64)
    prev = np.array([t for _, t in steps], dtype=np.uint64)
    want = [context_id(key, p, t) for p, t in steps]
    assert all(0 <= ctx < 2**64 for ctx in want)
    assert context_id(key, positions, prev).tolist() == want


def test_add_rows_rejects_a_non_contiguous_table():
    model = TokenModel(_vocab(4), {1: 1}, np.zeros((4, 3)).T)
    with pytest.raises(ModelError, match="contiguous"):
        add_rows(model, np.array([1]), np.ones((1, 4)))


def test_a_model_trained_on_the_fixture_holds_under_two_megabytes(fixture_datasets):
    """A model holds only the trained rows and their index entries, whatever
    the context space."""
    pairs, triples = fixture_datasets
    qit, _ = fit_qit_from_records(pairs, qit_config(steps=5, seed=1))
    qdpo, _ = train_qdpo(qit, triples, qdpo_config(steps=5, seed=2))
    for model in (qit, qdpo):
        assert array_bytes(model) + index_bytes(model) < 2 * 2**20


def test_dpo_grad_check_rejects_a_mismatched_reference():
    triples = _toy_triples()
    vocab = build_vocab([t[1] for t in triples] + [t[2] for t in triples])
    other = build_vocab([t[1] for t in triples])
    with pytest.raises(TrainingError, match="vocabulary"):
        dpo_grad_check(TokenModel.create(vocab), TokenModel.create(other), triples, beta=0.1)
