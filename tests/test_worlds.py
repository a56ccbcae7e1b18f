"""Synthetic world construction: generators, encoders, reference sampling."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from hda import subspace, worlds
from hda.autodiff import Tape, grad_check
from hda.engine import (
    SEPARABILITY_THRESHOLD,
    AdaptationConfig,
    check_separability,
    default_adaptation_config,
)
from hda.errors import ConfigError, DegenerateDomain, DimensionError, NumericalError
from hda.files import json_doc, read_object
from hda.losses import DomainWeight
from hda.seeding import stream_rng
from hda.subspace import RANK_TOLERANCE, FeatureSet, build_subspace, project, separation_ratio
from hda.worlds import (
    ENCODER_BIAS_CENTER,
    PARAM_FIELDS,
    GeneratorParams,
    SyntheticDomainSpec,
    WorldConfig,
    _relu,
    build_world,
    build_world_subspaces,
    default_world_config,
    encode,
    encode_var,
    flatten_generator,
    forward_stack,
    generator_forward_var,
    load_world,
    make_encoder,
    make_encoders,
    make_source_generator,
    sample_domain_references,
    sample_source_points,
    save_world,
    stack_encoders,
    unflatten_generator,
)


#: ``make_encoder``'s sizes in the stock ``WorldConfig()``
STOCK_ENCODER = dict(d_x=WorldConfig.d_x, d_hidden=WorldConfig.encoder_hidden, d_e=WorldConfig.d_e)


def test_world_rebuild_is_bit_identical(world):
    again = build_world(default_world_config())
    np.testing.assert_array_equal(
        world.source_generator.w1, again.source_generator.w1
    )
    np.testing.assert_array_equal(
        world.held_out_encoder.w2, again.held_out_encoder.w2
    )
    for domain_id, refs in world.references.items():
        np.testing.assert_array_equal(refs, again.references[domain_id])


def test_different_world_seeds_differ():
    a = build_world(default_world_config(seed=0))
    b = build_world(default_world_config(seed=1))
    assert not np.array_equal(a.source_generator.w1, b.source_generator.w1)
    assert not np.array_equal(a.references["attr0"], b.references["attr0"])


def test_generator_output_scale():
    gen = make_source_generator(seed=0)
    z = stream_rng(0, "scale-probe").standard_normal((10_000, gen.d_z))
    stds = gen.forward(z).std(axis=0)
    assert stds.min() > 0.01
    assert stds.max() < 10.0


def test_flatten_round_trip():
    gen = make_source_generator(seed=5)
    flat = flatten_generator(gen)
    back = unflatten_generator(flat, gen)
    np.testing.assert_array_equal(back.w1, gen.w1)
    np.testing.assert_array_equal(back.b1, gen.b1)
    np.testing.assert_array_equal(back.w2, gen.w2)
    np.testing.assert_array_equal(back.b2, gen.b2)


def test_generator_json_round_trip():
    gen = make_source_generator(seed=6)
    assert list(json_doc(gen)) == ["w1", "b1", "w2", "b2"]
    back = read_object(GeneratorParams, json_doc(gen), "generator")
    np.testing.assert_array_equal(back.w1, gen.w1)
    np.testing.assert_array_equal(back.b2, gen.b2)


def test_reference_shift_is_additive():
    gen = make_source_generator(seed=1)
    shift = np.zeros(gen.d_x)
    shift[0] = 5.0
    base = SyntheticDomainSpec(domain_id="attr0", attribute_shift=np.zeros(gen.d_x))
    shifted = SyntheticDomainSpec(domain_id="attr0", attribute_shift=shift)
    # same domain id, same seed: identical latents and noise, shift enters alone
    refs_base = sample_domain_references(gen, base, seed=0)
    refs_shift = sample_domain_references(gen, shifted, seed=0)
    np.testing.assert_allclose(refs_shift - refs_base, np.tile(shift, (10, 1)), atol=1e-9)


def test_reference_noise_scales_linearly():
    gen = make_source_generator(seed=1)
    zeros = np.zeros(gen.d_x)

    def refs(noise):
        d = SyntheticDomainSpec(domain_id="attr0", attribute_shift=zeros, noise_scale=noise)
        return sample_domain_references(gen, d, seed=0)

    clean, one, two = refs(0.0), refs(0.2), refs(0.4)
    np.testing.assert_allclose(two - clean, 2.0 * (one - clean), rtol=1e-12)
    assert 0.05 < (one - clean).std() < 0.5


def test_reference_transform_applies_before_shift():
    gen = make_source_generator(seed=1)
    transform = -np.eye(gen.d_x)
    zeros = np.zeros(gen.d_x)
    plain = SyntheticDomainSpec(
        domain_id="a", attribute_shift=zeros, noise_scale=0.0
    )
    flipped = SyntheticDomainSpec(
        domain_id="a", attribute_shift=zeros, attribute_transform=transform, noise_scale=0.0
    )
    np.testing.assert_allclose(
        sample_domain_references(gen, flipped, seed=0),
        -sample_domain_references(gen, plain, seed=0),
        rtol=1e-12,
    )


def test_source_points_deterministic():
    gen = make_source_generator(seed=2)
    np.testing.assert_array_equal(
        sample_source_points(gen, 10, seed=4), sample_source_points(gen, 10, seed=4)
    )


def test_encode_deterministic_and_matches_var(world):
    enc = world.held_out_encoder
    x = stream_rng(0, "encode-probe").standard_normal((4, world.config.d_x))
    np.testing.assert_array_equal(encode(enc, x), encode(enc, x))
    # the tape builds the same batch expression, so the batches agree bit for bit
    tape = Tape()
    got = encode_var(tape, enc, tape.constant(x))
    np.testing.assert_array_equal(got.value, encode(enc, x))
    # a single vector is a one-row batch
    np.testing.assert_array_equal(encode(enc, x[1]), encode(enc, x[1:2])[0])


def test_stacked_encode_matches_each_encoder(world):
    # the ensemble is one expression; row e is encoder e bit for bit
    encoders = list(world.train_encoders)
    x = stream_rng(2, "encode-probe").standard_normal((5, world.config.d_x))
    stacked = encode(encoders, x)
    assert stacked.shape == (len(encoders), 5, world.config.d_e)
    for e, enc in enumerate(encoders):
        np.testing.assert_array_equal(stacked[e], encode(enc, x))
        np.testing.assert_array_equal(encode(encoders, x[1])[e], encode(enc, x[1]))
    odd = make_encoder(
        "odd", seed=1, d_x=world.config.d_x, d_hidden=world.config.encoder_hidden,
        d_e=world.config.d_e + 1,
    )
    with pytest.raises(DimensionError):
        encode([encoders[0], odd], x)


def test_encoder_gradient_matches_fd(world):
    enc = world.train_encoders[0]
    rng = stream_rng(1, "encode-probe")
    x0 = rng.standard_normal(world.config.d_x)
    w = rng.standard_normal(world.config.d_e)

    def f(p):
        tape = Tape()
        x = tape.variable(p)
        out = encode_var(tape, enc, x)
        tape.backward(out, w)
        return float((out.value * w).sum()), x.grad

    report = grad_check(f, x0, tol=1e-5, name="encoder probe")
    assert report.passed, report.summary()


def test_generator_forward_var_matches_forward(world):
    gen = world.source_generator
    z = stream_rng(2, "gen-probe").standard_normal((4, gen.d_z))
    tape = Tape()
    params = {name: tape.variable(getattr(gen, name)) for name in PARAM_FIELDS}
    out = generator_forward_var(tape, params, z)
    np.testing.assert_array_equal(out.value, gen.forward(z))
    np.testing.assert_array_equal(gen.forward(z[2]), gen.forward(z[2:3])[0])
    # stacked batches run one product each, so each equals its own forward
    stacked = gen.forward(np.stack([z, z[::-1]]))
    np.testing.assert_array_equal(stacked[1], gen.forward(z[::-1]))
    with pytest.raises(DimensionError, match="latents must have 1 to 3 axes"):
        gen.forward(z[None, None])
    with pytest.raises(DimensionError, match="latent has length"):
        gen.forward(z[..., :-1][None])


def test_stacked_generators_encodings_and_projections_equal_their_slices(world, subspaces):
    source = world.source_generator
    rng = stream_rng(4, "gen-probe")
    stack = flatten_generator(source) * (1.0 + 0.1 * rng.standard_normal((3, 1)))
    z = rng.standard_normal((1024, source.d_z))  # the held-out products run in row blocks
    x = forward_stack(stack, source, z)
    assert x.shape == (3, 1024, source.d_x)
    enc = world.held_out_encoder
    f = encode(enc, x)
    sub = subspaces[enc.encoder_id]["attr0"]
    projected = project(sub, f)
    for s, flat in enumerate(stack):
        alone = unflatten_generator(flat, source).forward(z)
        np.testing.assert_array_equal(x[s], alone)
        np.testing.assert_array_equal(f[s], encode(enc, alone))
        np.testing.assert_array_equal(projected[s], project(sub, f[s]))
    # an ensemble takes no stacked rows: its own leading axis is the encoders'
    with pytest.raises(DimensionError, match="inputs must have 1 to 2 axes"):
        encode(world.train_encoders, x)
    with pytest.raises(DimensionError):
        project(sub, f[None])


def _mlp_out_of_place(w1, b1, w2, b2, x, act):
    """``act(x @ w1.T + b1) @ w2.T + b2`` with every step on a new array."""
    hidden = act(x @ np.swapaxes(w1, -1, -2) + b1)
    return hidden @ np.swapaxes(w2, -1, -2) + b2


def test_in_place_forward_encode_and_project_equal_their_out_of_place_forms(
    world, subspaces, monkeypatch
):
    source, enc = world.source_generator, world.held_out_encoder
    sub = subspaces[enc.encoder_id]["attr0"]
    rng = stream_rng(6, "gen-probe")
    stack = flatten_generator(source) * (1.0 + 0.1 * rng.standard_normal((2, 1)))
    views = worlds.generator_views(stack, source)
    ensemble = stack_encoders(world.train_encoders)
    fresh = []

    def spy(x):
        fresh.append(x.flags.owndata)
        return _relu(x)

    def relu(x):
        return np.where(x > 0.0, x, 0.0)

    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    monkeypatch.setattr(worlds, "_relu", spy)
    # one row, and batches either side of 2^18 multiply-adds with a 32 x 32 weight
    rows = (1, 256, 257, 1025)
    gen = (source.w1, source.b1[None], source.w2, source.b2[None])
    stacked_gen = (views["w1"], views["b1"][:, None], views["w2"], views["b2"][:, None])
    weights = (enc.w1, enc.b1, enc.w2, enc.b2)
    for n in rows:
        z = rng.standard_normal((n, source.d_z))
        for z_in in (z[:1], z, np.stack([z, z[::-1]])):
            same(source.forward(z_in), _mlp_out_of_place(*gen, z_in, np.tanh))
        # a vector runs as a one-row batch
        same(source.forward(z[0]), _mlp_out_of_place(*gen, z[:1], np.tanh)[0])
        x = forward_stack(stack, source, z)
        same(x, _mlp_out_of_place(*stacked_gen, z, np.tanh))
        for x_in in (x[0], x):
            same(encode(enc, x_in), _mlp_out_of_place(*weights, x_in, relu))
        same(encode(enc, x[0, 0]), _mlp_out_of_place(*weights, x[0, :1], relu)[0])
        same(encode(world.train_encoders, x[0]), _mlp_out_of_place(*ensemble, x[0], relu))
        f = encode(enc, x)
        for p in (f[0, 0], f[0], f):
            same(project(sub, p), (p - sub.mean) @ sub.basis @ sub.basis.T + sub.mean)
    # _relu writes over its argument, so each caller passes one it allocated
    assert len(fresh) == 5 * len(rows) and all(fresh)


def test_encoders_are_genuinely_different(world):
    ids = world.train_encoder_ids + (world.held_out_encoder.encoder_id,)
    x = stream_rng(3, "encode-probe").standard_normal((20, world.config.d_x))
    embeddings = [encode(world.encoder(eid), x) for eid in ids]
    for i in range(len(embeddings)):
        for j in range(i + 1, len(embeddings)):
            assert not np.allclose(embeddings[i], embeddings[j])


def test_held_out_encoder_is_not_a_training_encoder(world):
    assert world.held_out_encoder.encoder_id not in world.train_encoder_ids
    assert len(world.train_encoder_ids) == world.config.n_train_encoders


def test_make_encoder_is_seeded(world):
    a = make_encoder("probe", seed=9, **STOCK_ENCODER)
    b = make_encoder("probe", seed=9, **STOCK_ENCODER)
    c = make_encoder("probe", seed=10, **STOCK_ENCODER)
    np.testing.assert_array_equal(a.w1, b.w1)
    assert not np.array_equal(a.w1, c.w1)


def test_encoder_stack_draws_each_encoder_from_its_own_stream():
    seeds = (9, 10, 2**64 - 1)
    d_x, h, d_e = STOCK_ENCODER["d_x"], STOCK_ENCODER["d_hidden"], STOCK_ENCODER["d_e"]
    for spec, seed in zip(make_encoders(("a", "b", "c"), seeds, **STOCK_ENCODER), seeds):
        rng = stream_rng(seed, "encoder-init")
        want = (
            rng.standard_normal((h, d_x)) / np.sqrt(d_x),
            rng.standard_normal(h) * 0.1 + ENCODER_BIAS_CENTER,
            rng.standard_normal((d_e, h)) / np.sqrt(h),
            np.zeros(d_e),
        )
        for name, expected in zip(PARAM_FIELDS, want):
            got = getattr(spec, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert not got.flags.writeable
    with pytest.raises(ConfigError, match="2 encoder ids but 1 seeds"):
        make_encoders(("a", "b"), (9,), **STOCK_ENCODER)


def test_save_load_world_round_trip(tmp_path, world):
    out = tmp_path / "world"
    save_world(world, out)
    back = load_world(out)
    np.testing.assert_array_equal(back.source_generator.w1, world.source_generator.w1)
    np.testing.assert_array_equal(back.held_out_encoder.b1, world.held_out_encoder.b1)
    assert back.train_encoder_ids == world.train_encoder_ids
    for domain_id, refs in world.references.items():
        np.testing.assert_array_equal(back.references[domain_id], refs)
    assert [d.domain_id for d in back.domains] == [d.domain_id for d in world.domains]


def test_save_world_refuses_a_nan_and_leaves_no_file(tmp_path, world):
    bad = replace(world, config=replace(world.config, output_gain=float("nan")))
    out = tmp_path / "world"
    path = re.escape(str(out / "world.json"))
    with pytest.raises(NumericalError, match=f"{path}: refusing to write a non-finite"):
        save_world(bad, out)
    assert not out.exists()


def test_world_config_json_round_trip():
    config = default_world_config(seed=17)
    back = read_object(WorldConfig, json_doc(config), "world config")
    assert back.seed == 17
    assert back.d_e == config.d_e
    assert len(back.domains) == 2
    np.testing.assert_array_equal(
        back.domains[1].attribute_shift, config.domains[1].attribute_shift
    )


def test_optional_transform_reads_null_and_a_matrix():
    doc = json_doc(default_world_config().domains[0])
    assert doc["attribute_transform"] is None
    assert read_object(SyntheticDomainSpec, doc, "domain").attribute_transform is None
    eye = np.eye(len(doc["attribute_shift"]))
    back = read_object(SyntheticDomainSpec, {**doc, "attribute_transform": eye.tolist()}, "domain")
    np.testing.assert_array_equal(back.attribute_transform, eye)
    with pytest.raises(ConfigError, match="attribute_transform must be a rectangular list"):
        read_object(SyntheticDomainSpec, {**doc, "attribute_transform": "eye"}, "domain")


@pytest.mark.parametrize(
    "cls, key, value",
    [
        ("AdaptationConfig", "steps", "2.5"),
        ("AdaptationConfig", "steps", '"300"'),
        ("AdaptationConfig", "lambda", '"0.5"'),
        ("AdaptationConfig", "lambda", "NaN"),
        ("AdaptationConfig", "learning_rate", "1e999"),
        ("AdaptationConfig", "encoder_ids", '"train0"'),
        ("WorldConfig", "d_z", "8.9"),
        ("WorldConfig", "seed", '"307"'),
        ("WorldConfig", "n_train_encoders", "true"),
        ("SyntheticDomainSpec", "k", "10.7"),
        ("SyntheticDomainSpec", "attribute_shift", "[[1, 2], [3]]"),
        ("DomainWeight", "alhpa", "0.5"),
        ("GeneratorParams", "w3", "[1]"),
    ],
)
def test_typed_reader_rejects_malformed_values_naming_the_key(world, cls, key, value):
    """Each value, given as JSON text, is refused by its field's annotated type."""
    valid = {
        "AdaptationConfig": (AdaptationConfig, json_doc(default_adaptation_config(world))),
        "WorldConfig": (WorldConfig, {}),
        "SyntheticDomainSpec": (SyntheticDomainSpec, json_doc(world.domains[0])),
        "DomainWeight": (DomainWeight, {"domain_id": "attr0", "alpha": 0.5}),
        "GeneratorParams": (GeneratorParams, json_doc(world.source_generator)),
    }
    reader, doc = valid[cls]
    read_object(reader, doc, cls)
    with pytest.raises(ConfigError, match=re.escape(key)):
        read_object(reader, {**doc, key: json.loads(value)}, cls)


def test_world_accessors_validate_ids(world):
    with pytest.raises(ConfigError):
        world.encoder("nope")
    with pytest.raises(ConfigError):
        world.domain("nope")
    with pytest.raises(ConfigError):
        world.feature_set(world.held_out_encoder, "nope")


def _unequal_k_world():
    base = default_world_config()
    domains = tuple(replace(d, k=k) for d, k in zip(base.domains, (3, 10)))
    return build_world(replace(base, domains=domains))


WORLDS = {
    "stock": lambda: build_world(default_world_config()),
    "seed 11": lambda: build_world(default_world_config(seed=11)),
    "seed 12": lambda: build_world(default_world_config(seed=12)),
    "k 3 and 10": _unequal_k_world,
}


@pytest.mark.parametrize("make_world", WORLDS.values(), ids=list(WORLDS))
def test_cached_feature_sets_equal_the_per_slot_path(make_world):
    """One stacked encode per world gives each slot's features and subspace bit for bit."""
    world = make_world()
    subspaces = build_world_subspaces(world)
    for enc in (*world.train_encoders, world.held_out_encoder):
        for domain_id, refs in world.references.items():
            want = FeatureSet(encode(enc, refs), domain_id=domain_id)
            got = world.feature_set(enc, domain_id)
            assert got.domain_id == domain_id
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.mean, want.mean)
            assert world.feature_set(enc, domain_id) is got
            sub, per_slot = subspaces[enc.encoder_id][domain_id], build_subspace(want)
            for name in ("mean", "basis", "singular_values"):
                np.testing.assert_array_equal(getattr(sub, name), getattr(per_slot, name))


def _reference_subspace(fs: FeatureSet) -> dict:
    """The per-set build: one 2-D thin SVD of the set's centred features."""
    _, svals, vt = np.linalg.svd(fs.features - fs.mean, full_matrices=False)
    rank = min(int(np.count_nonzero(svals > RANK_TOLERANCE * svals[0])), fs.k - 1)
    return {"mean": fs.mean, "basis": np.array(vt[:rank].T), "singular_values": svals[:rank]}


STACKED_WORLDS = {
    "seeds 307-406": lambda: [build_world(default_world_config(s)) for s in range(307, 407)],
    "k 3 and 10": lambda: [_unequal_k_world()],
}


@pytest.mark.parametrize("make_worlds", STACKED_WORLDS.values(), ids=list(STACKED_WORLDS))
def test_stacked_subspaces_equal_per_set_builds(make_worlds):
    """One stacked SVD per domain gives each subspace the bits and layout of its own 2-D SVD."""
    for world in make_worlds():
        subspaces = build_world_subspaces(world)
        for enc in (*world.train_encoders, world.held_out_encoder):
            for domain_id in world.references:
                sub = subspaces[enc.encoder_id][domain_id]
                for name, want in _reference_subspace(world.feature_set(enc, domain_id)).items():
                    got = getattr(sub, name)
                    assert got.shape == want.shape and got.strides == want.strides
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable


def _per_encoder_separability(world, encoder_ids, domain_ids) -> dict[str, float]:
    """The precheck one encoder at a time, each set encoded and built on its own."""
    ratios = {}
    for encoder_id in encoder_ids:
        enc = world.encoder(encoder_id)
        sets = [FeatureSet(encode(enc, world.references[d]), domain_id=d) for d in domain_ids]
        ratios[encoder_id] = separation_ratio(sets)
    failing = {eid: r for eid, r in ratios.items() if not r > SEPARABILITY_THRESHOLD}
    if failing:
        worst = min(failing, key=failing.get)
        raise DegenerateDomain(
            f"domains are not separable under encoder {worst!r}: "
            f"ratio {failing[worst]:.3f} <= {SEPARABILITY_THRESHOLD} "
            f"(all ratios: { {k: round(v, 3) for k, v in ratios.items()} })"
        )
    return ratios


@pytest.mark.parametrize("make_worlds", STACKED_WORLDS.values(), ids=list(STACKED_WORLDS))
def test_stacked_precheck_equals_the_per_encoder_ratios(make_worlds):
    """One stacked ratio call gives each encoder's ratio, or the refusal, of its own call."""
    worlds = make_worlds()
    refused = 0
    for world in worlds:
        domain_ids = tuple(world.references)
        for encoder_ids in (world.train_encoder_ids, world.train_encoder_ids[::-2]):
            try:
                want = _per_encoder_separability(world, encoder_ids, domain_ids)
            except DegenerateDomain as exc:
                refused += 1
                with pytest.raises(DegenerateDomain) as got:
                    check_separability(world, encoder_ids, domain_ids)
                assert str(got.value) == str(exc)
            else:
                got = check_separability(world, encoder_ids, domain_ids)
                assert got == want  # exact float equality
                assert list(got) == list(encoder_ids)
    assert refused or len(worlds) == 1  # the block holds worlds that fail the threshold


@pytest.mark.parametrize("make_world, svd_calls", [(WORLDS["stock"], 1), (_unequal_k_world, 2)],
                         ids=["stock", "k 3 and 10"])
def test_world_subspaces_take_one_svd_per_reference_count(make_world, svd_calls, monkeypatch):
    """Every (encoder, domain) set of one k goes through one stacked SVD."""
    world = make_world()
    calls = []
    real = subspace.np.linalg.svd
    monkeypatch.setattr(
        subspace.np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or real(a, **kw)
    )
    build_world_subspaces(world)
    n_sets = 4 * len(world.references)
    assert len(calls) == svd_calls
    assert sum(shape[0] for shape in calls) == n_sets


def test_world_refuses_duplicate_encoder_ids(world):
    train = world.train_encoders
    # two training encoders with one id, and a training encoder named like the held-out one
    twins = (train[0], replace(train[1], encoder_id="train0"))
    with pytest.raises(ConfigError, match=re.escape("ids: ['train0', 'train0', 'heldout']")):
        replace(world, train_encoders=twins)
    for held_out in (train[2], replace(world.held_out_encoder, encoder_id="train2")):
        with pytest.raises(ConfigError, match="duplicate encoder ids"):
            replace(world, held_out_encoder=held_out)


def test_world_subspaces_name_a_single_shot_domain():
    base = default_world_config()
    world = build_world(replace(base, domains=(base.domains[0], replace(base.domains[1], k=1))))
    with pytest.raises(DegenerateDomain, match="^attr1: 1 reference"):
        build_world_subspaces(world)


def test_world_references_are_locked_copies_and_foreign_specs_refused(world):
    for refs in world.references.values():
        with pytest.raises(ValueError):
            refs[0, 0] = 0.0
    mine = {d: np.array(refs) for d, refs in world.references.items()}
    copy = replace(world, references=mine)
    mine["attr0"][0, 0] += 1.0
    np.testing.assert_array_equal(copy.references["attr0"], world.references["attr0"])
    # equal weights under the same id are still not this world's spec
    with pytest.raises(ConfigError, match="not this world's own spec"):
        world.feature_set(replace(world.held_out_encoder), "attr0")
    with pytest.raises(ConfigError, match="unknown encoder"):
        world.feature_set(make_encoder("stranger", seed=1, **STOCK_ENCODER), "attr0")


def test_relu_matches_where_bit_for_bit_in_place():
    values = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, 2.5, 5e-324, -5e-324, 1e308, -1e308]
    x = np.array([values, values[::-1]])
    expected = np.where(x > 0.0, x, 0.0)
    out = _relu(x)
    assert out is x  # written over its fresh argument
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
    assert not np.signbit(out).any() and not np.isnan(out).any()
