"""Synthetic world construction: generators, encoders, reference sampling."""

import numpy as np
import pytest

from hda import autodiff as ad
from hda.autodiff import Tape, grad_check
from hda.errors import ConfigError
from hda.seeding import stream_rng
from hda.worlds import (
    GeneratorParams,
    SyntheticDomainSpec,
    WorldConfig,
    build_world,
    default_world_config,
    encode,
    encode_var,
    flatten_generator,
    generator_forward_var,
    generator_param_vars,
    load_world,
    make_encoder,
    make_source_generator,
    make_target_generator,
    sample_domain_references,
    sample_source_points,
    save_world,
    unflatten_generator,
)


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


def test_target_starts_as_trainable_copy():
    source = make_source_generator(seed=3)
    target = make_target_generator(source)
    assert not source.trainable
    assert target.trainable
    np.testing.assert_array_equal(source.w1, target.w1)
    np.testing.assert_array_equal(source.b2, target.b2)
    assert not np.shares_memory(source.w1, target.w1)
    assert not np.shares_memory(source.b2, target.b2)


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
    back = type(gen).from_json_dict(gen.to_json_dict())
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


def test_encoder_gradient_matches_fd(world):
    enc = world.train_encoders[0]
    rng = stream_rng(1, "encode-probe")
    x0 = rng.standard_normal(world.config.d_x)
    w = rng.standard_normal(world.config.d_e)

    def f(p):
        tape = Tape()
        x = tape.variable(p)
        out = ad.dot(encode_var(tape, enc, x), tape.constant(w))
        tape.backward(out)
        return out.item(), x.grad

    report = grad_check(f, x0, tol=1e-5, name="encoder probe")
    assert report.passed, report.summary()


def test_generator_forward_var_matches_forward(world):
    gen = world.source_generator
    z = stream_rng(2, "gen-probe").standard_normal((4, gen.d_z))
    tape = Tape()
    params = generator_param_vars(tape, make_target_generator(gen))
    out = generator_forward_var(tape, params, z)
    np.testing.assert_array_equal(out.value, gen.forward(z))
    np.testing.assert_array_equal(gen.forward(z[2]), gen.forward(z[2:3])[0])


def test_generator_trainable_accepts_only_json_booleans(world):
    doc = world.source_generator.to_json_dict()
    doc["trainable"] = True
    assert GeneratorParams.from_json_dict(doc).trainable is True
    for bad in ("false", 1):
        doc["trainable"] = bad
        with pytest.raises(ConfigError, match="trainable"):
            GeneratorParams.from_json_dict(doc)


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
    a = make_encoder("probe", seed=9)
    b = make_encoder("probe", seed=9)
    c = make_encoder("probe", seed=10)
    np.testing.assert_array_equal(a.w1, b.w1)
    assert not np.array_equal(a.w1, c.w1)


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


def test_world_config_json_round_trip():
    config = default_world_config(seed=17)
    back = WorldConfig.from_json_dict(config.to_json_dict())
    assert back.seed == 17
    assert back.d_e == config.d_e
    assert len(back.domains) == 2
    np.testing.assert_array_equal(
        back.domains[1].attribute_shift, config.domains[1].attribute_shift
    )


def test_world_accessors_validate_ids(world):
    with pytest.raises(ConfigError):
        world.encoder("nope")
    with pytest.raises(ConfigError):
        world.domain("nope")
    with pytest.raises(ConfigError):
        world.feature_set(world.held_out_encoder, "nope")


def test_default_world_config_bounds():
    with pytest.raises(ConfigError):
        default_world_config(n_domains=0)
    with pytest.raises(ConfigError):
        default_world_config(n_domains=3)
