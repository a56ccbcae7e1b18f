"""Synthetic stand-ins for the pretrained assets.

The generator is a small trainable MLP ``z -> tanh -> x``; encoders are
frozen random MLPs ``x -> relu -> f`` that play the role of pretrained
feature extractors.  Domains are defined directly in generator output
space by an attribute shift (plus optional linear transform and noise),
so reference sets can be sampled without any real data.

The generator and encoders evaluate a ``(n, d)`` batch as one matrix
expression, ``act(x @ w1.T + b1) @ w2.T + b2``, each product one
serial BLAS call per matrix slice (the package pins OpenBLAS to one
thread); each bias and activation is applied in place on the product
just allocated, with the bits of the out-of-place expression.  A single vector goes through the same
expression as a one-row batch.  The tape versions
(:func:`generator_forward_var`, :func:`encode_var`) build the identical
expression, so on the same batch they agree with the numpy functions
bit for bit.
"""
from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .files import json_doc, read_document, read_feature_csv, write_csv, write_json
from .seeding import derive_seed, stream_rng
from .subspace import DomainSubspace, FeatureSet, assemble, build_subspace, locked_array

Array = np.ndarray

PARAM_FIELDS = ("w1", "b1", "w2", "b2")

_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+")

WORLD_FILE = "world.json"

#: Default master seed.  Random relu encoders distort distances by tens of
#: percent, so the stock seed is one where both stock domains (and each
#: domain against the source cluster) clear the 3x separability precheck
#: under every training encoder and the stock adaptation configs converge
#: on the held-out encoder for single-domain and hybrid runs alike.
DEFAULT_WORLD_SEED = 307

#: Hidden-bias center for stock encoders.  Centering the relu pre-activation
#: at +2 keeps most units active on the data region, so different encoders
#: agree on which x-space hull the reference subspaces describe; zero-centered
#: biases leave half the units dead and adaptation stops transferring to
#: encoders outside the training ensemble.
ENCODER_BIAS_CENTER = 2.0


def _check_identifier(name: str, kind: str) -> str:
    if not isinstance(name, str) or not _ID_PATTERN.fullmatch(name):
        raise ConfigError(f"{kind} id {name!r} must match [A-Za-z0-9._-]+")
    return name


def _lock_mlp(obj, prefix: str) -> None:
    """Lock ``obj``'s two-layer weights ``w1, b1, w2, b2`` as checked read-only copies.

    ``w1`` is ``(d_h, d_in)``, ``b1`` ``(d_h,)``, ``w2`` ``(d_out, d_h)`` and
    ``b2`` ``(d_out,)``; ``prefix`` starts each error's array name.
    """
    w1 = locked_array(obj.w1, f"{prefix}w1", ndim=2)
    b1 = locked_array(obj.b1, f"{prefix}b1", shape=(w1.shape[0],))
    w2 = np.array(obj.w2, dtype=np.float64)
    if w2.ndim != 2 or w2.shape[1] != w1.shape[0]:
        raise DimensionError(
            f"{prefix}w2 must have {w1.shape[0]} columns, got shape {w2.shape}"
        )
    w2 = locked_array(w2, f"{prefix}w2")
    b2 = locked_array(obj.b2, f"{prefix}b2", shape=(w2.shape[0],))
    for name, arr in zip(PARAM_FIELDS, (w1, b1, w2, b2)):
        object.__setattr__(obj, name, arr)


def _relu(x: Array) -> Array:
    """``np.where(x > 0.0, x, 0.0)``, bit for bit, written over ``x``: pass a fresh array."""
    np.copyto(x, 0.0, where=~(x > 0.0))
    return x


def _rows(x, width: int, kind: str, max_ndim: int = 2) -> Array:
    """``x`` as a float vector or ``(..., n, width)`` rows of at most ``max_ndim`` axes, checked."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= x.ndim <= max_ndim:
        raise DimensionError(f"{kind}s must have 1 to {max_ndim} axes, got shape {x.shape}")
    if x.shape[-1] != width:
        raise DimensionError(f"{kind} has length {x.shape[-1]}, expected {width}")
    return x


@dataclass(frozen=True)
class GeneratorParams:
    """Two-layer MLP ``x = w2 @ tanh(w1 @ z + b1) + b2``."""

    w1: Array
    b1: Array
    w2: Array
    b2: Array

    def __post_init__(self):
        _lock_mlp(self, "")

    @property
    def d_z(self) -> int:
        return self.w1.shape[1]

    @property
    def d_h(self) -> int:
        return self.w1.shape[0]

    @property
    def d_x(self) -> int:
        return self.w2.shape[0]

    def forward(self, z) -> Array:
        """Outputs of a ``(d_z,)`` latent, ``(n, d_z)`` rows or ``(S, n, d_z)`` stacked batches.

        Each batch of a stack equals its own forward bit for bit: the
        products run as one BLAS call per batch.
        """
        z = _rows(z, self.d_z, "latent", max_ndim=3)
        x = _generator_forward(self.w1, self.b1, self.w2, self.b2, np.atleast_2d(z))
        return x[0] if z.ndim == 1 else x

    def to_dict(self) -> dict[str, Array]:
        return {name: np.array(getattr(self, name)) for name in PARAM_FIELDS}


def _generator_forward(w1, b1, w2, b2, z: Array) -> Array:
    """``tanh(z @ w1.T + b1) @ w2.T + b2`` for one generator's weights or ``(S, ...)`` stacks.

    ``z`` is ``(n, d_z)`` rows or ``(S, n, d_z)`` stacked batches.  Each
    product is one BLAS call per slice, so each slice equals the 2-D
    expression of its own weights and batch bit for bit.
    """
    hidden = z @ w1.swapaxes(-1, -2)
    hidden += b1[..., None, :]
    x = np.tanh(hidden, out=hidden) @ w2.swapaxes(-1, -2)
    x += b2[..., None, :]
    return x


def flatten_generator(gen: GeneratorParams) -> Array:
    return np.concatenate([np.asarray(getattr(gen, name)).ravel() for name in PARAM_FIELDS])


def generator_views(flat: Array, like: GeneratorParams) -> dict[str, Array]:
    """Named views into ``flat``, in :func:`flatten_generator`'s layout, shaped as ``like``'s.

    ``flat`` is one vector or an ``(S, P)`` stack of them, whose views
    then have a leading axis of ``S``.  Writing into ``flat`` changes the
    views, so they are built once per vector.
    """
    views, offset = {}, 0
    for name in PARAM_FIELDS:
        shape = getattr(like, name).shape
        size = math.prod(shape)
        views[name] = flat[..., offset : offset + size].reshape(*flat.shape[:-1], *shape)
        offset += size
    if offset != flat.shape[-1]:
        raise DimensionError(f"flat vector has {flat.shape[-1]} entries, expected {offset}")
    return views


def forward_stack(stack: Array, like: GeneratorParams, z: Array) -> Array:
    """``(S, n, d_x)`` outputs of ``(n, d_z)`` latents under each generator of an ``(S, P)`` stack.

    Row ``s`` of ``stack`` is a :func:`flatten_generator` vector shaped as
    ``like``'s, and slice ``s`` of the result equals
    ``unflatten_generator(stack[s], like).forward(z)`` bit for bit.
    """
    return _generator_forward(**generator_views(stack, like), z=z)


def unflatten_generator(flat: Array, like: GeneratorParams) -> GeneratorParams:
    """A generator holding copies of ``flat``'s entries, shaped as ``like``'s."""
    return GeneratorParams(**generator_views(np.asarray(flat, dtype=np.float64), like))


@dataclass(frozen=True)
class EncoderSpec:
    """Frozen random MLP ``f = w2 @ relu(w1 @ x + b1) + b2``."""

    encoder_id: str
    w1: Array
    b1: Array
    w2: Array
    b2: Array

    def __post_init__(self):
        _check_identifier(self.encoder_id, "encoder")
        _lock_mlp(self, "encoder ")

    @property
    def d_x(self) -> int:
        return self.w1.shape[1]

    @property
    def d_e(self) -> int:
        return self.w2.shape[0]


def make_encoder(encoder_id: str, seed: int, d_x: int, d_hidden: int, d_e: int) -> EncoderSpec:
    """Encoder weights are a pure function of ``(seed, dims)``: :func:`make_encoders` of one."""
    return make_encoders((encoder_id,), (seed,), d_x, d_hidden, d_e)[0]


def make_encoders(
    encoder_ids, seeds, d_x: int, d_hidden: int, d_e: int
) -> tuple[EncoderSpec, ...]:
    """One encoder per ``(encoder_id, seed)``, its weights a pure function of ``(seed, dims)``.

    From the seed's ``"encoder-init"`` stream, in this order: ``w1`` is
    ``N(0, 1)`` over ``sqrt(d_x)``, ``b1`` is ``N(0, 1)`` times 0.1 plus
    :data:`ENCODER_BIAS_CENTER`, and ``w2`` is ``N(0, 1)`` over
    ``sqrt(d_hidden)``; ``b2`` is zero.  Each encoder draws into weight
    stacks along a leading encoder axis, which are scaled, locked and
    checked once; each spec holds views into them.
    """
    if min(d_x, d_hidden, d_e) < 1:
        raise ConfigError("encoder dimensions must be positive")
    ids = [_check_identifier(encoder_id, "encoder") for encoder_id in encoder_ids]
    n = len(ids)
    if len(seeds) != n:
        raise ConfigError(f"{n} encoder ids but {len(seeds)} seeds")
    w1 = np.empty((n, d_hidden, d_x))
    b1 = np.empty((n, d_hidden))
    w2 = np.empty((n, d_e, d_hidden))
    for i, seed in enumerate(seeds):
        rng = stream_rng(seed, "encoder-init")
        for out in (w1[i], b1[i], w2[i]):
            rng.standard_normal(out=out)
    w1 /= np.sqrt(d_x)
    b1 *= 0.1
    b1 += ENCODER_BIAS_CENTER
    w2 /= np.sqrt(d_hidden)
    stacks = [
        locked_array(arr, f"encoder {name}")
        for name, arr in zip(PARAM_FIELDS, (w1, b1, w2, np.zeros((n, d_e))))
    ]
    return tuple(
        assemble(
            EncoderSpec,
            encoder_id=encoder_id,
            **{name: stack[i] for name, stack in zip(PARAM_FIELDS, stacks)},
        )
        for i, encoder_id in enumerate(ids)
    )


def encode(encoders, x) -> Array:
    """Features of a ``(d_x,)`` vector or ``(n, d_x)`` rows.

    ``encoders`` is one spec, giving ``(d_e,)`` or ``(n, d_e)``, or a
    sequence of specs of one shape.  A sequence runs as one expression
    over weights stacked along a leading ensemble axis, giving
    ``(E, d_e)`` or ``(E, n, d_e)``, and row ``e`` equals ``encode``
    under encoder ``e`` bit for bit.  One spec also takes ``(S, n, d_x)``
    stacked rows, giving ``(S, n, d_e)``, each slice equal to its own
    ``encode`` bit for bit.
    """
    w1, b1, w2, b2 = _encoder_weights(encoders)
    x = _rows(x, w1.shape[-1], "input", max_ndim=3 if w1.ndim == 2 else 2)
    hidden = np.atleast_2d(x) @ np.swapaxes(w1, -1, -2)
    hidden += b1
    f = _relu(hidden) @ np.swapaxes(w2, -1, -2)
    f += b2
    return f[..., 0, :] if x.ndim == 1 else f


def generator_forward_var(tape, param_vars: dict, z):
    """Tape version of :meth:`GeneratorParams.forward`; bit-identical on a batch."""
    zc = tape.constant(z)
    hidden = ad.tanh(ad.add(ad.linear(zc, param_vars["w1"]), param_vars["b1"]))
    return ad.add(ad.linear(hidden, param_vars["w2"]), param_vars["b2"])


def stack_encoders(encoders) -> tuple[Array, Array, Array, Array]:
    """``w1, b1, w2, b2`` of encoders of one shape, stacked along a leading ensemble axis.

    The biases get a row axis, ``(E, 1, h)``, to broadcast over ``(E, B, h)`` rows.
    """
    shapes = {tuple(getattr(e, n).shape for n in PARAM_FIELDS) for e in encoders}
    if len(shapes) != 1:
        raise DimensionError(f"an encoder ensemble needs one weight shape, got {shapes}")
    w1, b1, w2, b2 = (np.array([getattr(e, n) for e in encoders]) for n in PARAM_FIELDS)
    return w1, b1[:, None], w2, b2[:, None]


def _encoder_weights(encoders) -> tuple[Array, Array, Array, Array]:
    """One spec's ``w1, b1, w2, b2``, or a sequence's stacked by :func:`stack_encoders`."""
    if isinstance(encoders, EncoderSpec):
        return tuple(getattr(encoders, name) for name in PARAM_FIELDS)
    return stack_encoders(encoders)


def encode_var(tape, encoder: EncoderSpec, x):
    """Tape version of :func:`encode` for one spec; bit-identical on a batch."""
    hidden = ad.relu(ad.add(ad.linear(x, tape.constant(encoder.w1)), tape.constant(encoder.b1)))
    return ad.add(ad.linear(hidden, tape.constant(encoder.w2)), tape.constant(encoder.b2))


@dataclass(frozen=True)
class SyntheticDomainSpec:
    """Target domain defined in generator output space."""

    domain_id: str
    attribute_shift: Array  # (d_x,)
    attribute_transform: Array | None = None  # (d_x, d_x)
    noise_scale: float = 0.2
    k: int = 10

    def __post_init__(self):
        _check_identifier(self.domain_id, "domain")
        shift = locked_array(self.attribute_shift, "attribute_shift", ndim=1)
        object.__setattr__(self, "attribute_shift", shift)
        if self.attribute_transform is not None:
            d = shift.shape[0]
            t = locked_array(self.attribute_transform, "attribute_transform", shape=(d, d))
            object.__setattr__(self, "attribute_transform", t)
        if self.noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    @property
    def d_x(self) -> int:
        return self.attribute_shift.shape[0]


def sample_domain_references(
    source_gen: GeneratorParams, domain: SyntheticDomainSpec, seed: int
) -> Array:
    """Draw ``k`` reference vectors ``T(G(z)) + shift + noise`` in x-space."""
    if domain.d_x != source_gen.d_x:
        raise DimensionError(
            f"domain lives in dimension {domain.d_x}, generator outputs {source_gen.d_x}"
        )
    rng = stream_rng(seed, "references", domain.domain_id)
    z = rng.standard_normal((domain.k, source_gen.d_z))
    x = source_gen.forward(z)
    if domain.attribute_transform is not None:
        x = x @ domain.attribute_transform.T
    x = x + domain.attribute_shift
    x = x + domain.noise_scale * rng.standard_normal((domain.k, domain.d_x))
    return x


def sample_source_points(source_gen: GeneratorParams, k: int, seed: int) -> Array:
    """Plain source samples, used as the reference cluster for the source."""
    rng = stream_rng(seed, "source-points")
    z = rng.standard_normal((int(k), source_gen.d_z))
    return source_gen.forward(z)


def _default_domains(d_x: int) -> tuple[SyntheticDomainSpec, ...]:
    shifts = []
    for axis, name in ((0, "attr0"), (1, "attr1")):
        shift = np.zeros(d_x)
        shift[axis] = 5.0
        shifts.append(SyntheticDomainSpec(domain_id=name, attribute_shift=shift))
    return tuple(shifts)


@dataclass(frozen=True)
class WorldConfig:
    """Everything needed to rebuild a world deterministically."""

    seed: int = DEFAULT_WORLD_SEED
    d_z: int = 8
    d_h: int = 32
    d_x: int = 32
    d_e: int = 16
    encoder_hidden: int = 32
    n_train_encoders: int = 3
    output_gain: float = 0.3
    domains: tuple[SyntheticDomainSpec, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if min(self.d_z, self.d_h, self.d_x, self.d_e, self.encoder_hidden) < 1:
            raise ConfigError("all dimensions must be positive")
        if self.n_train_encoders < 1:
            raise ConfigError("need at least one training encoder")
        domains = tuple(self.domains) or _default_domains(self.d_x)
        ids = [d.domain_id for d in domains]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate domain ids: {ids}")
        for d in domains:
            if d.d_x != self.d_x:
                raise DimensionError(
                    f"domain {d.domain_id} has dimension {d.d_x}, world uses {self.d_x}"
                )
        object.__setattr__(self, "domains", domains)


def make_source_generator(
    seed: int,
    d_z: int = WorldConfig.d_z,
    d_h: int = WorldConfig.d_h,
    d_x: int = WorldConfig.d_x,
    output_gain: float = WorldConfig.output_gain,
) -> GeneratorParams:
    """Frozen source generator with O(0.1) per-coordinate output spread; stock sizes by default."""
    if min(d_z, d_h, d_x) < 1:
        raise ConfigError("generator dimensions must be positive")
    rng = stream_rng(seed, "generator-init")
    w1 = rng.standard_normal((d_h, d_z)) / np.sqrt(d_z)
    b1 = np.zeros(d_h)
    w2 = rng.standard_normal((d_x, d_h)) * (output_gain / np.sqrt(d_h))
    b2 = np.zeros(d_x)
    return GeneratorParams(w1=w1, b1=b1, w2=w2, b2=b2)


def default_world_config(seed: int = DEFAULT_WORLD_SEED) -> WorldConfig:
    """Two orthogonal attribute shifts of size 5, noise 0.2, 10 shots."""
    return WorldConfig(seed=seed)


@dataclass(frozen=True)
class World:
    """Realized synthetic assets: generator, encoder bank, reference sets."""

    config: WorldConfig
    source_generator: GeneratorParams
    train_encoders: tuple[EncoderSpec, ...]
    held_out_encoder: EncoderSpec
    references: dict[str, Array]  # domain_id -> (k, d_x), read-only copies

    def __post_init__(self):
        # locked copies, so the features cached from them cannot go stale
        references = {
            d: locked_array(refs, f"references {d}", ndim=2) for d, refs in self.references.items()
        }
        object.__setattr__(self, "references", references)
        encoders = (*self.train_encoders, self.held_out_encoder)
        by_id = {enc.encoder_id: enc for enc in encoders}
        if len(by_id) != len(encoders):
            raise ConfigError(f"duplicate encoder ids: {[enc.encoder_id for enc in encoders]}")
        object.__setattr__(self, "_encoders", by_id)

    @property
    def domains(self) -> tuple[SyntheticDomainSpec, ...]:
        return self.config.domains

    def domain(self, domain_id: str) -> SyntheticDomainSpec:
        for d in self.config.domains:
            if d.domain_id == domain_id:
                return d
        raise ConfigError(f"unknown domain id {domain_id!r}")

    def encoder(self, encoder_id: str) -> EncoderSpec:
        try:
            return self._encoders[encoder_id]
        except KeyError:
            raise ConfigError(f"unknown encoder id {encoder_id!r}") from None

    @property
    def train_encoder_ids(self) -> tuple[str, ...]:
        return tuple(enc.encoder_id for enc in self.train_encoders)

    def feature_set(self, encoder: EncoderSpec, domain_id: str) -> FeatureSet:
        """``domain_id``'s reference features under ``encoder``, one of this world's own specs."""
        if domain_id not in self.references:
            raise ConfigError(f"unknown domain id {domain_id!r}")
        if self.encoder(encoder.encoder_id) is not encoder:
            raise ConfigError(f"encoder {encoder.encoder_id!r} is not this world's own spec")
        return self._feature_sets[encoder.encoder_id][domain_id]

    def held_out_targets(self, subspaces, domain_ids) -> tuple[dict, dict]:
        """The held-out encoder's subspaces and the references of ``domain_ids``, by domain id.

        ``subspaces`` maps encoder ids to their subspaces by domain id, as
        :func:`build_world_subspaces` of this world does.  A domain the
        world lacks is a :class:`ConfigError`, and so, after every domain
        is checked, is a domain without a held-out subspace.
        """
        for domain_id in domain_ids:
            self.domain(domain_id)
        encoder_id = self.held_out_encoder.encoder_id
        held_out = subspaces.get(encoder_id, {})
        missing = [d for d in domain_ids if d not in held_out]
        if missing:
            raise ConfigError(f"missing subspaces for encoder {encoder_id!r}, domains {missing}")
        return {d: held_out[d] for d in domain_ids}, {d: self.references[d] for d in domain_ids}

    @property
    def _k_groups(self) -> dict[int, list[str]]:
        """Reference count ``k`` -> the ids of the domains with ``k`` references, in order."""
        groups: dict[int, list[str]] = {}
        for domain_id, refs in self.references.items():
            groups.setdefault(refs.shape[0], []).append(domain_id)
        return groups

    @functools.cached_property
    def _feature_sets(self) -> dict[str, dict[str, FeatureSet]]:
        """``encoder_id -> domain_id ->`` features: every encoder on all references at once.

        Each :attr:`_k_groups` group's ``(encoders, domains, k, d_e)`` block
        of one stacked encode is one :meth:`FeatureSet.stack`.
        """
        encoders = (*self.train_encoders, self.held_out_encoder)
        groups = self._k_groups
        refs = [self.references[d] for ids in groups.values() for d in ids]
        stacked = encode(encoders, np.concatenate(refs))
        out: dict[str, dict[str, FeatureSet]] = {enc.encoder_id: {} for enc in encoders}
        start = 0
        for k, ids in groups.items():
            block = stacked[:, start : start + len(ids) * k].reshape(len(encoders), len(ids), k, -1)
            start += len(ids) * k
            for enc, row in zip(encoders, FeatureSet.stack(block, ids)):
                out[enc.encoder_id].update(zip(ids, row))
        return out

    def source_points(self, k: int) -> Array:
        """``k`` source samples, the cluster that stands in for the source domain.

        They depend on the world seed alone, not on any encoder.
        """
        return sample_source_points(
            self.source_generator, k, derive_seed(self.config.seed, "source-cluster")
        )


def _world_models(
    config: WorldConfig,
) -> tuple[GeneratorParams, tuple[EncoderSpec, ...], EncoderSpec]:
    """The source generator, training encoders and held-out encoder ``config`` seeds."""
    source = make_source_generator(
        derive_seed(config.seed, "generator"),
        d_z=config.d_z,
        d_h=config.d_h,
        d_x=config.d_x,
        output_gain=config.output_gain,
    )
    n = config.n_train_encoders
    *train, held_out = make_encoders(
        [f"train{i}" for i in range(n)] + ["heldout"],
        [derive_seed(config.seed, "train-encoder", i) for i in range(n)]
        + [derive_seed(config.seed, "held-out-encoder")],
        d_x=config.d_x,
        d_hidden=config.encoder_hidden,
        d_e=config.d_e,
    )
    return source, tuple(train), held_out


def build_world(config: WorldConfig) -> World:
    source, train, held_out = _world_models(config)
    ref_seed = derive_seed(config.seed, "references")
    references = {
        d.domain_id: sample_domain_references(source, d, ref_seed) for d in config.domains
    }
    return World(
        config=config,
        source_generator=source,
        train_encoders=train,
        held_out_encoder=held_out,
        references=references,
    )


@dataclass(frozen=True)
class _WorldFile:
    """What ``world.json`` holds: the config the world is rebuilt from."""

    config: WorldConfig


def save_world(world: World, out_dir) -> None:
    """Write ``world.json`` and one ``references_<domain>.csv`` per domain, headed ``d,k``."""
    write_json(os.path.join(out_dir, WORLD_FILE), json_doc(_WorldFile(world.config)))
    for domain_id, refs in world.references.items():
        k, d = refs.shape
        write_csv(os.path.join(out_dir, f"references_{domain_id}.csv"), (str(d), str(k)), refs)


def load_world(world_dir) -> World:
    config = read_document(_WorldFile, os.path.join(world_dir, WORLD_FILE), "world file").config
    references = {}
    for d in config.domains:
        csv_path = os.path.join(world_dir, f"references_{d.domain_id}.csv")
        if not os.path.isfile(csv_path):
            raise ConfigError(f"{csv_path}: reference file not found")
        refs = read_feature_csv(csv_path)
        if refs.shape != (d.k, config.d_x):
            raise ConfigError(
                f"{csv_path}: expected shape {(d.k, config.d_x)}, got {refs.shape}"
            )
        references[d.domain_id] = refs
    return World(config, *_world_models(config), references)


def build_world_subspaces(world: World) -> dict[str, dict[str, DomainSubspace]]:
    """Per-(encoder, domain) subspaces for all encoders incl. the held-out one.

    One :func:`build_subspace` call per :attr:`World._k_groups` group covers
    its every (encoder, domain) set: one stacked SVD when all domains share k.
    """
    encoders = (*world.train_encoders, world.held_out_encoder)
    out = {enc.encoder_id: dict.fromkeys(world.references) for enc in encoders}
    for ids in world._k_groups.values():
        cells = [(enc, domain_id) for domain_id in ids for enc in encoders]
        subs = build_subspace([world.feature_set(enc, domain_id) for enc, domain_id in cells])
        for (enc, domain_id), sub in zip(cells, subs):
            out[enc.encoder_id][domain_id] = sub
    return out
