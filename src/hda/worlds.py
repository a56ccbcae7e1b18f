"""Synthetic stand-ins for the pretrained assets.

The generator is a small trainable MLP ``z -> tanh -> x``; encoders are
frozen random MLPs ``x -> relu -> f`` that play the role of pretrained
feature extractors.  Domains are defined directly in generator output
space by an attribute shift (plus optional linear transform and noise),
so reference sets can be sampled without any real data.

The generator and encoders evaluate a ``(n, d)`` batch as one matrix
expression, ``act(x @ w1.T + b1) @ w2.T + b2``, whose products run in
row blocks (:func:`autodiff.matmul_rows`); a single vector goes through
the same expression as a one-row batch.  The tape versions
(:func:`generator_forward_var`, :func:`encode_var`) build the identical
expression, so on the same batch they agree with the numpy functions
bit for bit.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .seeding import derive_seed, stream_rng
from .subspace import (
    DEFAULT_RANK_TOLERANCE,
    DomainSubspace,
    FeatureSet,
    build_subspace,
    read_feature_csv,
    write_feature_csv,
)

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


def _locked(value, shape, name) -> Array:
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _relu(x: Array) -> Array:
    return np.where(x > 0.0, x, 0.0)


def _rows(x, width: int, kind: str) -> Array:
    """``x`` as a float vector or ``(n, width)`` batch, checked."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise DimensionError(f"{kind}s must be 1- or 2-dimensional, got shape {x.shape}")
    if x.shape[-1] != width:
        raise DimensionError(f"{kind} has length {x.shape[-1]}, expected {width}")
    return x


def json_bool(data: dict, key: str) -> bool:
    """An optional JSON ``true``/``false`` field (absent means false).

    Anything else, the string ``"false"`` included, is a :class:`ConfigError`.
    """
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class GeneratorParams:
    """Two-layer MLP ``x = w2 @ tanh(w1 @ z + b1) + b2``."""

    w1: Array
    b1: Array
    w2: Array
    b2: Array
    trainable: bool = False

    def __post_init__(self):
        w1 = np.array(self.w1, dtype=np.float64)
        if w1.ndim != 2:
            raise DimensionError(f"w1 must be a matrix, got shape {w1.shape}")
        d_h, d_z = w1.shape
        w1 = _locked(w1, (d_h, d_z), "w1")
        b1 = _locked(self.b1, (d_h,), "b1")
        w2 = np.array(self.w2, dtype=np.float64)
        if w2.ndim != 2 or w2.shape[1] != d_h:
            raise DimensionError(f"w2 must have {d_h} columns, got shape {w2.shape}")
        w2 = _locked(w2, (w2.shape[0], d_h), "w2")
        b2 = _locked(self.b2, (w2.shape[0],), "b2")
        for name, arr in zip(PARAM_FIELDS, (w1, b1, w2, b2)):
            object.__setattr__(self, name, arr)

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
        z = _rows(z, self.d_z, "latent")
        hidden = np.tanh(ad.matmul_rows(np.atleast_2d(z), self.w1.T) + self.b1)
        x = ad.matmul_rows(hidden, self.w2.T) + self.b2
        return x[0] if z.ndim == 1 else x

    def to_dict(self) -> dict[str, Array]:
        return {name: np.array(getattr(self, name)) for name in PARAM_FIELDS}

    @classmethod
    def from_dict(cls, params: dict[str, Array], trainable: bool) -> "GeneratorParams":
        return cls(
            w1=params["w1"], b1=params["b1"], w2=params["w2"], b2=params["b2"],
            trainable=trainable,
        )

    def to_json_dict(self) -> dict:
        data = {name: getattr(self, name).tolist() for name in PARAM_FIELDS}
        data["trainable"] = self.trainable
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratorParams":
        try:
            return cls(
                w1=np.array(data["w1"], dtype=np.float64),
                b1=np.array(data["b1"], dtype=np.float64),
                w2=np.array(data["w2"], dtype=np.float64),
                b2=np.array(data["b2"], dtype=np.float64),
                trainable=json_bool(data, "trainable"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed generator document: {exc}") from exc


def make_source_generator(
    seed: int,
    d_z: int = 8,
    d_h: int = 32,
    d_x: int = 32,
    output_gain: float = 0.3,
) -> GeneratorParams:
    """Frozen source generator with O(0.1) per-coordinate output spread."""
    if min(d_z, d_h, d_x) < 1:
        raise ConfigError("generator dimensions must be positive")
    rng = stream_rng(seed, "generator-init")
    w1 = rng.standard_normal((d_h, d_z)) / np.sqrt(d_z)
    b1 = np.zeros(d_h)
    w2 = rng.standard_normal((d_x, d_h)) * (output_gain / np.sqrt(d_h))
    b2 = np.zeros(d_x)
    return GeneratorParams(w1=w1, b1=b1, w2=w2, b2=b2, trainable=False)


def make_target_generator(source: GeneratorParams) -> GeneratorParams:
    """Trainable deep copy of the source generator (bit-identical at step 0)."""
    return GeneratorParams(
        w1=np.array(source.w1),
        b1=np.array(source.b1),
        w2=np.array(source.w2),
        b2=np.array(source.b2),
        trainable=True,
    )


def flatten_generator(gen: GeneratorParams) -> Array:
    return np.concatenate([np.asarray(getattr(gen, name)).ravel() for name in PARAM_FIELDS])


def unflatten_generator(
    flat: Array, like: GeneratorParams, trainable: bool = True
) -> GeneratorParams:
    flat = np.asarray(flat, dtype=np.float64)
    arrays = {}
    offset = 0
    for name in PARAM_FIELDS:
        shape = getattr(like, name).shape
        size = int(np.prod(shape))
        arrays[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise DimensionError(f"flat vector has {flat.size} entries, expected {offset}")
    return GeneratorParams(trainable=trainable, **arrays)


@dataclass(frozen=True)
class EncoderSpec:
    """Frozen random MLP ``f = w2 @ relu(w1 @ x + b1) + b2``."""

    encoder_id: str
    seed: int
    w1: Array
    b1: Array
    w2: Array
    b2: Array

    def __post_init__(self):
        _check_identifier(self.encoder_id, "encoder")
        w1 = np.array(self.w1, dtype=np.float64)
        if w1.ndim != 2:
            raise DimensionError(f"encoder w1 must be a matrix, got shape {w1.shape}")
        d_h, d_x = w1.shape
        w1 = _locked(w1, (d_h, d_x), "encoder w1")
        b1 = _locked(self.b1, (d_h,), "encoder b1")
        w2 = np.array(self.w2, dtype=np.float64)
        if w2.ndim != 2 or w2.shape[1] != d_h:
            raise DimensionError(f"encoder w2 must have {d_h} columns, got {w2.shape}")
        w2 = _locked(w2, (w2.shape[0], d_h), "encoder w2")
        b2 = _locked(self.b2, (w2.shape[0],), "encoder b2")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def d_x(self) -> int:
        return self.w1.shape[1]

    @property
    def d_e(self) -> int:
        return self.w2.shape[0]


def make_encoder(
    encoder_id: str,
    seed: int,
    d_x: int = 32,
    d_hidden: int = 32,
    d_e: int = 16,
) -> EncoderSpec:
    """Encoder weights are a pure function of ``(seed, dims)``."""
    if min(d_x, d_hidden, d_e) < 1:
        raise ConfigError("encoder dimensions must be positive")
    rng = stream_rng(seed, "encoder-init")
    w1 = rng.standard_normal((d_hidden, d_x)) / np.sqrt(d_x)
    b1 = rng.standard_normal(d_hidden) * 0.1 + ENCODER_BIAS_CENTER
    w2 = rng.standard_normal((d_e, d_hidden)) / np.sqrt(d_hidden)
    b2 = np.zeros(d_e)
    return EncoderSpec(encoder_id=encoder_id, seed=int(seed), w1=w1, b1=b1, w2=w2, b2=b2)


def encode(spec: EncoderSpec, x) -> Array:
    x = _rows(x, spec.d_x, "input")
    hidden = _relu(ad.matmul_rows(np.atleast_2d(x), spec.w1.T) + spec.b1)
    f = ad.matmul_rows(hidden, spec.w2.T) + spec.b2
    return f[0] if x.ndim == 1 else f


def generator_param_vars(tape, gen: GeneratorParams) -> dict:
    """Gradient leaves for the four generator parameter arrays."""
    return {name: tape.variable(getattr(gen, name)) for name in PARAM_FIELDS}


def generator_forward_var(tape, param_vars: dict, z):
    """Tape version of :meth:`GeneratorParams.forward`; bit-identical on a batch."""
    zc = tape.constant(z)
    hidden = ad.tanh(ad.bias_add(ad.linear(zc, param_vars["w1"]), param_vars["b1"]))
    return ad.bias_add(ad.linear(hidden, param_vars["w2"]), param_vars["b2"])


def encode_var(tape, spec: EncoderSpec, x):
    """Tape version of :func:`encode`; bit-identical on a batch."""
    w1 = tape.constant(spec.w1)
    b1 = tape.constant(spec.b1)
    w2 = tape.constant(spec.w2)
    b2 = tape.constant(spec.b2)
    hidden = ad.relu(ad.bias_add(ad.linear(x, w1), b1))
    return ad.bias_add(ad.linear(hidden, w2), b2)


@dataclass(frozen=True)
class SyntheticDomainSpec:
    """Target domain defined in generator output space."""

    domain_id: str
    attribute_shift: Array  # (d_x,)
    attribute_transform: Optional[Array] = None  # (d_x, d_x)
    noise_scale: float = 0.2
    k: int = 10

    def __post_init__(self):
        _check_identifier(self.domain_id, "domain")
        shift = np.array(self.attribute_shift, dtype=np.float64)
        if shift.ndim != 1:
            raise DimensionError(f"attribute_shift must be a vector, got {shift.shape}")
        shift = _locked(shift, shift.shape, "attribute_shift")
        object.__setattr__(self, "attribute_shift", shift)
        if self.attribute_transform is not None:
            t = np.array(self.attribute_transform, dtype=np.float64)
            d = shift.shape[0]
            t = _locked(t, (d, d), "attribute_transform")
            object.__setattr__(self, "attribute_transform", t)
        if self.noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    @property
    def d_x(self) -> int:
        return self.attribute_shift.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "domain_id": self.domain_id,
            "attribute_shift": self.attribute_shift.tolist(),
            "attribute_transform": (
                None if self.attribute_transform is None else self.attribute_transform.tolist()
            ),
            "noise_scale": self.noise_scale,
            "k": self.k,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SyntheticDomainSpec":
        try:
            return cls(
                domain_id=data["domain_id"],
                attribute_shift=np.array(data["attribute_shift"], dtype=np.float64),
                attribute_transform=(
                    None
                    if data.get("attribute_transform") is None
                    else np.array(data["attribute_transform"], dtype=np.float64)
                ),
                noise_scale=float(data.get("noise_scale", 0.2)),
                k=int(data.get("k", 10)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed domain document: {exc}") from exc


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
        x = ad.matmul_rows(x, domain.attribute_transform.T)
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

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "d_z": self.d_z,
            "d_h": self.d_h,
            "d_x": self.d_x,
            "d_e": self.d_e,
            "encoder_hidden": self.encoder_hidden,
            "n_train_encoders": self.n_train_encoders,
            "output_gain": self.output_gain,
            "domains": [d.to_json_dict() for d in self.domains],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WorldConfig":
        if not isinstance(data, dict):
            raise ConfigError("world config must be a JSON object")
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                d_z=int(data.get("d_z", 8)),
                d_h=int(data.get("d_h", 32)),
                d_x=int(data.get("d_x", 32)),
                d_e=int(data.get("d_e", 16)),
                encoder_hidden=int(data.get("encoder_hidden", 32)),
                n_train_encoders=int(data.get("n_train_encoders", 3)),
                output_gain=float(data.get("output_gain", 0.3)),
                domains=tuple(
                    SyntheticDomainSpec.from_json_dict(d) for d in data.get("domains", [])
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed world config: {exc}") from exc


def default_world_config(seed: int = DEFAULT_WORLD_SEED, n_domains: int = 2) -> WorldConfig:
    """Two orthogonal attribute shifts of size 5, noise 0.2, 10 shots."""
    base = WorldConfig(seed=seed)
    if not 1 <= n_domains <= len(base.domains):
        raise ConfigError(f"n_domains must be in [1, {len(base.domains)}]")
    return replace(base, domains=base.domains[:n_domains])


@dataclass(frozen=True)
class World:
    """Realized synthetic assets: generator, encoder bank, reference sets."""

    config: WorldConfig
    source_generator: GeneratorParams
    train_encoders: tuple[EncoderSpec, ...]
    held_out_encoder: EncoderSpec
    references: dict[str, Array]  # domain_id -> (k, d_x)

    @property
    def domains(self) -> tuple[SyntheticDomainSpec, ...]:
        return self.config.domains

    def domain(self, domain_id: str) -> SyntheticDomainSpec:
        for d in self.config.domains:
            if d.domain_id == domain_id:
                return d
        raise ConfigError(f"unknown domain id {domain_id!r}")

    def encoder(self, encoder_id: str) -> EncoderSpec:
        for enc in self.train_encoders:
            if enc.encoder_id == encoder_id:
                return enc
        if encoder_id == self.held_out_encoder.encoder_id:
            return self.held_out_encoder
        raise ConfigError(f"unknown encoder id {encoder_id!r}")

    @property
    def train_encoder_ids(self) -> tuple[str, ...]:
        return tuple(enc.encoder_id for enc in self.train_encoders)

    def feature_set(self, encoder: EncoderSpec, domain_id: str) -> FeatureSet:
        refs = self.references.get(domain_id)
        if refs is None:
            raise ConfigError(f"unknown domain id {domain_id!r}")
        return FeatureSet.from_features(encode(encoder, refs), domain_id=domain_id)

    def source_feature_set(self, encoder: EncoderSpec, k: int) -> FeatureSet:
        points = sample_source_points(
            self.source_generator, k, derive_seed(self.config.seed, "source-cluster")
        )
        return FeatureSet.from_features(encode(encoder, points), domain_id="source")


def build_world(config: WorldConfig) -> World:
    source = make_source_generator(
        derive_seed(config.seed, "generator"),
        d_z=config.d_z,
        d_h=config.d_h,
        d_x=config.d_x,
        output_gain=config.output_gain,
    )
    train = tuple(
        make_encoder(
            f"train{i}",
            derive_seed(config.seed, "train-encoder", i),
            d_x=config.d_x,
            d_hidden=config.encoder_hidden,
            d_e=config.d_e,
        )
        for i in range(config.n_train_encoders)
    )
    held_out = make_encoder(
        "heldout",
        derive_seed(config.seed, "held-out-encoder"),
        d_x=config.d_x,
        d_hidden=config.encoder_hidden,
        d_e=config.d_e,
    )
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


def save_world(world: World, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    doc = {"config": world.config.to_json_dict()}
    with open(os.path.join(out_dir, WORLD_FILE), "w", encoding="utf8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for domain_id, refs in world.references.items():
        write_feature_csv(os.path.join(out_dir, f"references_{domain_id}.csv"), refs)


def load_world(world_dir) -> World:
    path = os.path.join(world_dir, WORLD_FILE)
    if not os.path.isfile(path):
        raise ConfigError(f"{path}: world file not found")
    with open(path, "r", encoding="utf8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    config = WorldConfig.from_json_dict(doc.get("config", {}))
    world = build_world(config)
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
    return World(
        config=config,
        source_generator=world.source_generator,
        train_encoders=world.train_encoders,
        held_out_encoder=world.held_out_encoder,
        references=references,
    )


def build_world_subspaces(
    world: World,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
    *,
    allow_point_subspace: bool = False,
) -> dict[str, dict[str, DomainSubspace]]:
    """Per-(encoder, domain) subspaces for all encoders incl. the held-out one."""
    out: dict[str, dict[str, DomainSubspace]] = {}
    for enc in list(world.train_encoders) + [world.held_out_encoder]:
        per_domain = {}
        for dom in world.domains:
            per_domain[dom.domain_id] = build_subspace(
                world.feature_set(enc, dom.domain_id),
                rank_tolerance,
                allow_point_subspace=allow_point_subspace,
            )
        out[enc.encoder_id] = per_domain
    return out
