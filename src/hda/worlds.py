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

import functools
import os
import re
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .seeding import derive_seed, stream_rng
from .subspace import (
    DomainSubspace,
    FeatureSet,
    build_subspace,
    locked_array,
    read_feature_csv,
    read_json,
    write_feature_csv,
    write_json,
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
    return np.where(x > 0.0, x, 0.0)


def _rows(x, width: int, kind: str, max_ndim: int = 2) -> Array:
    """``x`` as a float vector or ``(..., n, width)`` rows of at most ``max_ndim`` axes, checked."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= x.ndim <= max_ndim:
        raise DimensionError(f"{kind}s must have 1 to {max_ndim} axes, got shape {x.shape}")
    if x.shape[-1] != width:
        raise DimensionError(f"{kind} has length {x.shape[-1]}, expected {width}")
    return x


#: ``type: (accepted Python types, what the error asks for)`` of a scalar field
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "a JSON integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}

#: ``(class, renames) -> {JSON key: (field name, default, annotated type)}``
_FIELD_TABLES: dict[tuple, dict] = {}


def _read(hint, value, key: str):
    """``value`` checked against the annotated type ``hint`` and converted to it."""
    if hint in _SCALARS:
        accepts, what = _SCALARS[hint]
        if isinstance(value, accepts) and (hint is bool or not isinstance(value, bool)):
            if hint is not float:
                return value
            # the bounds refuse NaN, infinities and integers too large for a float
            if -sys.float_info.max <= value <= sys.float_info.max:
                return float(value)
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if hint is np.ndarray:
        try:
            arr = np.array(value) if isinstance(value, list) else None
        except ValueError:  # a ragged list
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            raise ConfigError(f"{key} must be a rectangular list of numbers")
        return arr.astype(np.float64, copy=False)
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _read(typing.get_args(hint)[0], value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_read(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict:  # dict[str, X]; JSON object keys are strings
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        item = typing.get_args(hint)[1]
        return {k: _read(item, v, f"{key}[{k!r}]") for k, v in value.items()}
    reader = getattr(hint, "from_json_dict", None)
    try:
        return reader(value) if reader else read_object(hint, value, hint.__name__)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def read_object(cls, data, kind: str, renames: Optional[dict] = None):
    """An instance of the dataclass ``cls`` built from a JSON object.

    Each value is checked and converted by its field's annotated type:
    ``bool`` takes only ``true``/``false``, ``int`` only a JSON integer,
    ``float`` a finite number, ``str`` a string, ``tuple[X, ...]`` a
    list, ``dict[str, X]`` an object, an array a rectangular list of
    numbers, ``Optional`` also ``null``, and a nested dataclass its own
    ``from_json_dict``, or this reader if it has none.  An absent key
    takes the field's default, so each default is written once, in the
    dataclass.  An unknown key (with a did-you-mean hint), a missing
    field without a default, or a value of the wrong type is a
    :class:`ConfigError` naming the key.  A :class:`DimensionError` from
    the constructor (sizes that disagree) becomes a ``ConfigError``
    naming ``kind``.  ``renames`` maps a field name to its JSON key
    where the two differ.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} must be a JSON object")
    renames = renames or {}
    cache_key = (cls, tuple(renames.items()))
    table = _FIELD_TABLES.get(cache_key)
    if table is None:  # type hints are slow to resolve, so once per class
        hints = typing.get_type_hints(cls)
        table = _FIELD_TABLES[cache_key] = {
            renames.get(f.name, f.name): (f.name, f.default, hints[f.name]) for f in fields(cls)
        }
    for key in data:
        if key not in table:
            import difflib  # only to phrase the error

            close = difflib.get_close_matches(str(key), table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown {kind} key {key!r}{hint}")
    values = {}
    for key, (name, default, hint) in table.items():
        if key in data:
            values[name] = _read(hint, data[key], key)
        elif default is not MISSING:
            values[name] = default
        else:
            raise ConfigError(f"{kind} is missing {key!r}")
    try:
        return cls(**values)
    except DimensionError as exc:
        raise ConfigError(f"{kind}: {exc}") from exc


def read_document(cls, path, kind: str):
    """``cls`` read by :func:`read_object` from the JSON file ``path``; errors name ``path``."""
    doc = read_json(path, kind)
    try:
        return read_object(cls, doc, kind)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def json_doc(obj, renames: Optional[dict] = None) -> dict:
    """The JSON object :func:`read_object` reads back into ``obj``, keys in field order."""
    renames = renames or {}
    return {
        renames.get(f.name, f.name): _json_value(getattr(obj, f.name)) for f in fields(obj)
    }


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return json_doc(value)
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
        hidden = np.tanh(ad.matmul_rows(np.atleast_2d(z), self.w1.T) + self.b1)
        x = ad.matmul_rows(hidden, self.w2.T) + self.b2
        return x[0] if z.ndim == 1 else x

    def to_dict(self) -> dict[str, Array]:
        return {name: np.array(getattr(self, name)) for name in PARAM_FIELDS}

    def to_json_dict(self) -> dict:
        return json_doc(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratorParams":
        return read_object(cls, data, "generator document")


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
    return replace(source, trainable=True)


def flatten_generator(gen: GeneratorParams) -> Array:
    return np.concatenate([np.asarray(getattr(gen, name)).ravel() for name in PARAM_FIELDS])


def generator_views(flat: Array, like: GeneratorParams) -> dict[str, Array]:
    """Named views into ``flat``, in :func:`flatten_generator`'s layout, shaped as ``like``'s.

    Writing into ``flat`` changes the views, so they are built once per vector.
    """
    views, offset = {}, 0
    for name in PARAM_FIELDS:
        shape = getattr(like, name).shape
        size = int(np.prod(shape))
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise DimensionError(f"flat vector has {flat.size} entries, expected {offset}")
    return views


def unflatten_generator(
    flat: Array, like: GeneratorParams, trainable: bool = True
) -> GeneratorParams:
    """A generator holding copies of ``flat``'s entries, shaped as ``like``'s."""
    views = generator_views(np.asarray(flat, dtype=np.float64), like)
    return GeneratorParams(trainable=trainable, **views)


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
        _lock_mlp(self, "encoder ")

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


def encode(encoders, x) -> Array:
    """Features of a ``(d_x,)`` vector or ``(n, d_x)`` rows.

    ``encoders`` is one spec, giving ``(d_e,)`` or ``(n, d_e)``, or a
    sequence of specs of one shape.  A sequence runs as one expression
    over weights stacked along a leading ensemble axis, giving
    ``(E, d_e)`` or ``(E, n, d_e)``, and row ``e`` equals ``encode``
    under encoder ``e`` bit for bit.
    """
    w1, b1, w2, b2 = _encoder_weights(encoders)
    x = _rows(x, w1.shape[-1], "input")
    hidden = _relu(ad.matmul_rows(np.atleast_2d(x), np.swapaxes(w1, -1, -2)) + b1)
    f = ad.matmul_rows(hidden, np.swapaxes(w2, -1, -2)) + b2
    return f[..., 0, :] if x.ndim == 1 else f


def generator_param_vars(tape, gen: GeneratorParams) -> dict:
    """Gradient leaves for the four generator parameter arrays."""
    return {name: tape.variable(getattr(gen, name)) for name in PARAM_FIELDS}


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


def encode_var(tape, encoders, x):
    """Tape version of :func:`encode`, for one spec or a sequence; bit-identical on a batch."""
    w1, b1, w2, b2 = _encoder_weights(encoders)
    hidden = ad.relu(ad.add(ad.linear(x, tape.constant(w1)), tape.constant(b1)))
    return ad.add(ad.linear(hidden, tape.constant(w2)), tape.constant(b2))


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

    def to_json_dict(self) -> dict:
        return json_doc(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SyntheticDomainSpec":
        return read_object(cls, data, "domain document")


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
        return json_doc(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "WorldConfig":
        return read_object(cls, data, "world config")


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
    references: dict[str, Array]  # domain_id -> (k, d_x), read-only copies

    def __post_init__(self):
        # locked copies, so the features cached from them cannot go stale
        references = {
            d: locked_array(refs, f"references {d}", ndim=2) for d, refs in self.references.items()
        }
        object.__setattr__(self, "references", references)

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
        """``domain_id``'s reference features under ``encoder``, one of this world's own specs."""
        if domain_id not in self.references:
            raise ConfigError(f"unknown domain id {domain_id!r}")
        if self.encoder(encoder.encoder_id) is not encoder:
            raise ConfigError(f"encoder {encoder.encoder_id!r} is not this world's own spec")
        return self._feature_sets[encoder.encoder_id][domain_id]

    @functools.cached_property
    def _feature_sets(self) -> dict[str, dict[str, FeatureSet]]:
        """``encoder_id -> domain_id ->`` features: every encoder on all references at once."""
        encoders = (*self.train_encoders, self.held_out_encoder)
        ids = tuple(self.references)
        stacked = encode(encoders, np.concatenate([self.references[d] for d in ids]))
        bounds = np.cumsum([self.references[d].shape[0] for d in ids])[:-1]
        return {
            enc.encoder_id: {
                d: FeatureSet(f, domain_id=d)
                for d, f in zip(ids, np.split(features, bounds))
            }
            for enc, features in zip(encoders, stacked)
        }

    def source_feature_set(self, encoder: EncoderSpec, k: int) -> FeatureSet:
        points = sample_source_points(
            self.source_generator, k, derive_seed(self.config.seed, "source-cluster")
        )
        return FeatureSet(encode(encoder, points), domain_id="source")


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
    return source, train, held_out


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
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, WORLD_FILE), json_doc(_WorldFile(world.config)))
    for domain_id, refs in world.references.items():
        write_feature_csv(os.path.join(out_dir, f"references_{domain_id}.csv"), refs)


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
    """Per-(encoder, domain) subspaces for all encoders incl. the held-out one."""
    out: dict[str, dict[str, DomainSubspace]] = {}
    for enc in list(world.train_encoders) + [world.held_out_encoder]:
        per_domain = {}
        for dom in world.domains:
            per_domain[dom.domain_id] = build_subspace(world.feature_set(enc, dom.domain_id))
        out[enc.encoder_id] = per_domain
    return out
