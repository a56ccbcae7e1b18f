"""Held-out evaluation of an adapted generator.

All three metrics are computed under a held-out encoder that never
contributed a training gradient:

* ``semantic_similarity``: negative mean distance from generated
  embeddings to each domain subspace (higher is better);
* ``consistency``: mean cosine between source and target embeddings of
  the same latent, measuring how much source identity survives;
* ``diversity``: mean intra-cluster pairwise embedding distance after
  assigning each sample to its nearest reference embedding.

Reports are pure functions of (inputs, seed) and serialize to 12
significant digits with a fixed key order, so repeated evaluations are
byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .seeding import stream_rng
from .subspace import DomainSubspace, project
from .worlds import EncoderSpec, GeneratorParams, encode

Array = np.ndarray


def round12(x: float) -> float:
    """Round to 12 significant digits (the report precision)."""
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class MetricsReport:
    semantic_similarity: dict[str, float]  # domain_id -> -mean subspace distance
    consistency: float
    diversity: float
    n_samples: int

    def to_json_dict(self) -> dict:
        return {
            "semantic_similarity": {
                domain: round12(value) for domain, value in self.semantic_similarity.items()
            },
            "consistency": round12(self.consistency),
            "diversity": round12(self.diversity),
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsReport":
        try:
            return cls(
                semantic_similarity={
                    str(k): float(v) for k, v in data["semantic_similarity"].items()
                },
                consistency=float(data["consistency"]),
                diversity=float(data["diversity"]),
                n_samples=int(data["n_samples"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed metrics report: {exc}") from exc

    def mean_distance(self, domain_id: str) -> float:
        """Positive mean subspace distance for one domain."""
        return -self.semantic_similarity[domain_id]


def write_report(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def read_report(path) -> MetricsReport:
    with open(path, "r", encoding="utf8") as fh:
        try:
            return MetricsReport.from_json_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _pairwise_cosine(a: Array, b: Array) -> Array:
    dots = np.einsum("ij,ij->i", a, b)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    out = np.zeros(a.shape[0])
    nonzero = norms > 0.0
    out[nonzero] = dots[nonzero] / norms[nonzero]
    return np.clip(out, -1.0, 1.0)


def _mean_subspace_distance(subspace: DomainSubspace, embeddings: Array) -> float:
    residuals = project(subspace, embeddings) - embeddings
    return float(np.mean(np.linalg.norm(residuals, axis=1)))


def _diversity(embeddings: Array, reference_embeddings: Array) -> float:
    """Mean pairwise distance inside nearest-reference clusters.

    Clusters with fewer than two members carry no pairwise distance and
    are skipped; a fully collapsed generator therefore scores 0.
    """
    diffs = embeddings[:, None, :] - reference_embeddings[None, :, :]
    assignment = np.argmin(np.linalg.norm(diffs, axis=2), axis=1)
    cluster_means = []
    for cluster in range(reference_embeddings.shape[0]):
        members = embeddings[assignment == cluster]
        if members.shape[0] < 2:
            continue
        deltas = members[:, None, :] - members[None, :, :]
        dists = np.linalg.norm(deltas, axis=2)
        upper = dists[np.triu_indices(members.shape[0], k=1)]
        cluster_means.append(float(np.mean(upper)))
    if not cluster_means:
        return 0.0
    return float(np.mean(cluster_means))


def evaluate(
    target_gen: GeneratorParams,
    source_gen: GeneratorParams,
    held_out_encoder: EncoderSpec,
    held_out_subspaces: dict[str, DomainSubspace],
    references: dict[str, Array],
    n_samples: int,
    seed: int,
) -> MetricsReport:
    """Evaluate a target generator against the source under a held-out encoder.

    ``held_out_subspaces`` and ``references`` are keyed by domain id;
    references are x-space vectors and are embedded here with the
    held-out encoder.
    """
    if n_samples < 2:
        raise ConfigError(f"n_samples must be >= 2, got {n_samples}")
    if not held_out_subspaces:
        raise ConfigError("no held-out subspaces supplied")
    if set(held_out_subspaces) != set(references):
        raise ConfigError(
            f"subspace domains {sorted(held_out_subspaces)} do not match "
            f"reference domains {sorted(references)}"
        )
    if target_gen.d_z != source_gen.d_z or target_gen.d_x != source_gen.d_x:
        raise DimensionError("target and source generators have mismatched dimensions")

    rng = stream_rng(seed, "eval-z")
    z = rng.standard_normal((int(n_samples), target_gen.d_z))
    x_target = target_gen.forward(z)
    x_source = source_gen.forward(z)
    f_target = encode(held_out_encoder, x_target)
    f_source = encode(held_out_encoder, x_source)

    semantic = {
        domain_id: -_mean_subspace_distance(held_out_subspaces[domain_id], f_target)
        for domain_id in held_out_subspaces
    }
    consistency = float(np.mean(_pairwise_cosine(f_source, f_target)))
    reference_embeddings = np.vstack(
        [encode(held_out_encoder, references[d]) for d in references]
    )
    diversity = _diversity(f_target, reference_embeddings)
    return MetricsReport(
        semantic_similarity=semantic,
        consistency=consistency,
        diversity=diversity,
        n_samples=int(n_samples),
    )
