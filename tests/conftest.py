"""Shared fixtures: one default world per session plus its subspaces, and the
objective at one pair of points."""

import json
import os

import numpy as np
import pytest

import hda
from hda.losses import DomainWeight, hda_objective
from hda.subspace import DomainSubspace
from hda.worlds import (
    EncoderSpec,
    GeneratorParams,
    build_world,
    build_world_subspaces,
    default_world_config,
    generator_views,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# tests that run `python -m hda.cli` in a subprocess get the package this run imported
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(hda.__file__)), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def world():
    return build_world(default_world_config())


@pytest.fixture(scope="session")
def subspaces(world):
    return build_world_subspaces(world)


@pytest.fixture(scope="session")
def baselines():
    with open(os.path.join(DATA_DIR, "regression_baselines.json"), encoding="utf8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def point_losses():
    """:func:`hda_objective` with ``p_s`` as the source's output and ``p_t`` as the target's.

    Each generator is constant (``w1 = 0``, ``w2 = 0``, ``b2`` the point)
    and the one encoder is a shifted identity (``w1 = I``, ``b1 = 64``,
    ``w2 = scale I``, ``b2 = -64 scale + shift``), so a point ``p``
    embeds as ``scale p + shift`` up to rounding, and relu passes every
    coordinate above -64; each subspace's mean moves to ``scale mean +
    shift`` with it.  ``alphas`` weigh the subspaces as domains, in
    order.  A call returns the distance and the direction loss, and the
    ``b2`` slice of the target's gradient of ``dist + lam * direct``.
    """

    def losses(p_s, p_t, subspaces, alphas, *, scale=1.0, shift=0.0, lam=1.0, **flags):
        d = len(p_t)

        def constant(point):
            return GeneratorParams(np.zeros((1, 1)), np.zeros(1), np.zeros((d, 1)), point)

        b2 = np.full(d, -64.0 * scale) + shift
        encoder = EncoderSpec("point", np.eye(d), np.full(d, 64.0), scale * np.eye(d), b2)
        weights = [DomainWeight(f"dom{i}", alpha) for i, alpha in enumerate(alphas)]
        moved = {
            w.domain_id: DomainSubspace(scale * s.mean + shift, s.basis, s.singular_values)
            for w, s in zip(weights, subspaces)
        }
        target = constant(p_t)
        dist, direct, grads = hda_objective(
            np.zeros((1, 1)), constant(p_s), target, [encoder], {"point": moved}, weights, lam,
            **flags,
        )
        return dist[0], direct[0], generator_views(grads, like=target)["b2"]

    return losses
