"""Shared fixtures: one default world per session plus its subspaces."""

import json
import os

import pytest

import hda
from hda.worlds import build_world, build_world_subspaces, default_world_config

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
