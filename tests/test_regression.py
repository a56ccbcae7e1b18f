"""Frozen-number drift sentinels for the stock world.

The values live in tests/data/regression_baselines.json and were produced
by the code at the commit that froze them.  A failure here means the
numerical behavior changed: either revert the change or re-freeze the
baselines deliberately and say so in the commit.
"""

import pytest

from hda.engine import default_adaptation_config, run_adaptation
from hda.losses import loss_total
from hda.subspace import separation_ratio
from hda.worlds import DEFAULT_WORLD_SEED

REL = 1e-9  # loose enough for a BLAS swap, tight enough to catch edits


def test_baselines_match_default_seed(baselines):
    assert baselines["world_seed"] == DEFAULT_WORLD_SEED


def test_short_stock_run_losses_frozen(world, subspaces, baselines):
    ref = baselines["short_stock_run"]
    config = default_adaptation_config(world, steps=ref["steps"])
    record = run_adaptation(config, world, subspaces)
    for step_str, want in ref["step_totals"].items():
        i = int(step_str) - 1
        got = loss_total(record.dist[i], record.direct[i], config.lam)
        assert got == pytest.approx(want, rel=REL), f"step {step_str}"
    final = record.snapshots[-1].report
    assert final.consistency == pytest.approx(ref["final_consistency"], rel=REL)
    assert final.diversity == pytest.approx(ref["final_diversity"], rel=REL)
    for domain_id, want in ref["final_semantic_similarity"].items():
        assert final.semantic_similarity[domain_id] == pytest.approx(want, rel=REL)


def test_separation_ratios_frozen(world, baselines):
    ref = baselines["criterion7"]["training_encoder_ratios"]
    for encoder_id, want in ref.items():
        enc = world.encoder(encoder_id)
        sets = [world.feature_set(enc, d.domain_id) for d in world.domains]
        assert separation_ratio(sets) == pytest.approx(want, rel=REL), encoder_id


def test_reference_margin_exceeds_recorded_threshold(baselines):
    # the recorded ablation margin must dominate the recorded threshold,
    # otherwise the collapse check was frozen in a failing state
    ref = baselines["criterion6"]
    assert ref["margin"] >= 1.0 + ref["relative_consistency_margin"]
    assert ref["full_consistency"] == pytest.approx(
        ref["dist_only_consistency"] * ref["margin"], rel=1e-9
    )
