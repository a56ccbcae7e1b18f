"""The names the benchmark's traced run wraps must exist in the package.

``bench/run.py --trace 1`` patches each ``(owner, attribute)`` of
``bench/probes.py``; a rename or deletion there would only show when the
benchmark runs, so it is checked here.
"""

import importlib
from pathlib import Path

from hda import engine

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_probe_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    probes = importlib.import_module("probes")
    sites = [(owner, attr) for owner, attr, _, _ in probes.SITES] + list(probes.MEMORY_SITES)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"probe sites with nothing to wrap: {missing}"


#: The probe sites a ``world_sweep`` pass must reach, as ``(module, attribute)`` names.
WORLD_SITES = (
    ("worlds", "build_world"),
    ("worlds", "build_world_subspaces"),
    ("worlds", "build_subspace"),
    ("worlds", "encode"),
    ("worlds", "stream_rng"),
    ("engine", "check_separability"),
    ("engine", "separation_ratio"),
    ("subspace", "pca2d_export"),
    ("subspace", "separation_ratio"),
)


def test_a_world_sweep_world_calls_every_world_side_probe_site(monkeypatch, tmp_path):
    """A restructure that stops calling a site through its module would read 0 in its row."""
    monkeypatch.syspath_prepend(str(BENCH))
    probes = importlib.import_module("probes")
    workloads = importlib.import_module("workloads")
    owners = {owner.__name__.rsplit(".", 1)[-1]: owner for owner, _, _, _ in probes.SITES}
    probed = {(owners[name], attr) for name, attr in WORLD_SITES}
    assert probed <= {(owner, attr) for owner, attr, _, _ in probes.SITES}
    calls = dict.fromkeys(WORLD_SITES, 0)

    def counted(site, real):
        def wrapper(*args, **kwargs):
            calls[site] += 1
            return real(*args, **kwargs)

        return wrapper

    for name, attr in WORLD_SITES:
        owner = owners[name]
        monkeypatch.setattr(owner, attr, counted((name, attr), getattr(owner, attr)))
    sweep = workloads.WorldSweep(0, str(tmp_path), str(BENCH.parent))
    sweep.world_seeds = sweep.world_seeds[:1]
    (result,) = sweep.run_pass(None)
    assert result[2] is not None  # the stock world passes the precheck
    assert not [site for site, n in calls.items() if n == 0], calls


def test_a_stock_run_calls_the_optimizer_probe_sites_once_per_step(monkeypatch, tmp_path):
    """The traced ``engine.clip_gradients`` and ``engine.adam_step`` rows count these calls."""
    monkeypatch.syspath_prepend(str(BENCH))
    probes = importlib.import_module("probes")
    workloads = importlib.import_module("workloads")
    sites = ("clip_gradients", "adam_step")
    assert {(engine, attr) for attr in sites} <= {(o, a) for o, a, _, _ in probes.SITES}
    calls = dict.fromkeys(sites, 0)

    def counted(attr, real):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        return wrapper

    for attr in sites:
        monkeypatch.setattr(engine, attr, counted(attr, getattr(engine, attr)))
    stock = workloads.HybridStock(0, str(tmp_path), str(BENCH.parent))
    state = stock.setup()
    stock.run_pass(state)
    assert calls == dict.fromkeys(sites, state[2].steps)
