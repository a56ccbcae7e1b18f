"""The names the benchmark's traced run wraps must exist in the package.

``bench/run.py --trace 1`` patches each ``(owner, attribute)`` of
``bench/probes.py``; a rename or deletion there would only show when the
benchmark runs, so it is checked here.
"""

import importlib
from pathlib import Path

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
