"""Cold-start gate: the start-up import paths stay free of scipy.stats
and scipy.optimize, and the daemon's CLI free of the load generator.

Each case boots a fresh interpreter, because the test process itself
has long since imported them all.  scipy.stats is only a test oracle
now, and scipy.optimize loads inside the lognormal and Pareto fits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.distributions.lognormal import fit_lognormal
from repro.distributions.pareto import fit_pareto

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules a process of each runtime surface imports before it can answer
ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.experiments.study",
    "repro.experiments.storage_study",
    "repro.condor.gang",
    "repro.serve.workers",
)

HEAVY = ("scipy.stats", "scipy.optimize")

#: what ``repro serve`` runs without: ``bench_main`` loads the load
#: generator, ``--workers`` the pool, and only the generator's latency
#: summary needs the statistics helpers
DAEMON_SKIPS = ("repro.serve.bench", "repro.serve.workers", "repro.stats")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120.0,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(names: tuple[str, ...]) -> str:
    return f"[n for n in {names!r} if n in sys.modules]"


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_skips_heavy_scipy(module):
    got = run_fresh(
        f"import json, sys\nimport {module}\nprint(json.dumps({loaded(HEAVY)}))"
    )
    assert got == [], f"importing {module} loads {got}"


def test_daemon_cli_skips_load_generator():
    got = run_fresh(
        "import json, sys\nimport repro.serve.cli\n"
        f"print(json.dumps({loaded(DAEMON_SKIPS)}))"
    )
    assert got == [], f"importing repro.serve.cli loads {got}"


@pytest.mark.parametrize(
    ("fit", "params"),
    [
        (fit_lognormal, ("mu", "sigma")),
        (fit_pareto, ("shape", "scale")),
    ],
    ids=["lognormal", "pareto"],
)
def test_fit_loads_optimize_only_when_called(fit, params):
    x = np.random.default_rng(2005).lognormal(8.0, 1.2, size=80)
    cens = np.arange(x.size) % 5 == 0
    model = fit(x, cens)
    expected = [float(getattr(model, p)).hex() for p in params]
    got = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        f"from {fit.__module__} import {fit.__name__}\n"
        f"before = {loaded(HEAVY)}\n"
        f"x = np.array([float.fromhex(h) for h in {[v.hex() for v in x.tolist()]!r}])\n"
        f"model = {fit.__name__}(x, np.arange(x.size) % 5 == 0)\n"
        f"print(json.dumps({{'before': before, 'after': {loaded(HEAVY)},\n"
        f"    'params': [float(getattr(model, p)).hex() for p in {params!r}]}}))"
    )
    assert got["before"] == []
    assert got["after"] == ["scipy.optimize"]
    assert got["params"] == expected
