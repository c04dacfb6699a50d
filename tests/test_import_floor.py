"""The per-process floor, stated as properties of ``sys.modules``.

Every ledger child, pool worker and CLI call pays for whatever importing
the package loads, and the ledger times constructors, so a module first
imported inside one is billed to ``setup_s``.  Each case runs in a fresh
interpreter (this one has ``scipy`` loaded by the oracle tests) with
``REPRO_*`` scrubbed, as the ledger's children are.  Nothing here reads a
clock or a resident-set size.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

IMPORT_ALL = "import repro, repro.engine.simulation, repro.engine.multikey, repro.cli\n"

HEAVY = ("scipy", "networkx", "numpy.ma", "matplotlib")


def run_python(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def test_importing_the_package_loads_no_heavy_dependency():
    done = run_python(
        "import json, sys\n"
        + IMPORT_ALL
        + f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert json.loads(done.stdout) == []


FIRST_IMPORTS = (
    "import json, sys\n"
    + IMPORT_ALL
    + """
from repro.engine.config import SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation, default_shard_count
from repro.engine.simulation import Simulation
from repro.workload.churn import ChurnConfig
from repro.workload.storms import StormPhase, StormPlan

small = dict(num_nodes=128, duration=1500.0, warmup=300.0, keep_latency_samples=False)
storm = StormPlan((StormPhase("update-storm", start=300.0, duration=600.0, rate=0.05),))
churn = ChurnConfig(join_rate=0.05, leave_rate=0.025, fail_rate=0.025)
single_key = {
    "dup": SimulationConfig(scheme="dup", **small),
    "pcx": SimulationConfig(scheme="pcx", **small),
    "storm": SimulationConfig(scheme="dup", query_rate=4.0, storms=storm, **small),
    "churn": SimulationConfig(scheme="dup", churn=churn, **small),
    "chord": SimulationConfig(scheme="dup", topology="chord", **small),
    "can": SimulationConfig(scheme="dup", topology="can", **small),
}
added = {}
loaded = set(sys.modules)


def note(label):
    added[label] = sorted(set(sys.modules) - loaded)
    loaded.update(sys.modules)


# The scale shard goes first: it is the first thing to build a Chord ring.
shard = MultiKeyScaleSimulation(
    single_key["chord"], 16, 0.8, 0, default_shard_count(16)
)
note("scale shard constructor")
shard.run()
note("scale shard run")
for label, config in single_key.items():
    simulation = Simulation(config)
    note(label + " constructor")
    assert simulation.run().queries > 0
    note(label + " run")
print(json.dumps(added))
"""
)


def test_no_module_is_first_imported_by_a_constructor_or_run():
    added = json.loads(run_python(FIRST_IMPORTS).stdout)
    assert len(added) == 14
    assert {label: names for label, names in added.items() if names} == {}


BLOCKED = "import sys\nsys.modules['scipy'] = sys.modules['networkx'] = None\n"


def test_confidence_intervals_need_no_scipy():
    done = run_python(
        BLOCKED
        + """
import json
from repro.engine import SimulationConfig, compare_schemes

# Several TTLs long, so entries expire and the three schemes differ.
config = SimulationConfig(
    num_nodes=64, query_rate=5.0, duration=20000.0, warmup=3600.0
)
result = compare_schemes(config, replications=2, workers=1)
widths = [result.by_scheme[s].latency.half_width for s in result.by_scheme]
widths += [result.by_scheme[s].cost.half_width for s in result.by_scheme]
widths += [result.relative_cost[s].half_width for s in ("cup", "dup")]
assert all(type(w) is float for w in widths), widths
print(json.dumps(widths))
"""
    )
    widths = json.loads(done.stdout)
    assert len(widths) == 8
    assert all(0.0 < width < float("inf") for width in widths), widths


def test_cli_sweep_runs_with_scipy_unimportable():
    done = run_python(
        BLOCKED
        + "from repro.cli import main\n"
        "sys.exit(main(['run', 'figure4', '--scale', 'smoke',"
        " '--replications', '2', '--workers', '1']))\n",
        timeout=600,
    )
    assert "±" in done.stdout and "n/a" not in done.stdout
