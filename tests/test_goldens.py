"""Golden regression tests for the experiment pipeline.

Every experiment run is a pure function of its configuration and root
seed, so the full output of a smoke-scale run is pinned whole as a
``golden/<name>`` entry of the pin store (``tests/pins.py``): any change
to the simulation kernel, the schemes, the seed derivation, or the
metrics plumbing that moves a single number fails here first, with a
readable diff.

The goldens are recorded with the serial engine; because the parallel
engine is bit-identical by construction, the same goldens must hold
under any ``REPRO_WORKERS`` setting — CI's workers=2 matrix leg proves
it on every push.  The scale rows carry no wall-clock or RSS numbers,
so ``scale_smoke`` pins the sharded engine bit-for-bit too.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.experiments import get_experiment
from tests.pins import PIN_DIR, PinStore, canonical, dumps, load

#: Each golden's experiment and the arguments beyond the smoke scale.
GOLDENS = {
    "adaptive_smoke": ("adaptive", {}),
    "figure4_smoke": ("figure4", {"rates": (1.0, 10.0)}),
    "fluctuation_smoke": ("fluctuation", {}),
    "overload_smoke": ("overload", {}),
    "partition_smoke": ("partition", {}),
    "resilience_smoke": ("resilience", {}),
    "scale_smoke": ("scale", {}),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name, pins):
    experiment, kwargs = GOLDENS[name]
    result = get_experiment(experiment)(
        scale="smoke", replications=1, seed=1, **kwargs
    )
    try:
        pins.check({f"golden/{name}": json.loads(canonical(result))})
    except pytest.fail.Exception:
        # Flush the protocol flight recorder (when one is armed, e.g.
        # CI's REPRO_FLIGHT leg) so the drifted run leaves a post-mortem.
        from repro import flightrec

        flightrec.dump_anomaly(f"golden-mismatch-{name}")
        raise


def test_missing_golden_fails_and_is_not_written(tmp_path):
    shutil.copytree(PIN_DIR, tmp_path, dirs_exist_ok=True)
    goldens = load("golden", tmp_path)
    del goldens["scale_smoke"]
    (tmp_path / "golden.json").write_text(dumps(goldens), encoding="utf-8")
    store = PinStore(tmp_path, repin=["golden/*"])
    with pytest.raises(pytest.fail.Exception, match="golden/scale_smoke"):
        test_golden("scale_smoke", store)
    store.write()
    assert "scale_smoke" not in load("golden", tmp_path)
