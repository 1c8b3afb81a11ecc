"""Run-level golden: the exact numbers of every organization on every app.

The engine-equivalence suites compare the two engines with each other,
so a change to code both engines share (the cache substrate, the
Doppelgänger core, ``System``) passes them even when it moves every
result. This module pins the run-level output itself: for each app
under the baseline, split Doppelgänger at 1/4 and 1/8, and
uniDoppelgänger at 1/2, the ``system.to_dict()``, ``energy.to_dict()``
and ``llc_stats`` of a run through :meth:`ExperimentContext.run`, and
the per-kind structure-event counts of traced canneal and fluidanimate
runs.

A change that moves reduced-scale results on purpose regenerates the
fixture and says so; running this module as a script rewrites it::

    PYTHONPATH=src python tests/test_run_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentContext, baseline_spec, dopp_spec, uni_spec
from repro.obs import Observability
from repro.workloads.registry import workload_names

SEED = 3
SCALE = 0.02
SPECS = (baseline_spec(), dopp_spec(14, 0.25), dopp_spec(14, 0.125), uni_spec(14, 0.5))
TRACED = [
    (name, spec)
    for name in ("canneal", "fluidanimate")
    for spec in (dopp_spec(14, 0.25), uni_spec(14, 0.5))
]
FIXTURE = Path(__file__).parent / "fixtures" / "run_golden.json"


def _plain(obj):
    """``obj`` as it reads back from JSON (tuples as lists, str keys)."""
    return json.loads(json.dumps(obj))


def _runs(name: str) -> dict:
    ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=[name],
                            engine="batched")
    out = {}
    for spec in SPECS:
        rec = ctx.run(name, spec)
        out[spec.label()] = {
            "system": rec.system.to_dict(),
            "energy": rec.energy.to_dict(),
            "llc_stats": rec.llc_stats,
            "engine_stats": rec.engine_stats,
        }
    return _plain(out)


def _event_counts(name: str, spec) -> dict:
    obs = Observability(ring_capacity=1 << 22)
    ExperimentContext(seed=SEED, scale=SCALE, workloads=[name], obs=obs).run(name, spec)
    assert obs.ring.dropped_events == 0
    return dict(sorted(obs.ring.counts_by_kind().items()))


def _traced_key(name: str, spec) -> str:
    return f"{name}/{spec.label()}"


def generate() -> dict:
    """Every number the fixture holds, computed from the current tree."""
    return {
        "seed": SEED,
        "scale": SCALE,
        "runs": {name: _runs(name) for name in workload_names()},
        "events": {
            _traced_key(name, spec): _event_counts(name, spec)
            for name, spec in TRACED
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(golden):
    assert (golden["seed"], golden["scale"]) == (SEED, SCALE)
    assert sorted(golden["runs"]) == sorted(workload_names())
    for runs in golden["runs"].values():
        assert list(runs) == [spec.label() for spec in SPECS]
    assert list(golden["events"]) == [_traced_key(n, s) for n, s in TRACED]


@pytest.mark.parametrize("name", workload_names())
def test_runs_match_golden(golden, name):
    got = _runs(name)
    for label, want in golden["runs"][name].items():
        for part in ("system", "energy", "llc_stats", "engine_stats"):
            assert got[label][part] == want[part], f"{name}/{label}: {part}"


@pytest.mark.parametrize(
    "name,spec", TRACED, ids=[_traced_key(n, s) for n, s in TRACED]
)
def test_traced_event_counts_match_golden(golden, name, spec):
    assert _event_counts(name, spec) == golden["events"][_traced_key(name, spec)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
