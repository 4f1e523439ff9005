"""The startup layer: fresh-interpreter import cost of each entry point."""

from __future__ import annotations

import json

from .common import Outcome, run_child

_PROBE = """\
import json, sys, time
before = set(sys.modules)
t = time.perf_counter()
import {module}
wall = time.perf_counter() - t
new = [m for m in sys.modules if m not in before]
heavy = [m for m in new if m.split('.')[0] in ('scipy', 'networkx')]
print(json.dumps({{"s": wall, "modules": len(sys.modules), "heavy": len(heavy)}}))
"""


def import_probe(module: str) -> dict:
    """Import ``module`` in a fresh interpreter; returns its wall time,
    the ``sys.modules`` size after it, and the scipy/networkx modules it
    pulled in."""
    _wall, out = run_child(["-c", _PROBE.format(module=module)])
    return json.loads(out.strip().splitlines()[-1])


def record_startup(outcome: Outcome) -> None:
    """Per-layer startup metrics (they move ``setup_s`` on every
    workload)."""
    cli = import_probe("repro.cli")
    stream = import_probe("repro.stream")
    fleet = import_probe("repro.fleetscale")
    outcome.metric("startup.import_cli_s", cli["s"], "s")
    outcome.metric("startup.import_stream_s", stream["s"], "s")
    outcome.metric("startup.import_fleetscale_s", fleet["s"], "s")
    outcome.metric("startup.modules_cli", cli["modules"], "count")
    outcome.metric("startup.modules_stream", stream["modules"], "count")
    outcome.metric("startup.heavy_modules_stream", stream["heavy"], "count")
