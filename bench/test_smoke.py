"""Tiny-size smoke run of every workload, untraced and traced.

This covers local-tools too, which BENCHMARK.json leaves out of the gated
runs but which stays runnable by hand.

    python -m pytest bench/test_smoke.py

Each run must report every metric BENCHMARK.json names for its mode and
finish with no failed run. There are no timing gates.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Sizes, run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(eval_points=20, payload_bytes=4096, transfer_bytes=4096,
             registry=4, setups=2, warmup_scale=0)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload, trace, tmp_path):
    out = run_workload(workload, seed=7, seconds=0.2, trace=trace,
                       sizes=TINY, work=tmp_path)
    result, meta = out["result"], out["meta"]
    named = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == named
    assert meta["failed_frac"] == 0, meta["failures"]
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert meta["samples"]["traced_runs"] >= 1
