"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload inline-loop|local-tools|cross-org \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a run that alternates
traced and untraced workflow runs. The line before it holds the run
metadata. Both are also written to ``BENCH_<workload>[.traced].json`` in the
repository root, and a traced run writes its spans to
``BENCH_<workload>.spans.jsonl``. Scratch state lives in
``.bench_work/<workload>-<pid>/`` and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_sha(root: Path) -> str | None:
    """HEAD's commit id, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["inline-loop", "local-tools", "cross-org"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "toolgrid" / "__init__.py").is_file():
        print(f"no toolgrid sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import Sizes, run_workload

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), Sizes(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = out["meta"]
    meta.update({"git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "platform": platform.platform()})
    suffix = ".traced" if args.trace else ""
    (ROOT / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps({"meta": meta, "result": out["result"], "raw": out["raw"]},
                   indent=2) + "\n")
    if out["tracer"] is not None:
        out["tracer"].dump(ROOT / f"BENCH_{args.workload}.spans.jsonl")
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
