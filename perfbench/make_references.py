"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_references.py [--seeds 0-63,2010]

Writes ``perfbench/references.json``: the SHA-256 of the campaign report
of ``timing_saturated`` and ``daemon_checkpointed`` for each seed (every
request must be served), and the sustained Gflops of every
``paper_scaling`` point (seed independent).  Regenerate only when a
change to the program is meant to change these outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCES, WORKLOADS  # noqa: E402


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="0-63,2010")
    args = p.parse_args()
    refs: dict = {}
    for name in ("timing_saturated", "daemon_checkpointed"):
        refs[name] = {}
        for seed in seeds(args.seeds):
            workload = WORKLOADS[name](seed)
            workload.warm()
            rep = workload.rep()
            if rep.errors or rep.failed:
                raise SystemExit(f"{name} seed {seed}: {rep.failed} failed, {rep.errors}")
            refs[name][str(seed)] = rep.digest
            print(name, seed, rep.digest, flush=True)
    scaling = WORKLOADS["paper_scaling"](0)
    refs["paper_scaling"] = dict(sorted(scaling.sweep().items()))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
