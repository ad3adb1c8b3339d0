"""One workload in a fresh process: set up, warm up, measure, judge.

Run by ``run.py``; prints one JSON object as its last stdout line.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn, so ``setup_s`` covers interpreter start, ``import repro``, input
generation and warm-up; it is scaled by the parent's speed probe and one
taken at its end.  ``--setup-only`` stops there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Host-speed probe: a fixed pure-Python loop that shares no code with
#: the program.  Shared hosts drift by tens of percent over seconds, so
#: every timing is scaled by ``PROBE_REFERENCE_S / probe time`` measured
#: right before and after it; times are thus in seconds of a host on
#: which the probe takes ``PROBE_REFERENCE_S``.
PROBE_ITERATIONS = 500_000
PROBE_REFERENCE_S = 0.05


def speed_probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def timed_reps(workload, seconds: float) -> list:
    """Run reps until ``seconds`` of wall time have passed (at least one),
    with a speed probe between consecutive reps."""
    reps = []
    deadline = time.perf_counter() + seconds
    before = speed_probe()
    while True:
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        rep = workload.rep()
        rep.wall_s = time.perf_counter() - t0
        rep.cpu_s = time.process_time() - c0
        after = speed_probe()
        rep.scale = PROBE_REFERENCE_S / ((before + after) / 2)
        before = after
        reps.append(rep)
        if time.perf_counter() >= deadline:
            return reps


def end_to_end(reps: list) -> dict:
    """Rates over the whole window (total work over total scaled time):
    host noise is correlated over seconds, so the window average is
    steadier than a median of a few reps."""
    ops = sum(r.ops for r in reps)
    return {
        "requests_per_s": ops / sum(r.wall_s * r.scale for r in reps),
        "cpu_ms_per_op": 1e3 * sum(r.cpu_s * r.scale for r in reps) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_requests_per_s": ops / sum(r.wall_s for r in reps),
    }


def traced_run(workload, reps: list, seconds: float, tag: str) -> tuple[dict, dict, list, list]:
    """Trace further reps and fold their spans into per-layer metrics;
    also returns the bindings the tracer failed to restore."""
    untraced = statistics.median(r.wall_s for r in reps)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_reps(workload, seconds)
    finally:
        unrestored = tracer.uninstall()
    spans = tracer.spans()
    metrics, detail = tracing.layer_metrics(
        spans,
        reps=len(traced),
        traced_wall_s=sum(r.wall_s for r in traced),
        untraced_wall_s=untraced * len(traced),
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{tag}.json").write_text(json.dumps(tracing.chrome_trace(spans)))
    return metrics, detail, traced, unrestored


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--probe-s", type=float, required=True,
                   help="the parent's speed probe, taken just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro in the checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (part of the measured set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    raw_setup_s = time.monotonic() - args.spawned_at
    scale = PROBE_REFERENCE_S / ((args.probe_s + speed_probe()) / 2)
    setup_s = raw_setup_s * scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    # With tracing on, half the window is measured untraced (the
    # baseline of trace.overhead_s) and half traced.
    share = 0.5 if args.trace else 1.0
    reps = timed_reps(workload, args.seconds * share)
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "unit": workload.unit,
           "reps": len(reps)}
    unrestored: list[str] = []
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        metrics, detail, traced, unrestored = traced_run(
            workload, reps, args.seconds * share, tag
        )
        out.update(per_layer=metrics, detail=detail, traced_reps=len(traced))
        reps = reps + traced
    else:
        out["end_to_end"] = end_to_end(reps)
    workload.release()
    errors = [
        f"wrapper not removed: {name}"
        for name in unrestored + tracing.leaked_wrappers()
    ]
    errors += workload.check(reps)
    out.update(
        rep_wall_s=[r.wall_s for r in reps],
        rep_scale=[r.scale for r in reps],
        attempted=sum(r.ops for r in reps),
        failed=sum(r.failed for r in reps),
        errors=errors,
        digest=reps[0].digest,
        reference_known=workload.reference_known(),
    )
    if hasattr(workload, "worst_ratio"):
        out["true_residual_over_tol"] = workload.worst_ratio
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
