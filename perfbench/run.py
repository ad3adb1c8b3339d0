"""Wall-clock benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload timing_saturated --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload runs in fresh child
processes (``child.py``): two set-up-only probes plus the measured run,
so ``setup_s`` is a median of three.  ``--trace 1`` instead runs the
per-layer traced measurement.  End-to-end timings are scaled to a
reference host speed by a speed probe around each measurement (see
``child.py``).  Human-readable lines come first; the last
stdout line is the JSON result.  The host fingerprint and the full
result are also written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("timing_saturated", "daemon_checkpointed", "functional_campaign", "paper_scaling")
SETUP_PROBES = 2
#: Wall budget for every child together; the run must end within 180 s.
BUDGET_S = 170.0

#: Environment knobs that silently swap in a different program, with the
#: values that leave the default program in place.
PROGRAM_KNOBS = {
    "REPRO_FASTPATH": ("", "1"),
    "REPRO_NO_JIT": ("", "0"),
    "REPRO_CODEC": ("",),
}


def fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def spawn(args, deadline: float, *, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--probe-s", repr(speed_probe()), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: workload exceeded the time budget")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: child exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2010)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    changed = {
        k: os.environ[k] for k, ok in PROGRAM_KNOBS.items()
        if os.environ.get(k, "") not in ok
    }
    if changed:
        print(f"perfbench: refusing to run, {changed} selects a different program",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found", file=sys.stderr)
        return 2

    host = fingerprint()
    children = []
    if not args.trace:
        children = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    run = spawn(args, deadline, setup_only=False)
    children.append(run)
    setups = [c["setup_s"] for c in children]
    raw_setups = [c["raw_setup_s"] for c in children]

    unit = run["unit"]
    print(f"workload {args.workload} seed {args.seed}: {run['attempted']} {unit}s "
          f"in {run['reps']} untraced rep(s)"
          + (f" + {run['traced_reps']} traced" if args.trace else ""))
    print("fingerprint " + json.dumps(host, sort_keys=True))
    print(f"correctness {'ok' if not run['errors'] else 'FAILED'}; digest {run['digest']}"
          + ("" if run["reference_known"] else " (no reference recorded for this seed)"))
    for err in run["errors"][:20]:
        print(f"  error: {err}")
    if "true_residual_over_tol" in run:
        print(f"worst true residual / tol = {run['true_residual_over_tol']:.4f}")

    if args.trace:
        from tracer import METRICS

        metrics = {
            name: {"value": run["per_layer"][name], "unit": unit_}
            for name, unit_, _, _ in METRICS
        }
        shares = sorted(run["detail"]["busy_share"].items(), key=lambda kv: -kv[1])
        print("busy share of traced wall: "
              + ", ".join(f"{g} {100 * s:.1f}%" for g, s in shares[:8]))
    else:
        e2e = dict(run["end_to_end"], setup_s=statistics.median(setups))
        metrics = {
            name: {"value": e2e[name], "unit": unit_}
            for name, unit_ in (
                ("setup_s", "s"), ("requests_per_s", "1/s"),
                ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MB"),
            )
        }
        if unit == "point":
            print(f"points_per_s = {e2e['requests_per_s']:.4f} 1/s")
        print(f"failed_fraction = {run['failed'] / run['attempted']:.6f}")
        print(f"unscaled requests_per_s = {e2e['raw_requests_per_s']:.6g} 1/s, "
              f"setup_s = {statistics.median(raw_setups):.6g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    result = {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, fingerprint=host, run=run, setup_samples_s=setups,
                        raw_setup_samples_s=raw_setups), indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
