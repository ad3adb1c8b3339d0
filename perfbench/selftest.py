"""Self-tests of the benchmark.

    python3 perfbench/selftest.py [--seconds 2]

1. ``BENCHMARK.json`` names exactly the per-layer metrics the tracer
   reports, with the same units.
2. Installing the tracer wraps the names bound by ``from ... import``
   in their consumer modules, and uninstalling restores every original
   object, consumer rebinds included.
3. For every workload, an untraced and a traced run both pass the
   correctness gate with the same digest, each per-layer metric is
   non-zero on the workload its mapping names, and failure counts are 0.

Exits non-zero on the first failed group, printing what failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

#: Names bound by ``from ... import`` that must be wrapped where the
#: caller looks them up: ``(consumer module, attribute, defining module)``.
CONSUMER_BINDINGS = [
    ("repro.core.parallel_dslash", "dslash_kernel", "repro.gpu.kernels"),
    ("repro.core.dslash", "dslash_with_exchange", "repro.core.parallel_dslash"),
    ("repro.gpu.fields", "quantize_block", "repro.gpu.precision"),
    ("repro.gpu.fields", "dequantize_block", "repro.gpu.precision"),
    ("repro.service.workers", "invert_multi", "repro.core.quda"),
    ("repro.service.workers", "invert_model_multi", "repro.core.quda"),
    ("repro.service.service", "select_batch", "repro.service.batching"),
    ("repro.core", "invert_model_multi", "repro.core.quda"),
]


def check_contract() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {name: unit for name, unit, _, _ in tracer.METRICS}
    return [
        f"per-layer metric {name}: BENCHMARK.json {declared.get(name)} vs tracer {reported.get(name)}"
        for name in sorted(set(declared) | set(reported))
        if declared.get(name) != reported.get(name)
    ]


def check_install_uninstall() -> list[str]:
    import importlib

    import repro.bench.harness  # noqa: F401  (loads every consumer module)
    import repro.service  # noqa: F401

    before = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in CONSUMER_BINDINGS
    }
    t = tracer.Tracer()
    t.install()
    errors = []
    for mod, attr, origin in CONSUMER_BINDINGS:
        bound = getattr(importlib.import_module(mod), attr)
        if bound is not getattr(importlib.import_module(origin), attr) or not tracer.is_wrapper(bound):
            errors.append(f"{mod}.{attr} not wrapped while tracing")
    errors += [f"not restored: {name}" for name in t.uninstall() + tracer.leaked_wrappers()]
    for (mod, attr), original in before.items():
        if getattr(importlib.import_module(mod), attr) is not original:
            errors.append(f"{mod}.{attr} differs from its original after uninstall")
    return errors


def run(workload: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    saved = ROOT / ".perfbench" / f"result-{workload}-seed3-trace{trace}.json"
    result["digest"] = json.loads(saved.read_text())["run"]["digest"]
    return result


def check_workloads(seconds: float) -> list[str]:
    from workloads import WORKLOADS

    errors = []
    for workload in WORKLOADS:
        plain, traced = run(workload, 0, seconds), run(workload, 1, seconds)
        for label, r in (("untraced", plain), ("traced", traced)):
            if not r["correct"] or r["failed"]:
                errors.append(f"{workload} {label}: correct={r['correct']} failed={r['failed']}")
        if plain["digest"] != traced["digest"]:
            errors.append(f"{workload}: traced digest differs from untraced")
        for name, _, where, _ in tracer.METRICS:
            value = traced["metrics"][name]["value"]
            if where is None and value != 0:
                errors.append(f"{workload}: {name} = {value}, expected 0")
            elif where == workload and value == 0:
                errors.append(f"{workload}: {name} is 0 on the workload it maps to")
        print(f"{workload}: checked", flush=True)
    return errors


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    for label, check in (
        ("contract", check_contract),
        ("install/uninstall", check_install_uninstall),
        ("workloads", lambda: check_workloads(args.seconds)),
    ):
        errors = check()
        for err in errors:
            print(f"FAIL {label}: {err}")
        if errors:
            return 1
        print(f"ok {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
