"""Span tracer installed around the program's public layer functions.

Nothing in the program is edited: :class:`Tracer` replaces each target
function (and every module attribute that aliases it, so a name bound by
``from ... import`` is wrapped where its caller looks it up) with a thin
wrapper that records a span, and :meth:`Tracer.uninstall` puts every
original object back.  Spans are ``[group, start, end, parent, thread,
value, nested]`` lists kept in memory per thread; a rank thread's
top-level spans hang under the ``SimMPI.run`` span that launched it.

:func:`layer_metrics` folds the spans into the per-layer metrics named
in ``BENCHMARK.json``; :func:`chrome_trace` writes them as trace-event
JSON readable by Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

MARK = "__perfbench_wrapper__"

# ---- what each target reports as its span value ------------------------ #


def _queue_depth(args, kwargs, result):
    return len(args[0])


def _execute_outcome(args, kwargs, result):
    return (bool(result.ok), bool(args[0].functional))


def _encoded_bytes(args, kwargs, result):
    return len(result)


def _solver_counts(args, kwargs, result):
    return (
        sum(r.stats.iterations for r in result),
        sum(r.stats.reliable_updates for r in result),
    )


def _launch_counts(args, kwargs, result):
    return (args[1], kwargs["flops"], kwargs["bytes_moved"])


def _send_bytes(args, kwargs, result):
    if kwargs.get("nbytes") is not None:
        return kwargs["nbytes"]
    data = args[1]
    if hasattr(data, "nbytes"):
        return data.nbytes
    if isinstance(data, tuple):
        return max(sum(getattr(v, "nbytes", 0) for v in data), 64)
    return 64


#: Layer group -> ``(module, "function" or "Class.method", value_fn)``.
#: The group names are the prefixes of the per-layer metric names.
LAYERS: dict[str, list[tuple]] = {
    "service.serve": [
        ("repro.service.service", "SolveService.serve", None),
        ("repro.service.service", "SolveService.run", None),
    ],
    "service.queue": [
        ("repro.service.queueing", "AdmissionQueue.offer", _queue_depth),
        ("repro.service.queueing", "AdmissionQueue.ordered", _queue_depth),
        ("repro.service.queueing", "AdmissionQueue.remove", _queue_depth),
    ],
    "service.batching": [("repro.service.batching", "select_batch", None)],
    "service.placement": [
        ("repro.service.placement", "PlacementEngine.place", None),
        ("repro.service.placement", "ResidencyRouter.route", None),
        ("repro.service.placement", "SharedTuneCache.acquire", None),
    ],
    "service.policy": [
        ("repro.service.tenancy", "TenantRegistry.admit", None),
        ("repro.service.tenancy", "WeightedFairScheduler.pick", None),
        ("repro.service.tenancy", "WeightedFairScheduler.charge", None),
        ("repro.service.health", "HealthBoard.observe_success", None),
        ("repro.service.health", "HealthBoard.observe_failure", None),
    ],
    "workers.execute": [
        ("repro.service.workers", "SimWorker.execute", _execute_outcome),
    ],
    "campaign.commit": [
        ("repro.service.campaign", "CampaignCheckpointStore.commit", None),
    ],
    "codec.encode": [("repro.codec", "encode_record", _encoded_bytes)],
    "quda.invert": [
        ("repro.core.quda", "invert_multi", _solver_counts),
        ("repro.core.quda", "invert_model_multi", _solver_counts),
    ],
    "dslash.setup": [("repro.core.dslash", "DeviceSchurOperator.setup", None)],
    "dslash.exchange": [
        ("repro.core.parallel_dslash", "dslash_with_exchange", None),
    ],
    "kernels.dslash": [("repro.gpu.kernels", "dslash_kernel", None)],
    # Time-sliced faces are projected without a pack kernel, so the face
    # layer is the pack kernel plus the projection it wraps.
    "kernels.gather_face": [
        ("repro.gpu.kernels", "gather_face_kernel", None),
        ("repro.gpu.kernels", "project_face", None),
    ],
    "kernels.clover": [("repro.gpu.kernels", "clover_kernel", None)],
    "blas": [
        ("repro.core.blas", name, None)
        for name in (
            "copy", "zero", "scale", "axpy", "xpay", "axpby", "update_p",
            "caxpy_pair", "norm2", "cdot", "redot", "cdot_norm", "axpy_norm",
        )
    ],
    "precision.quantize": [("repro.gpu.precision", "quantize_block", None)],
    "precision.dequantize": [("repro.gpu.precision", "dequantize_block", None)],
    "gpu.launch": [("repro.gpu.device", "VirtualGPU.launch", _launch_counts)],
    "comms.send": [("repro.comms.mpi_sim", "Comm.send", _send_bytes)],
    "comms.recv": [("repro.comms.mpi_sim", "Comm.recv", None)],
    "comms.allreduce": [("repro.comms.mpi_sim", "Comm.allreduce", None)],
    "comms.world": [("repro.comms.mpi_sim", "SimMPI.run", None)],
}

G_WORLD = "comms.world"

_TS, _DC, _FC, _PS = (
    "timing_saturated", "daemon_checkpointed", "functional_campaign", "paper_scaling",
)
_RPS = "requests_per_s on "
_COMMS = "requests_per_s on " + _FC + "; points_per_s and cpu_ms_per_op on " + _PS
#: Every per-layer metric: ``(name, unit, workload on which it must be
#: non-zero, the end-to-end metric it should move)``.  ``None`` as the
#: workload marks a failure count that must stay zero everywhere.
METRICS: list[tuple[str, str, str | None, str]] = [
    ("service.serve.self_s", "s", _TS, _RPS + _TS + "; <= 1% of wall on " + _FC),
    ("service.queue.calls", "count", _TS, _RPS + _TS),
    ("service.queue.busy_s", "s", _TS, _RPS + _TS),
    ("service.queue.peak_depth", "count", _TS, _RPS + _TS),
    ("service.batching.busy_s", "s", _TS, _RPS + _TS),
    ("service.placement.busy_s", "s", _TS, _RPS + _TS),
    ("service.policy.busy_s", "s", _DC, _RPS + _DC),
    ("workers.execute.calls", "count", _FC, _RPS + _FC),
    ("workers.execute.busy_s", "s", _FC, _RPS + _FC),
    ("workers.execute.p50_ms", "ms", _FC, _RPS + _FC),
    ("workers.execute.p99_ms", "ms", _FC, _RPS + _FC),
    ("workers.execute.failed", "count", None, "failed results; stays 0"),
    ("workers.model_cache.hit_ratio", "ratio", _TS, _RPS + _TS),
    ("workers.model_cache.lookups", "count", _TS, "base of hit_ratio"),
    ("campaign.commit.calls", "count", _DC, _RPS + _DC),
    ("campaign.commit.busy_s", "s", _DC, _RPS + _DC),
    ("campaign.commit.p50_ms", "ms", _DC, _RPS + _DC),
    ("campaign.commit.p99_ms", "ms", _DC, _RPS + _DC),
    ("campaign.commit.bytes_mean", "bytes", _DC, _RPS + _DC),
    ("codec.encode.busy_s", "s", _DC, _RPS + _DC),
    ("codec.encode.bytes", "bytes", _DC, _RPS + _DC),
    ("quda.invert.calls", "count", _FC, _RPS + _FC + "; points_per_s on " + _PS),
    ("quda.invert.busy_s", "s", _FC, _RPS + _FC + "; points_per_s on " + _PS),
    ("dslash.setup.busy_s", "s", _FC, "setup_s and " + _RPS + _FC),
    ("solver.iterations", "count", _FC, "exact count"),
    ("solver.reliable_updates", "count", _FC, "exact count"),
    ("dslash.exchange.calls", "count", _FC, _RPS + _FC),
    ("dslash.exchange.busy_s", "s", _FC, _RPS + _FC),
    ("kernels.dslash.calls", "count", _FC, _RPS + _FC + "; flat on " + _PS),
    ("kernels.dslash.busy_s", "s", _FC, _RPS + _FC + "; flat on " + _PS),
    ("kernels.dslash.p50_us", "us", _FC, _RPS + _FC),
    ("kernels.dslash.p99_us", "us", _FC, _RPS + _FC),
    ("kernels.gather_face.busy_s", "s", _FC, _RPS + _FC),
    ("kernels.clover.busy_s", "s", _FC, _RPS + _FC),
    ("blas.calls", "count", _FC, _RPS + _FC),
    ("blas.busy_s", "s", _FC, _RPS + _FC),
    ("precision.quantize.busy_s", "s", _FC, _RPS + _FC),
    ("precision.dequantize.busy_s", "s", _FC, _RPS + _FC),
    ("gpu.flops_computed", "flop", _FC, "computed count, not measured"),
    ("gpu.bytes_computed", "bytes", _FC, "computed count, not measured"),
    ("comms.send.calls", "count", _FC, _COMMS),
    ("comms.send.bytes", "bytes", _FC, _COMMS),
    ("comms.recv.wait_s", "s", _FC, _COMMS),
    ("comms.allreduce.calls", "count", _FC, _COMMS),
    ("comms.allreduce.wait_s", "s", _FC, _COMMS),
    ("comms.world.launches", "count", _FC, _COMMS),
    ("comms.world.busy_s", "s", _FC, _COMMS),
    ("trace.overhead_s", "s", _TS, "tracing cost; no end-to-end metric"),
    ("trace.untraced_s", "s", _TS, "reconciliation gap; no end-to-end metric"),
]


def repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def is_wrapper(obj) -> bool:
    obj = getattr(obj, "__func__", obj)  # staticmethod / classmethod
    return bool(getattr(obj, MARK, False))


def leaked_wrappers() -> list[str]:
    """Every wrapper still bound anywhere in the program's modules or
    their classes (empty after a clean :meth:`Tracer.uninstall`)."""
    leaks = []
    for mod in repro_modules():
        for name, value in list(vars(mod).items()):
            if is_wrapper(value):
                leaks.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if is_wrapper(member):
                        leaks.append(f"{mod.__name__}.{name}.{attr}")
    return leaks


class Tracer:
    """Installs span wrappers; collects spans from every thread."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list] = []
        self._world = None  # the open SimMPI.run span (main thread)
        #: ``(owner, attribute, original object)`` for every rebinding.
        self.installed: list[tuple] = []

    # ---- recording ----------------------------------------------------- #

    def _thread_state(self):
        tls = self._tls
        try:
            return tls.stack, tls.spans
        except AttributeError:
            tls.stack, tls.spans = [], []
            with self._lock:
                self._per_thread.append(tls.spans)
            return tls.stack, tls.spans

    def _wrap(self, fn, group: str, value_fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, spans = tracer._thread_state()
            parent = stack[-1] if stack else tracer._world
            nested = any(s[0] == group for s in stack)
            span = [group, clock(), 0.0, parent, threading.get_ident(), None, nested]
            stack.append(span)
            if group == G_WORLD and not nested:
                tracer._world = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
                if tracer._world is span:
                    tracer._world = None
            if value_fn is not None:
                span[5] = value_fn(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def spans(self) -> list[list]:
        return [s for per in self._per_thread for s in per]

    # ---- install / uninstall ------------------------------------------- #

    def install(self) -> None:
        for group, targets in LAYERS.items():
            for module_name, qualname, value_fn in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    self._install_method(module, qualname, group, value_fn)
                else:
                    self._install_function(module, qualname, group, value_fn)

    def _install_function(self, module, name, group, value_fn) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, group, value_fn)
        for mod in repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _install_method(self, module, qualname, group, value_fn) -> None:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        original = vars(cls)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            replacement = type(original)(
                self._wrap(original.__func__, group, value_fn)
            )
        else:
            replacement = self._wrap(original, group, value_fn)
        self.installed.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> list[str]:
        """Restore every original binding; returns the bindings that did
        not come back (an empty list is the clean outcome)."""
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.installed
            if vars(owner).get(attr) is not original
        ]
        self.installed = []
        return bad


# ---- folding spans into metrics ---------------------------------------- #


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def layer_metrics(spans: list[list], *, reps: int, traced_wall_s: float,
                  untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics per unit of work (one rep), plus detail tables.

    ``calls`` and ``busy_s`` count only spans not nested inside a span
    of the same group, so recursion inside a layer is not double
    counted.  Busy time in rank threads is summed over threads, so a
    layer's busy time can exceed the wall time.
    """
    by_group: dict[str, list] = {g: [] for g in LAYERS}
    child_time: dict[int, float] = {}
    children_groups: dict[int, set] = {}
    main_top = 0.0
    main = threading.main_thread().ident
    for s in spans:
        if not s[6]:
            by_group[s[0]].append(s)
        parent = s[3]
        if parent is not None and parent[4] == s[4]:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + s[2] - s[1]
            children_groups.setdefault(id(parent), set()).add(s[0])
        if parent is None and s[4] == main:
            main_top += s[2] - s[1]

    def values(group):
        return [s[5] for s in by_group[group] if s[5] is not None]

    def durations(group):
        return [s[2] - s[1] for s in by_group[group]]

    def busy(group):
        return sum(durations(group))

    def calls(group):
        return len(by_group[group])

    serve_self = sum(
        (s[2] - s[1]) - child_time.get(id(s), 0.0)
        for s in spans if s[0] == "service.serve"
    )
    execute = by_group["workers.execute"]
    lookups = [s for s in execute if s[5] is not None and not s[5][1]]
    misses = sum(1 for s in lookups if "quda.invert" in children_groups.get(id(s), ()))
    commit_ids = {id(s) for s in spans if s[0] == "campaign.commit"}
    commit_bytes = sum(
        s[5] for s in by_group["codec.encode"]
        if s[5] is not None and s[3] is not None and id(s[3]) in commit_ids
    )
    invert = values("quda.invert")
    flops_by_kernel: dict[str, list[int]] = {}
    for s in spans:
        if s[0] == "gpu.launch" and s[5] is not None:
            row = flops_by_kernel.setdefault(s[5][0], [0, 0, 0])
            row[0] += 1
            row[1] += s[5][1]
            row[2] += s[5][2]
    kernel_ms = [d * 1e3 for d in durations("kernels.dslash")]
    execute_ms = [d * 1e3 for d in durations("workers.execute")]
    commit_ms = [d * 1e3 for d in durations("campaign.commit")]

    total = {
        "service.serve.self_s": serve_self,
        "service.queue.calls": calls("service.queue"),
        "service.queue.busy_s": busy("service.queue"),
        "service.batching.busy_s": busy("service.batching"),
        "service.placement.busy_s": busy("service.placement"),
        "service.policy.busy_s": busy("service.policy"),
        "workers.execute.calls": calls("workers.execute"),
        "workers.execute.busy_s": busy("workers.execute"),
        "workers.execute.failed": sum(1 for s in execute if not (s[5] and s[5][0])),
        "workers.model_cache.lookups": len(lookups),
        "campaign.commit.calls": calls("campaign.commit"),
        "campaign.commit.busy_s": busy("campaign.commit"),
        "codec.encode.busy_s": busy("codec.encode"),
        "codec.encode.bytes": sum(values("codec.encode")),
        "quda.invert.calls": calls("quda.invert"),
        "quda.invert.busy_s": busy("quda.invert"),
        "dslash.setup.busy_s": busy("dslash.setup"),
        "solver.iterations": sum(v[0] for v in invert),
        "solver.reliable_updates": sum(v[1] for v in invert),
        "dslash.exchange.calls": calls("dslash.exchange"),
        "dslash.exchange.busy_s": busy("dslash.exchange"),
        "kernels.dslash.calls": calls("kernels.dslash"),
        "kernels.dslash.busy_s": busy("kernels.dslash"),
        "kernels.gather_face.busy_s": busy("kernels.gather_face"),
        "kernels.clover.busy_s": busy("kernels.clover"),
        "blas.calls": calls("blas"),
        "blas.busy_s": busy("blas"),
        "precision.quantize.busy_s": busy("precision.quantize"),
        "precision.dequantize.busy_s": busy("precision.dequantize"),
        "gpu.flops_computed": sum(r[1] for r in flops_by_kernel.values()),
        "gpu.bytes_computed": sum(r[2] for r in flops_by_kernel.values()),
        "comms.send.calls": calls("comms.send"),
        "comms.send.bytes": sum(values("comms.send")),
        "comms.recv.wait_s": busy("comms.recv"),
        "comms.allreduce.calls": calls("comms.allreduce"),
        "comms.allreduce.wait_s": busy("comms.allreduce"),
        "comms.world.launches": calls("comms.world"),
        "comms.world.busy_s": busy("comms.world"),
        "trace.untraced_s": traced_wall_s - main_top,
    }
    metrics = {k: v / reps for k, v in total.items()}
    metrics.update({
        "service.queue.peak_depth": max(values("service.queue"), default=0),
        "workers.execute.p50_ms": _pct(execute_ms, 50),
        "workers.execute.p99_ms": _pct(execute_ms, 99),
        "workers.model_cache.hit_ratio": (
            (len(lookups) - misses) / len(lookups) if lookups else 0.0
        ),
        "campaign.commit.p50_ms": _pct(commit_ms, 50),
        "campaign.commit.p99_ms": _pct(commit_ms, 99),
        "campaign.commit.bytes_mean": (
            commit_bytes / len(commit_ids) if commit_ids else 0.0
        ),
        "kernels.dslash.p50_us": _pct(kernel_ms, 50) * 1e3,
        "kernels.dslash.p99_us": _pct(kernel_ms, 99) * 1e3,
        "trace.overhead_s": (traced_wall_s - untraced_wall_s) / reps,
    })
    detail = {
        "gpu_by_kernel": {
            name: {"launches": r[0] / reps, "flops": r[1] / reps, "bytes": r[2] / reps}
            for name, r in sorted(flops_by_kernel.items())
        },
        "busy_share": {
            g: sum(s[2] - s[1] for s in by_group[g]) / traced_wall_s
            for g in LAYERS if by_group[g]
        },
        "spans": len(spans),
    }
    return metrics, detail


def chrome_trace(spans: list[list], limit: int = 200_000) -> dict:
    """Trace-event JSON of the first ``limit`` spans (by start time)."""
    spans = sorted(spans, key=lambda s: s[1])[:limit]
    t0 = spans[0][1] if spans else 0.0
    tids: dict[int, int] = {}
    events = []
    for s in spans:
        tid = tids.setdefault(s[4], len(tids))
        events.append({
            "name": s[0], "ph": "X", "pid": 0, "tid": tid,
            "ts": round((s[1] - t0) * 1e6, 3),
            "dur": round((s[2] - s[1]) * 1e6, 3),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
