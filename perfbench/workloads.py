"""The benchmark's four workloads and their correctness gates.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), warms the program's caches in :meth:`warm`, runs one unit of
work per :meth:`rep` (the timed call), and judges every rep after the
clock stops in :meth:`check`.  All arrivals are in *model* time; the
program only ever sees the generated requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracer import MARK

REFERENCES = Path(__file__).with_name("references.json")

#: Full-system true residual bound for single-half solves.  The solver's
#: ``tol`` (1e-7) governs the even-odd system in float32 arithmetic; a
#: float64 recomputation of ``|b - M x| / |b|`` lands near 1.1e-7, and
#: the repository's own tests pin single-half solutions at 5e-6
#: (``tests/core/test_invert.py``).  The solver's own residual is still
#: held to ``tol``.
SINGLE_HALF_TRUE_RESIDUAL = 5e-6


@dataclass
class Rep:
    """What one timed unit of work produced (judged after the clock)."""

    ops: int
    failed: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    payload: object = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {}


class Workload:
    unit = "request"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def release(self) -> None:
        """Undo any instrument bound into the program."""

    def reference_known(self) -> bool:
        return True


class Campaign(Workload):
    """A service campaign; subclasses build the config and arrivals."""

    def _serve(self, requests, store=None):
        from repro.service import SolveService

        service = SolveService(self.config)
        if store is None:
            return service.run(requests)
        return service.serve(iter(requests), checkpoint=store)

    def _judge(self, result, store=None) -> Rep:
        report = result.report
        errors = []
        terminal = report.completed + report.failed + report.rejected
        if terminal != report.n_requests or report.n_requests != len(self.requests):
            errors.append(
                f"terminal {terminal} != requests {report.n_requests} "
                f"(generated {len(self.requests)})"
            )
        ids = [r.request.req_id for r in result.records if r.terminal]
        if len(ids) != len(set(ids)) or len(ids) != len(self.requests):
            errors.append("a request is not terminal exactly once")
        if store is not None and store.committed != report.checkpoints_committed:
            errors.append(
                f"store committed {store.committed} != report "
                f"{report.checkpoints_committed}"
            )
        return Rep(
            ops=len(self.requests),
            failed=report.failed + report.rejected,
            digest=sha256(report.render_json()),
            errors=errors,
        )

    def check(self, reps: list[Rep]) -> list[str]:
        errors = [e for r in reps for e in r.errors]
        digests = {r.digest for r in reps}
        if len(digests) != 1:
            errors.append(f"reps disagree: {len(digests)} distinct report digests")
        ref = load_references().get(self.name, {}).get(str(self.seed))
        if ref is not None and ref not in digests:
            errors.append(f"report digest {sorted(digests)} != reference {ref}")
        return errors

    def reference_known(self) -> bool:
        return str(self.seed) in load_references().get(self.name, {})


class TimingSaturated(Campaign):
    """32768 timing-only requests at 20k req/s against a ~70 req/s pool."""

    name = "timing_saturated"
    n_requests = 32768

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.bench.harness import hot_campaign

        self.config, self.requests = hot_campaign(
            self.n_requests, queue_capacity=self.n_requests, seed=seed
        )
        self._warm = hot_campaign(512, queue_capacity=512, seed=seed)

    def warm(self) -> None:
        config, requests = self._warm
        from repro.service import SolveService

        SolveService(config).run(requests)

    def rep(self) -> Rep:
        return self._judge(self._serve(self.requests))


class DaemonCheckpointed(Campaign):
    """A shallow-queue streamed daemon committing a checkpoint per batch."""

    name = "daemon_checkpointed"
    n_requests = 256
    rate_rps = 60.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.comms import WorkerFaultPlan
        from repro.service import (
            BatchPolicy,
            BrownoutPolicy,
            HealthPolicy,
            HedgePolicy,
            ServiceConfig,
            TenancyPolicy,
            stream_workload,
        )

        rate = self.rate_rps
        self.config = ServiceConfig(
            queue_capacity=64,
            policy=BatchPolicy(max_batch=4),
            n_workers=3,
            ranks_per_worker=2,
            fixed_iterations=10,
            health=HealthPolicy(enabled=True),
            hedge=HedgePolicy(enabled=True),
            # The ladder sheds LOW and degrades precision under pressure;
            # the stream carries no LOW traffic and the reject rung sits
            # out of reach, so every request is served.
            brownout=BrownoutPolicy(enabled=True, reject_at_s=1.0),
            worker_faults=WorkerFaultPlan().with_straggler(1, factor=3.0),
            tenancy=TenancyPolicy.build(["a", "b"], weights=[3.0, 1.0]),
        )

        def stream(n: int) -> list:
            """Seeded requests on a jittered 60 req/s grid: one arrival
            at a uniform offset inside each 1/60 s slot.  Poisson gaps
            would let the seed move the commit count, and with it the
            quadratic encode cost, by +-15%; the grid holds it to +-1%."""
            requests = stream_workload(
                n, seed=seed, rate_rps=rate, dims=(4, 4, 4, 8),
                priority_mix=(0.2, 0.8, 0.0),
                tenants=("a", "b"), tenant_mix=(0.5, 0.5),
            )
            offsets = np.random.default_rng([seed, n]).random(n)
            return [
                replace(r, arrival_s=(i + offsets[i]) / rate)
                for i, r in enumerate(requests)
            ]

        self.requests = stream(self.n_requests)
        self._warm_requests = stream(32)

    def warm(self) -> None:
        from repro.service import CampaignCheckpointStore, SolveService

        SolveService(self.config).serve(
            iter(self._warm_requests), checkpoint=CampaignCheckpointStore()
        )

    def rep(self) -> Rep:
        from repro.service import CampaignCheckpointStore

        store = CampaignCheckpointStore()
        return self._judge(self._serve(self.requests, store), store)


class FunctionalCampaign(Campaign):
    """Four real-numerics requests served as one multi-RHS batch."""

    name = "functional_campaign"
    n_requests = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.service import BatchPolicy, ServiceConfig, synthetic_workload

        self.config = ServiceConfig(
            queue_capacity=64,
            policy=BatchPolicy(max_batch=4),
            n_workers=2,
            ranks_per_worker=2,
            functional=True,
        )
        self.requests = synthetic_workload(
            self.n_requests, seed=seed, rate_rps=20000.0, dims=(4, 4, 4, 8)
        )
        self._warm_requests = self.requests[:1]
        self.solves: list[tuple] = []
        self._capture()

    def _capture(self) -> None:
        """Keep each batch's gauge, sources and solutions for the
        residual check.  Bound only where the worker looks the solver
        up, and calling through ``repro.core.quda`` at call time so a
        traced run still sees the solver's own span."""
        import repro.core.quda as quda
        import repro.service.workers as workers

        solves = self.solves

        def invert_multi(gauge, sources, inv, **kwargs):
            results = quda.invert_multi(gauge, sources, inv, **kwargs)
            solves.append((gauge, sources, inv, results))
            return results

        setattr(invert_multi, MARK, True)
        self._captured = (workers, workers.invert_multi)
        workers.invert_multi = invert_multi

    def release(self) -> None:
        module, original = self._captured
        module.invert_multi = original

    def warm(self) -> None:
        self._serve(self._warm_requests)
        self.solves.clear()

    def rep(self) -> Rep:
        start = len(self.solves)
        result = self._serve(self.requests)
        rep = self._judge(result)
        rep.payload = (result.report.completed, self.solves[start:])
        return rep

    def check(self, reps: list[Rep]) -> list[str]:
        from repro.lattice.clover import make_clover
        from repro.lattice.dirac import WilsonCloverOperator

        errors = [e for r in reps for e in r.errors]
        self.worst_ratio = 0.0
        for rep in reps:
            completed, solves = rep.payload
            solved = sum(len(s[1]) for s in solves)
            if completed != self.n_requests or solved != self.n_requests:
                errors.append(f"completed {completed}, solved {solved} of {self.n_requests}")
            for gauge, sources, inv, results in solves:
                clover = (
                    make_clover(gauge, c_sw=inv.clover_coeff)
                    if inv.clover_coeff != 0.0 else None
                )
                op = WilsonCloverOperator(gauge, inv.mass, clover)
                for source, res in zip(sources, results):
                    true = float(
                        np.linalg.norm(source.data - op.apply(res.solution).data)
                        / np.linalg.norm(source.data)
                    )
                    self.worst_ratio = max(self.worst_ratio, true / inv.tol)
                    if not res.stats.converged or res.stats.residual_norm > inv.tol:
                        errors.append(
                            f"not converged: residual {res.stats.residual_norm:.3e}"
                        )
                    if not true <= SINGLE_HALF_TRUE_RESIDUAL:
                        errors.append(f"true residual {true:.3e} > {SINGLE_HALF_TRUE_RESIDUAL}")
            rep.digest = sha256(json.dumps(
                [r.stats.iterations for s in solves for r in s[3]]
            ))
            rep.payload = None
        if len({r.digest for r in reps}) != 1:
            errors.append("reps disagree on solver iteration counts")
        return errors

    def reference_known(self) -> bool:
        return True  # judged by residuals, not by a recorded digest


class PaperScaling(Workload):
    """Fig. 5(b) strong-scaling points, 24^3 x 128, timing-only."""

    name = "paper_scaling"
    unit = "point"
    dims = (24, 24, 24, 128)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.bench.harness import run_scaling_point

        self._point = run_scaling_point
        points = [
            (ranks, mode, overlap)
            for ranks in (2, 4)
            for mode in ("single", "single-half")
            for overlap in (True, False)
        ]
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[i] for i in order]

    @staticmethod
    def key(ranks: int, mode: str, overlap: bool) -> str:
        return f"{ranks}/{mode}/{'overlap' if overlap else 'no-overlap'}"

    def warm(self) -> None:
        self.sweep()

    def sweep(self) -> dict[str, float | None]:
        return {
            self.key(*p): self._point(self.dims, p[1], p[0], overlap=p[2]).gflops
            for p in self.points
        }

    def rep(self) -> Rep:
        gflops = self.sweep()
        return Rep(
            ops=len(gflops),
            failed=sum(1 for g in gflops.values() if g is None),
            digest=sha256(json.dumps(gflops, sort_keys=True)),
            payload=gflops,
        )

    def check(self, reps: list[Rep]) -> list[str]:
        ref = load_references().get(self.name, {})
        errors = []
        for rep in reps:
            for key, gflops in rep.payload.items():
                want = ref.get(key)
                if gflops is None or want is None or abs(gflops - want) > 1e-9 * want:
                    errors.append(f"{key}: {gflops} Gflops, reference {want}")
        return errors


WORKLOADS = {
    w.name: w
    for w in (TimingSaturated, DaemonCheckpointed, FunctionalCampaign, PaperScaling)
}
