"""Incremental campaign-checkpoint encoding.

A commit packs each terminal record, the completion log and the brownout
transitions once and splices those bytes into every later commit.  That
is only correct while terminal records stay immutable and both logs stay
append-only.  These tests are the safety net for that assumption:

* a seeded sweep of feature combinations, with scheduler crashes and
  resumes, checks every committed blob against a from-scratch encode of
  the live state at that moment;
* a deterministic growth guard counts the values each commit packs on a
  256-request campaign: late commits must not pack more than early ones
  by more than a small constant factor.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import codec
from repro.comms.cluster import Topology
from repro.comms.faults import DomainFaultPlan, FaultPlan, WorkerFaultPlan
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    CampaignCheckpoint,
    CampaignCheckpointStore,
    DomainPolicy,
    HealthPolicy,
    HedgePolicy,
    MirroredCheckpointStore,
    PreemptionPolicy,
    SchedulerCrash,
    ServiceConfig,
    SolveService,
    TenancyPolicy,
    bursty_workload,
    stream_workload,
)
from repro.service import service as service_module

DIMS = (4, 4, 4, 8)


def _config(features: frozenset, seed: int) -> ServiceConfig:
    kw = dict(
        queue_capacity=48,
        policy=BatchPolicy(max_batch=4),
        n_workers=6,
        ranks_per_worker=2,
        fixed_iterations=10,
        max_retries=4,
        seed=seed,
    )
    if "tenancy" in features:
        kw["tenancy"] = TenancyPolicy.build(
            ["a", "b"], weights=[3.0, 1.0], quota_qps=3000.0, quota_burst=8
        )
    if "brownout" in features:
        kw["brownout"] = BrownoutPolicy(
            enabled=True, shed_low_at_s=2e-3, degrade_at_s=4e-3, reject_at_s=8e-3
        )
    if "hedge" in features:
        kw["hedge"] = HedgePolicy(enabled=True)
        kw["worker_faults"] = WorkerFaultPlan().with_straggler(1, factor=3.0)
    if "health" in features:
        kw["health"] = HealthPolicy(
            enabled=True,
            min_samples=1,
            trip_rate=0.5,
            cooldown_s=1e-3,
            slow_ratio=1e3,
        )
        kw["fault_plan"] = FaultPlan(seed=seed).with_stall(
            0, after_s=0.0, mode="crash"
        )
        kw["chaos_workers"] = (2,)
    if "preemption" in features:
        kw["preemption"] = PreemptionPolicy(enabled=True)
    if "topology" in features:
        kw["topology"] = Topology(n_nodes=3, workers_per_node=2, n_racks=3)
        kw["domain_faults"] = DomainFaultPlan(seed=seed).with_node_kill(
            1, at_s=2e-3
        )
        kw["domain_health"] = DomainPolicy(
            enabled=True, strike_k=2, cooldown_s=2e-3
        )
    return ServiceConfig(**kw)


def _workload(features: frozenset, seed: int):
    tenants = "tenancy" in features
    return bursty_workload(
        48,
        seed=seed,
        dims=DIMS,
        mode="double-half",
        base_rps=1500.0,
        burst_rps=12000.0,
        burst_start_s=1e-3,
        burst_len_s=3e-3,
        priority_mix=(0.25, 0.5, 0.25),
        deadline_slack_s=0.5,
        tenants=("a", "b") if tenants else None,
        tenant_mix=(0.5, 0.5) if tenants else None,
    )


def _audit_commits(monkeypatch) -> list[bytes]:
    """Check every commit against a from-scratch encode of the live state.

    Returns the list the audited blobs are appended to.  For each
    commit: every replica received the same bytes, restoring and
    re-encoding them is the identity, and they equal the encode of the
    same checkpoint with the cached parts rebuilt from plain
    ``to_json()`` values of the live campaign at that moment.
    """
    blobs: list[bytes] = []
    audited: list[bytes] = []
    real_commit_blob = CampaignCheckpointStore.commit_blob
    real_commit = service_module._Campaign._commit_checkpoint

    def commit_blob(store, blob):
        blobs.append(blob)
        real_commit_blob(store, blob)

    def commit_checkpoint(campaign):
        start = len(blobs)
        real_commit(campaign)
        landed = blobs[start:]
        assert landed and all(b == landed[0] for b in landed)
        blob = landed[0]
        restored = CampaignCheckpoint.from_bytes(blob)
        assert restored.to_bytes() == blob
        records = campaign.records
        reference = replace(
            restored,
            completion_order=list(campaign.completion_order),
            terminal=[r.to_json() for r in records if r.terminal],
            pending=[r.to_json() for r in records if not r.terminal],
            brownout=(
                campaign.brownout.to_json()
                if campaign.brownout is not None
                else {}
            ),
        )
        expected = codec.encode_record(
            reference.to_json(), kind=codec.KIND_CAMPAIGN
        )
        assert blob == expected, f"commit {len(audited)} diverged"
        audited.append(blob)

    monkeypatch.setattr(CampaignCheckpointStore, "commit_blob", commit_blob)
    monkeypatch.setattr(
        service_module._Campaign, "_commit_checkpoint", commit_checkpoint
    )
    return audited


#: ``(features, seed, crash_at_s, witness)``: the report counter each
#: case must move, so the sweep provably reaches the path it names.
_SWEEP = [
    (("tenancy", "brownout"), 1, None, "shed_low"),
    (("tenancy", "brownout"), 2, 45e-3, "brownout_rejected"),
    (("hedge", "health"), 1, None, "hedges_cancelled"),
    (("hedge", "health"), 3, 60e-3, "quarantines"),
    (("preemption",), 1, 125e-3, "preemptions"),
    (("topology", "health", "hedge", "mirror"), 2, None, "nodes_killed"),
    (("topology", "health", "hedge", "mirror"), 3, 10e-3, "nodes_killed"),
    (
        ("tenancy", "brownout", "hedge", "health", "preemption", "topology",
         "mirror"),
        1,
        70e-3,
        "degraded_served",
    ),
    ((), 2, 50e-3, "completed"),
]


class TestDifferentialBlobs:
    @pytest.mark.parametrize(
        "features,seed,crash_at_s,witness",
        _SWEEP,
        ids=[
            f"{'+'.join(f) or 'plain'}-s{seed}" + ("-crash" if crash else "")
            for f, seed, crash, _ in _SWEEP
        ],
    )
    def test_every_commit_matches_from_scratch_encode(
        self, monkeypatch, features, seed, crash_at_s, witness
    ):
        features = frozenset(features)
        cfg = _config(features, seed)
        store = (
            MirroredCheckpointStore(primary_domain=0, mirror_domain=2)
            if "mirror" in features
            else CampaignCheckpointStore()
        )
        audited = _audit_commits(monkeypatch)
        if crash_at_s is None:
            result = SolveService(cfg).serve(
                _workload(features, seed), checkpoint=store
            )
        else:
            with pytest.raises(SchedulerCrash) as exc:
                SolveService(cfg).serve(
                    _workload(features, seed),
                    checkpoint=store,
                    crash_at_s=crash_at_s,
                )
            before = len(audited)
            assert before > 0
            # The resumed campaign starts with empty caches and rebuilds
            # them from the restored records.
            result = SolveService(cfg).resume(
                _workload(features, seed), checkpoint=exc.value.store
            )
            assert len(audited) > before
        rep = result.report.to_json()
        assert rep["checkpoints_committed"] > 0
        assert rep["admitted"] == rep["completed"] + rep["failed"]
        if crash_at_s is not None:
            assert rep["checkpoint_restores"] == 1
        counters = {**rep, **rep.get("domains", {})}
        assert counters[witness] > 0


def _grid_stream(n: int, seed: int, rate: float = 60.0):
    """Seeded requests on a jittered grid: one arrival at a uniform
    offset inside each ``1/rate`` slot, so the commit count is stable."""
    requests = stream_workload(
        n,
        seed=seed,
        rate_rps=rate,
        dims=DIMS,
        priority_mix=(0.2, 0.8, 0.0),
        tenants=("a", "b"),
        tenant_mix=(0.5, 0.5),
    )
    offsets = np.random.default_rng([seed, n]).random(n)
    return [
        replace(r, arrival_s=(i + offsets[i]) / rate)
        for i, r in enumerate(requests)
    ]


#: Late commits (last quarter) may pack at most this many times the
#: values of early commits (first quarter).  On this campaign the ratio
#: of the two maxima is 1.1 (412 -> 457 values); re-packing every
#: terminal record at every commit makes it 3.7 (3817 -> 14212).
GROWTH_BOUND = 2.0


class TestGrowthGuard:
    def test_values_packed_per_commit_stay_flat(self, monkeypatch):
        """The 256-request checkpointed daemon campaign: 3x2 workers,
        weighted tenants, breaker, hedging with a straggler, brownout,
        and a commit at every batch boundary."""
        cfg = ServiceConfig(
            queue_capacity=64,
            policy=BatchPolicy(max_batch=4),
            n_workers=3,
            ranks_per_worker=2,
            fixed_iterations=10,
            health=HealthPolicy(enabled=True),
            hedge=HedgePolicy(enabled=True),
            brownout=BrownoutPolicy(enabled=True, reject_at_s=1.0),
            worker_faults=WorkerFaultPlan().with_straggler(1, factor=3.0),
            tenancy=TenancyPolicy.build(["a", "b"], weights=[3.0, 1.0]),
        )
        packed = [0]
        real_pack_into = codec._pack_into

        def counting_pack_into(obj, buf):
            packed[0] += 1
            real_pack_into(obj, buf)

        per_commit: list[int] = []
        real_commit = service_module._Campaign._commit_checkpoint

        def commit_checkpoint(campaign):
            packed[0] = 0
            real_commit(campaign)
            per_commit.append(packed[0])

        monkeypatch.setattr(codec, "_pack_into", counting_pack_into)
        monkeypatch.setattr(
            service_module._Campaign, "_commit_checkpoint", commit_checkpoint
        )
        result = SolveService(cfg).serve(
            _grid_stream(256, seed=7), checkpoint=CampaignCheckpointStore()
        )
        assert result.report.completed == 256
        assert len(per_commit) > 200
        quarter = len(per_commit) // 4
        early = max(per_commit[:quarter])
        late = max(per_commit[-quarter:])
        assert late <= GROWTH_BOUND * early, (early, late)
