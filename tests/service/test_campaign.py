"""Campaign checkpoint serialization: the PR-2 recipe, one level up."""

import json
from dataclasses import replace

import pytest

from repro import codec
from repro.service import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
    MirroredCheckpointStore,
    RequestRecord,
    SolveRequest,
    StructuredFailure,
)
from repro.service.request import COMPLETED, QUEUED


def _record(req_id: int, *, terminal: bool = False) -> RequestRecord:
    rec = RequestRecord(
        request=SolveRequest(req_id=req_id, arrival_s=req_id * 1e-4)
    )
    rec.note(req_id * 1e-4, "arrive", "priority 1")
    rec.admitted_s = req_id * 1e-4
    if terminal:
        rec.state = COMPLETED
        rec.completed_s = 1e-3
        rec.iterations = 15
        rec.converged = True
        rec.residual_norm = 1e-12
    return rec


def _checkpoint(**overrides) -> CampaignCheckpoint:
    kw = dict(
        time_s=2.5e-3,
        arrivals_consumed=7,
        next_batch_id=3,
        next_req_seq=7,
        makespan_s=2.5e-3,
        checkpoints_committed=2,
        preemptions=1,
        completion_order=[0, 2, 1],
        terminal=[_record(i, terminal=True).to_json() for i in range(3)],
        pending=[_record(i).to_json() for i in range(3, 7)],
        workers=[
            {
                "worker_id": 0,
                "busy_s": 1e-3,
                "batches_run": 2,
                "retired": False,
                "resident": {
                    "config_id": 0,
                    "dims": [8, 8, 8, 32],
                    "mode": "single-half",
                    "grid": None,
                },
            }
        ],
        tunecache=None,
        drain={"alpha": 0.3, "initial_s": 2e-3, "samples": 2, "ewma": 1e-3},
        arrival_rate={},
        elastic={},
    )
    kw.update(overrides)
    return CampaignCheckpoint(**kw)


class TestRequestRecordRoundTrip:
    def test_pending_round_trip(self):
        rec = _record(5)
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.request.req_id == 5
        assert clone.state == QUEUED
        assert clone.admitted_s == rec.admitted_s
        assert clone.trace == rec.trace

    def test_terminal_round_trip(self):
        rec = _record(2, terminal=True)
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.terminal
        assert clone.iterations == 15
        assert clone.converged is True

    def test_failure_round_trip(self):
        rec = _record(9)
        rec.failure = StructuredFailure(
            kind="worker_crash", detail="rank 1 crash", failed_rank=1,
            model_time=1e-3, attempts=2,
        )
        rec.preemptions = 3
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.failure.kind == "worker_crash"
        assert clone.failure.failed_rank == 1
        assert clone.preemptions == 3


class TestCheckpointBytes:
    def test_round_trip(self):
        ckpt = _checkpoint()
        clone = CampaignCheckpoint.from_bytes(ckpt.to_bytes())
        # json.dumps rather than dict equality: un-set residual norms are
        # NaN, which never compares equal to itself.
        assert json.dumps(clone.to_json(), sort_keys=True) == json.dumps(
            ckpt.to_json(), sort_keys=True
        )

    def test_bytes_deterministic(self):
        assert _checkpoint().to_bytes() == _checkpoint().to_bytes()

    def test_restored_checkpoint_re_encodes_identically(self):
        blob = _checkpoint().to_bytes()
        assert CampaignCheckpoint.from_bytes(blob).to_bytes() == blob

    def test_packed_parts_encode_like_plain_values(self):
        """A live commit hands over its append-only parts pre-packed."""
        plain = _checkpoint(
            brownout={"level": 1, "transitions": [[1e-3, 1, 5e-3]]}
        )
        settled = codec.PackedList()
        settled.extend(plain.terminal[:2])
        spliced = replace(
            plain,
            completion_order=codec.Packed.of(plain.completion_order),
            terminal=settled.packed([codec.Packed.of(plain.terminal[2])]),
            brownout={
                "level": 1,
                "transitions": codec.Packed.of([[1e-3, 1, 5e-3]]),
            },
        )
        assert spliced.to_bytes() == plain.to_bytes()

    def test_bad_magic_rejected(self):
        blob = bytearray(_checkpoint().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="not a CampaignCheckpoint"):
            CampaignCheckpoint.from_bytes(bytes(blob))

    def test_corrupted_body_rejected(self):
        blob = bytearray(_checkpoint().to_bytes())
        blob[-1] ^= 0x01
        with pytest.raises(ValueError, match="checksum"):
            CampaignCheckpoint.from_bytes(bytes(blob))

    def test_truncation_rejected(self):
        blob = _checkpoint().to_bytes()
        with pytest.raises(ValueError):
            CampaignCheckpoint.from_bytes(blob[: len(blob) // 2])

    def test_restored_records_split(self):
        terminal, pending = _checkpoint().restored_records()
        assert [r.request.req_id for r in terminal] == [0, 1, 2]
        assert [r.request.req_id for r in pending] == [3, 4, 5, 6]
        assert all(r.terminal for r in terminal)
        assert not any(r.terminal for r in pending)


class TestCheckpointStore:
    def test_latest_none_when_empty(self):
        assert CampaignCheckpointStore().latest() is None

    def test_latest_returns_newest(self):
        store = CampaignCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        assert store.latest().checkpoints_committed == 2
        assert store.committed == 2

    def test_keeps_latest_plus_one_fallback(self):
        store = CampaignCheckpointStore()
        for i in range(5):
            store.commit(_checkpoint(checkpoints_committed=i))
        assert len(store) == 2

    def test_corrupt_latest_falls_back(self):
        store = CampaignCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        blob = bytearray(store._blobs[-1])
        blob[-1] ^= 0x01
        store._blobs[-1] = bytes(blob)
        assert store.latest().checkpoints_committed == 1

    def test_file_mirror_and_load(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        store = CampaignCheckpointStore(path)
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        loaded = CampaignCheckpointStore.load(path)
        assert loaded.latest().checkpoints_committed == 2

    def test_loaded_corrupt_file_yields_none(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(b"garbage that is not a checkpoint")
        assert CampaignCheckpointStore.load(str(path)).latest() is None


class TestMirroredCommit:
    def _counting_encode(self, monkeypatch) -> list[int]:
        calls = [0]
        real = codec.encode_record

        def encode_record(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(codec, "encode_record", encode_record)
        return calls

    def test_one_encode_per_commit_and_equal_replicas(self, monkeypatch):
        calls = self._counting_encode(monkeypatch)
        store = MirroredCheckpointStore(primary_domain=0, mirror_domain=1)
        for i in range(3):
            store.commit(_checkpoint(checkpoints_committed=i))
            assert calls[0] == i + 1
            assert store.primary._blobs[-1] == store.mirror._blobs[-1]
        assert store.committed == 3

    def test_lost_replica_receives_nothing(self, monkeypatch):
        calls = self._counting_encode(monkeypatch)
        store = MirroredCheckpointStore(primary_domain=0, mirror_domain=1)
        store.lose_domain(0)
        store.commit(_checkpoint())
        assert calls[0] == 1
        assert len(store.primary) == 0 and len(store.mirror) == 1
        store.lose_domain(1)
        store.commit(_checkpoint())
        assert calls[0] == 1
        assert store.committed == 2
