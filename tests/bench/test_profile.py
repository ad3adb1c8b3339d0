"""Tests for the profiler-style timeline reports."""

import pytest

from repro.bench.profile import profile_ops, profile_solve, render_profile
from repro.gpu import Precision, VirtualGPU


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


class TestProfileOps:
    def test_grouping_collapses_instances(self, gpu):
        gpu.memcpy("face_d2h[3][backward][0]", "d2h", 100)
        gpu.memcpy("face_d2h[3][backward][1]", "d2h", 100)
        gpu.memcpy("face_d2h[3][forward][0]", "d2h", 100)
        rows = profile_ops(gpu.timeline.ops)
        assert len(rows) == 1
        assert rows[0].name == "face_d2h" and rows[0].calls == 3

    def test_sorted_by_time(self, gpu):
        gpu.launch("small", Precision.SINGLE, bytes_moved=10**5, flops=0)
        gpu.launch("big", Precision.SINGLE, bytes_moved=10**8, flops=0)
        rows = profile_ops(gpu.timeline.ops)
        assert rows[0].name == "big"

    def test_bandwidth_and_rate(self, gpu):
        gpu.launch("k", Precision.SINGLE, bytes_moved=10**8, flops=10**7)
        row = profile_ops(gpu.timeline.ops)[0]
        assert row.bandwidth_gbs > 0
        assert row.gflops > 0

    def test_render_contains_shares(self, gpu):
        gpu.launch("k", Precision.SINGLE, bytes_moved=10**7, flops=0)
        text = render_profile(gpu.timeline.ops)
        assert "%" in text and "k" in text

    def test_top_truncation(self, gpu):
        for i in range(5):
            gpu.launch(f"k{i}", Precision.SINGLE, bytes_moved=10**6, flops=0)
        text = render_profile(gpu.timeline.ops, top=2)
        assert text.count("\n") == 3  # header + separator + 2 rows


class TestProfileSolve:
    @pytest.fixture(scope="class")
    def ops(self):
        return profile_solve((8, 8, 8, 16), "single-half", n_gpus=2, iterations=3)

    def test_window_contains_the_solver(self, ops):
        names = {o.name.split("[")[0] for o in ops}
        assert "dslash" in names
        assert any(n.startswith("blas_") for n in names)
        assert "face_d2h" in names  # partitioned: faces moved

    def test_dslash_dominates_kernel_time(self, ops):
        rows = {r.name: r for r in profile_ops(ops)}
        kernel_rows = [r for r in rows.values() if r.kind == "kernel"]
        assert max(kernel_rows, key=lambda r: r.total_s).name == "dslash"

    def test_deterministic(self):
        a = profile_solve((8, 8, 8, 16), "single", n_gpus=2, iterations=2)
        b = profile_solve((8, 8, 8, 16), "single", n_gpus=2, iterations=2)
        assert [(o.name, o.start) for o in a] == [(o.name, o.start) for o in b]


class TestHotspotProfile:
    def test_rank_thread_work_is_attributed(self, monkeypatch):
        """The solver runs only on SimMPI rank threads; the merged profile
        must still see it (not just the main thread's wait on it)."""
        import threading

        from repro.bench.profile import hotspot_profile
        from repro.service.workers import SimWorker

        # An empty model cache, so the campaign really solves.
        monkeypatch.setattr(SimWorker, "_model_cache", {})
        prof = hotspot_profile(32, top=10_000)
        calls = {
            r["function"]: r["calls"] for r in prof["hotspots"] if r["calls"] > 0
        }
        assert "bicgstab_solve" in calls
        assert "dslash_with_exchange" in calls
        assert threading.getprofile() is None  # the thread hook is removed
