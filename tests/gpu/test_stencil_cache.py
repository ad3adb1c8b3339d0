"""Lifecycle of the decoded-field caches and the dslash stencil plans.

Gauge links and clover blocks are constant for an operator's life, so
the device fields decode them once and the dslash kernel compiles one
stencil plan per configuration.  These tests pin the invariant that makes
that safe — every write drops the cached state — and the payoff: the
decode work of a solve no longer grows with its iteration count.
"""

import numpy as np
import pytest

from repro.core import QudaInvertParam, invert_model_multi, invert_multi
from repro.core.dslash import DeviceSchurOperator
from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu import fields as fields_mod
from repro.gpu import kernels as kernels_mod
from repro.gpu.kernels import dslash_kernel, dslash_tables
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge
from repro.lattice.evenodd import EVEN
from repro.lattice.geometry import T_DIR

GEO = LatticeGeometry((4, 4, 4, 4))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _blocks(rng, n):
    a = _complex(rng, (n, 2, 6, 6))
    return a + np.conj(np.swapaxes(a, -1, -2))


class _Operator:
    """Gauge + clover + a source with temporal ghosts, on one GPU."""

    def __init__(self, prec, gauge_data, ghost_links, clover_blocks, psi, halves):
        self.gpu = VirtualGPU(enforce_memory=False)
        vh, fs = GEO.half_volume, GEO.face_half_sites(T_DIR)
        self.gauge = DeviceGaugeField(
            self.gpu, sites=GEO.volume, precision=prec,
            ghosts={T_DIR: GEO.spatial_volume}, pad_sites=GEO.spatial_volume,
        )
        self.gauge.set(gauge_data)
        self.gauge.set_ghost(ghost_links)
        self.clover = DeviceCloverField(self.gpu, sites=vh, precision=prec)
        self.clover.set(clover_blocks)
        self.src = DeviceSpinorField(self.gpu, sites=vh, precision=prec, face_sites=fs)
        self.src.set(psi)
        for d, h in zip((BACKWARD, FORWARD), halves):
            self.src.set_ghost(d, h)
        self.dst = DeviceSpinorField(
            self.gpu, sites=vh, precision=prec, face_sites=fs, label="dst"
        )

    def apply(self):
        dslash_kernel(
            self.gpu, dslash_tables(GEO, EVEN), self.gauge, self.src, self.dst,
            partitioned=True, clover=self.clover,
        )
        return self.dst.get()


@pytest.fixture
def inputs(rng):
    def draw():
        return dict(
            gauge_data=weak_field_gauge(GEO, rng, noise=0.3).data,
            ghost_links=weak_field_gauge(GEO, rng, noise=0.3).data[T_DIR][
                : GEO.spatial_volume
            ],
            clover_blocks=_blocks(rng, GEO.half_volume),
        )

    fs = GEO.face_half_sites(T_DIR)
    spinor = dict(
        psi=_complex(rng, (GEO.half_volume, 4, 3)),
        halves=[_complex(rng, (fs, 2, 3)) for _ in range(2)],
    )
    return draw(), draw(), spinor


def _fresh(prec, state, spinor):
    return _Operator(prec, **state, **spinor).apply()


@pytest.mark.parametrize("prec", list(Precision))
class TestWritesDropCaches:
    def test_gauge_set(self, prec, inputs):
        a, b, spinor = inputs
        op = _Operator(prec, **a, **spinor)
        op.apply()
        op.gauge.set(b["gauge_data"])
        fresh = _fresh(prec, dict(a, gauge_data=b["gauge_data"]), spinor)
        assert np.array_equal(op.apply(), fresh)

    def test_gauge_set_ghost(self, prec, inputs):
        a, b, spinor = inputs
        op = _Operator(prec, **a, **spinor)
        op.apply()
        op.gauge.set_ghost(b["ghost_links"])
        fresh = _fresh(prec, dict(a, ghost_links=b["ghost_links"]), spinor)
        assert np.array_equal(op.apply(), fresh)

    def test_clover_set(self, prec, inputs):
        a, b, spinor = inputs
        op = _Operator(prec, **a, **spinor)
        op.apply()
        op.clover.set(b["clover_blocks"])
        fresh = _fresh(prec, dict(a, clover_blocks=b["clover_blocks"]), spinor)
        assert np.array_equal(op.apply(), fresh)

    def test_release_drops_plans_and_decodes(self, prec, inputs):
        a, _, spinor = inputs
        op = _Operator(prec, **a, **spinor)
        op.apply()
        assert op.gauge.plans and op.gauge._links and op.gauge._ghost_links
        op.gauge.release()
        op.clover.release()
        assert not op.gauge.plans
        assert not op.gauge._links and not op.gauge._ghost_links
        assert op.clover._blocks is None


def test_cached_decodes_are_read_only(inputs):
    a, _, spinor = inputs
    op = _Operator(Precision.HALF, **a, **spinor)
    for arr in (op.gauge.links(0), op.gauge.ghost_links(), op.clover.blocks()):
        assert not arr.flags.writeable


def test_plan_keys_are_values_not_identities(inputs):
    """Equal configurations share a plan even through freshly built
    tables objects; the key holds only values."""
    a, _, spinor = inputs
    op = _Operator(Precision.SINGLE, **a, **spinor)
    op.apply()
    (key, plan), = op.gauge.plans.items()
    assert key == (GEO, EVEN, "full", (T_DIR,), +1, "degrand_rossi")
    dslash_tables.cache_clear()
    op.apply()
    assert op.gauge.plans == {key: plan}


# ---------------------------------------------------------------------- #
# Per-call work over whole solves
# ---------------------------------------------------------------------- #


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def work_counts(monkeypatch):
    """Count decodes, clover unpacks, plan builds and operator setups."""
    counts: dict[str, int] = {}
    _counting(monkeypatch, DeviceGaugeField, "_decode", counts)
    _counting(monkeypatch, fields_mod, "_unpack_blocks", counts)
    _counting(monkeypatch, kernels_mod, "_build_plan", counts)
    original_setup = DeviceSchurOperator.setup

    def setup(cls, *args, **kwargs):
        counts["operators"] = counts.get("operators", 0) + 1
        return original_setup(*args, **kwargs)

    monkeypatch.setattr(DeviceSchurOperator, "setup", classmethod(setup))
    return counts


def _solve_4rhs(tol):
    rng = np.random.default_rng(23)
    geo = LatticeGeometry((4, 4, 4, 8))
    gauge = weak_field_gauge(geo, rng, noise=0.15)
    sources = [random_spinor(geo, rng) for _ in range(4)]
    inv = QudaInvertParam(
        mass=0.2, precision=Precision.SINGLE, precision_sloppy=Precision.HALF, tol=tol
    )
    results = invert_multi(gauge, sources, inv, n_gpus=2, verify=False)
    return sum(r.stats.iterations for r in results)


def test_decode_work_is_per_operator_not_per_call(work_counts):
    """Over a functional 4-RHS, 2-rank solve every gauge decode and clover
    unpack happens at most once per operator: bounded by operators x
    (4 directions + ghost slices), and identical for a solve that runs
    many more iterations."""
    loose_iters = _solve_4rhs(1e-3)
    loose = dict(work_counts)
    work_counts.clear()
    tight_iters = _solve_4rhs(1e-7)
    tight = dict(work_counts)

    assert tight_iters > 2 * loose_iters
    operators = tight["operators"]  # (full + sloppy) per rank
    assert operators == 4
    ghosts = 1  # the temporal slice of a time-sliced lattice
    assert tight["_decode"] <= operators * (4 + ghosts)
    # Two clover fields per operator; only the half-precision ones unpack.
    assert tight["_unpack_blocks"] <= operators * 2
    for name in ("_decode", "_unpack_blocks", "_build_plan"):
        assert tight[name] == loose[name], name


def test_timing_only_solve_builds_nothing(work_counts):
    inv = QudaInvertParam(
        mass=0.2, precision=Precision.SINGLE, precision_sloppy=Precision.HALF,
        fixed_iterations=5,
    )
    invert_model_multi((8, 8, 8, 16), inv, n_sources=2, n_gpus=2)
    assert work_counts.get("operators", 0) > 0
    for name in ("_decode", "_unpack_blocks", "_build_plan"):
        assert work_counts.get(name, 0) == 0, name
