"""The stencil-plan dslash is bit-identical to the per-direction einsum form.

:mod:`tests.gpu.reference_dslash` keeps the kernel's original
formulation.  The plan changes only where the constant work happens, not
the arithmetic, so every configuration — precision, region, partitioned
directions, dagger, clover fusion, spin basis, boundary conditions —
must store exactly the same bytes, and a whole multi-RHS solve must
reproduce its solutions and statistics exactly.
"""

import itertools

import numpy as np
import pytest

from repro.core import QudaInvertParam, invert_multi
from repro.core import parallel_dslash
from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu import kernels
from repro.gpu.kernels import dslash_kernel, dslash_tables, normalize_partitioned
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge
from repro.lattice.gamma import BASES
from repro.lattice.evenodd import EVEN, ODD

from .reference_dslash import reference_dslash_kernel

PARTITIONS = (False, (3,), (2, 3))
CLOVER_TARGETS = (None, "result", "xpay")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian_blocks(rng, n):
    a = _complex(rng, (n, 2, 6, 6))
    return a + np.conj(np.swapaxes(a, -1, -2))


class _Setup:
    """One kernel configuration's device fields, seeded."""

    def __init__(self, seed, prec, partitioned, basis, antiperiodic, target):
        rng = np.random.default_rng(seed)
        self.prec, self.partitioned = prec, partitioned
        geo = LatticeGeometry((4, 4, 4, 4), antiperiodic_t=antiperiodic)
        dirs = normalize_partitioned(partitioned)
        self.gpu = gpu = VirtualGPU(enforce_memory=False)
        self.tables = dslash_tables(geo, target)
        vh = geo.half_volume
        self.gauge = DeviceGaugeField(
            gpu, sites=geo.volume, precision=prec,
            ghosts={mu: geo.volume // geo.dims[mu] for mu in dirs},
            pad_sites=geo.spatial_volume,
        )
        self.gauge.set(weak_field_gauge(geo, rng, noise=0.3).data)
        for mu in dirs:
            g = weak_field_gauge(geo, rng, noise=0.3).data[mu]
            self.gauge.set_ghost(g[: geo.volume // geo.dims[mu]], mu=mu)
        faces = {mu: geo.face_half_sites(mu) for mu in dirs}

        def spinor(label):
            f = DeviceSpinorField(
                gpu, sites=vh, precision=prec, faces=faces, basis=basis, label=label
            )
            f.set(_complex(rng, (vh, 4, 3)))
            for mu in dirs:
                for d in (BACKWARD, FORWARD):
                    f.set_ghost(d, _complex(rng, (faces[mu], 2, 3)), mu=mu)
            return f

        self.src, self.x, self.dst_init = spinor("src"), spinor("x"), _complex(
            rng, (vh, 4, 3)
        )
        self.clover = DeviceCloverField(gpu, sites=vh, precision=prec)
        self.clover.set(_hermitian_blocks(rng, vh))
        self.make_dst = lambda: spinor("dst")

    def run(self, kernel, *, region, partitioned, dagger, clover_target):
        dst = self.make_dst()
        dst.set(self.dst_init)
        kwargs = {}
        if clover_target is not None:
            kwargs.update(clover=self.clover, clover_target=clover_target)
        if clover_target == "xpay":
            kwargs["xpay"] = (-0.25, self.x)
        kernel(
            self.gpu, self.tables, self.gauge, self.src, dst,
            region=region, partitioned=partitioned, dagger=dagger, **kwargs,
        )
        return dst


def _stored(field):
    return field._store.array, field._norms


CASES = list(
    itertools.product(
        list(Precision), PARTITIONS, BASES, (True, False), (EVEN, ODD)
    )
)


@pytest.mark.parametrize(
    "prec,partitioned,basis,antiperiodic,target",
    CASES,
    ids=[
        f"{p.name.lower()}-{'x'.join(map(str, q)) if q else 'local'}-{b[:2]}-"
        f"{'ap' if a else 'p'}-{'even' if t == EVEN else 'odd'}"
        for p, q, b, a, t in CASES
    ],
)
def test_kernel_matches_reference_bytes(prec, partitioned, basis, antiperiodic, target):
    seed = CASES.index((prec, partitioned, basis, antiperiodic, target))
    _assert_matches(_Setup(seed, prec, partitioned, basis, antiperiodic, target))


@pytest.mark.parametrize("prec", list(Precision))
@pytest.mark.parametrize("partitioned", PARTITIONS[1:])
def test_multi_pass_kernel_matches_reference_bytes(monkeypatch, prec, partitioned):
    """Rows processed in several passes (a pass size that divides
    neither the rows nor the faces) give the same bytes."""
    monkeypatch.setattr(kernels, "ROWS_PER_PASS", 20)
    _assert_matches(_Setup(7, prec, partitioned, BASES[1], True, ODD))


def _assert_matches(setup):
    for region, dagger, clover_target in itertools.product(
        ("full", "interior", "boundary"), (False, True), CLOVER_TARGETS
    ):
        opts = dict(
            region=region, partitioned=setup.partitioned, dagger=dagger,
            clover_target=clover_target,
        )
        want = setup.run(reference_dslash_kernel, **opts)
        got = setup.run(dslash_kernel, **opts)
        (w_arr, w_norms), (g_arr, g_norms) = _stored(want), _stored(got)
        assert np.array_equal(g_arr, w_arr), opts
        assert g_arr.tobytes() == w_arr.tobytes(), opts
        if setup.prec.needs_norm:
            assert np.array_equal(g_norms, w_norms), opts
            assert g_norms.tobytes() == w_norms.tobytes(), opts


def test_partitioned_sweep_exercises_ghost_rows():
    """The sweep is only meaningful if ghosts feed the result: zeroing a
    face must change the boundary region's output."""
    setup = _Setup(0, Precision.DOUBLE, (2, 3), BASES[0], True, EVEN)
    opts = dict(region="boundary", partitioned=(2, 3), dagger=False, clover_target=None)
    before = setup.run(dslash_kernel, **opts).get()
    setup.src.set_ghost(FORWARD, np.zeros((setup.src.faces[2], 2, 3)), mu=2)
    after = setup.run(dslash_kernel, **opts).get()
    assert not np.array_equal(before, after)


def test_multi_rhs_solve_is_bit_identical(monkeypatch):
    """A 4-RHS, 2-rank mixed-precision solve through the reference kernel
    and through the stencil plans: the same solution bytes and the same
    statistics, model time included."""
    rng = np.random.default_rng(2010)
    geo = LatticeGeometry((4, 4, 4, 8))
    gauge = weak_field_gauge(geo, rng, noise=0.15)
    sources = [random_spinor(geo, rng) for _ in range(4)]
    inv = QudaInvertParam(
        mass=0.2,
        precision=Precision.SINGLE,
        precision_sloppy=Precision.HALF,
    )

    def solve():
        return invert_multi(gauge, sources, inv, n_gpus=2, verify=False)

    new = solve()
    monkeypatch.setattr(parallel_dslash, "dslash_kernel", reference_dslash_kernel)
    old = solve()
    for a, b in zip(new, old):
        assert a.solution.data.tobytes() == b.solution.data.tobytes()
        assert a.stats.iterations == b.stats.iterations
        assert a.stats.residual_norm == b.stats.residual_norm
        assert a.stats.history == b.stats.history
        assert a.stats.model_time == b.stats.model_time
        assert a.stats.total_flops == b.stats.total_flops
