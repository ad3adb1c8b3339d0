"""Device kernels: the Wilson-clover dslash with ghost-zone support.

These are the virtual-GPU analogues of QUDA's CUDA kernels.  Each kernel

1. performs the real arithmetic on the device fields' working arrays
   (skipped in timing-only mode), and
2. reports its exact memory traffic and flop count to the GPU timeline,
   which converts them to model time via the bandwidth roofline.

Traffic/flop accounting is derived from first principles and reproduces
the paper's quoted arithmetic intensity exactly: with 2-row gauge
compression (12 reals/link), full spinor loads for the six spatial
neighbors (24 reals), half-spinor loads for the two temporal neighbors
(12 reals — the non-relativistic basis trick of Section V-C2), a fused
clover multiply (72 reals) and a fused accumulate, the two kernels of one
even-odd preconditioned matrix application move 744 reals (= 2976 bytes
single precision) and execute 3696 flops per site — the numbers of
Section V-A.

The dslash numerics run from a :class:`StencilPlan` per operator and
configuration: the neighbor indices, phases, links (backward ones already
adjointed), projectors and ghost-row bookkeeping are constant for a
solve — "the link matrices are constant throughout the execution of the
linear solver" (Section VI-B) — so they are gathered once, and a call is
one source gather plus two batched matmuls per pass of at most
``ROWS_PER_PASS`` rows.

Kernel regions implement the overlap strategy of Section VI-D: the
*interior* region touches no ghost data and can run while faces are in
flight; the *boundary* region (the local boundary slices of every
partitioned direction) reads the spinor end zone and the gauge ghosts.

**Multi-dimensional decomposition** (Section VI-A future work): the
kernel accepts any subset of the partitionable directions {Z, T} via the
``partitioned`` argument — ``True`` keeps the paper's temporal-only
meaning.  Each partitioned direction contributes its own pair of ghost
faces; the Wilson stencil is strictly nearest-neighbor per direction, so
no corner exchanges are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..lattice import gamma as _gamma
from ..lattice import su3
from ..lattice.geometry import LatticeGeometry, NDIM, T_DIR
from .device import VirtualGPU
from .fields import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    HALF_SPINOR_REALS,
)
from .precision import Precision

__all__ = [
    "DslashTables",
    "DslashTableCounts",
    "FaceTables",
    "dslash_tables",
    "dslash_table_counts",
    "StencilPlan",
    "stencil_plan",
    "dslash_kernel",
    "clover_kernel",
    "gather_face_kernel",
    "project_face",
    "normalize_partitioned",
    "DSLASH_FLOPS_PER_SITE",
    "CLOVER_FLOPS_PER_SITE",
    "XPAY_FLOPS_PER_SITE",
    "dslash_site_bytes",
]

#: Standard LQCD operation counts per processed site (QUDA conventions;
#: these are the counts behind the paper's "effective Gflops").
DSLASH_FLOPS_PER_SITE = 1320
CLOVER_FLOPS_PER_SITE = 504
XPAY_FLOPS_PER_SITE = 48

REGIONS = ("full", "interior", "boundary")

#: Directions this implementation can partition (Z and T; the paper's
#: asymmetric production lattices make X/Y splits pointless).
PARTITIONABLE = (2, 3)


def normalize_partitioned(partitioned) -> tuple[int, ...]:
    """``False`` -> (), ``True`` -> (T,), or an explicit direction tuple."""
    if partitioned is True:
        return (T_DIR,)
    if partitioned is False or partitioned is None:
        return ()
    dirs = tuple(sorted(set(int(m) for m in partitioned)))
    for mu in dirs:
        if mu not in PARTITIONABLE:
            raise ValueError(
                f"direction {mu} cannot be partitioned (supported: "
                f"{PARTITIONABLE})"
            )
    return dirs


@dataclass(frozen=True)
class FaceTables:
    """Boundary bookkeeping for one partitioned direction."""

    mu: int
    #: Masks over the target checkerboard rows: on the low (coord == 0)
    #: or high (coord == dims[mu]-1) boundary slice.
    on_low: np.ndarray
    on_high: np.ndarray
    #: Source-parity cb indices of the low/high face slices, lex order —
    #: what the sender packs for its -mu / +mu neighbor.
    gather_low: np.ndarray
    gather_high: np.ndarray
    #: For each low/high boundary *target*, the position of its site
    #: within the full boundary slice's lex enumeration — the index into
    #: the gauge ghost slice (which carries both parities).
    gauge_pos_low: np.ndarray
    gauge_pos_high: np.ndarray


@dataclass(frozen=True)
class DslashTables:
    """Precomputed index tables for one (geometry, target parity) pair.

    The CUDA kernels derive all of this from the thread index with integer
    arithmetic against constants in the constant cache (Section V-A); we
    precompute it once per geometry, which is the same cost amortization.
    """

    geometry: LatticeGeometry
    target_parity: int
    # Full-lattice indices of the target-parity sites, cb order.
    tgt_sites: np.ndarray
    # (4, Vh) neighbor cb indices into the source parity.
    nbr_fwd: np.ndarray
    nbr_bwd: np.ndarray
    # (4, Vh) boundary phases at the target sites.
    ph_fwd: np.ndarray
    ph_bwd: np.ndarray
    # (4, Vh) full-lattice indices of x - mu_hat (for the backward links).
    bwd_sites: np.ndarray
    # Per-direction face tables for the partitionable directions.
    faces: dict[int, FaceTables] = field(repr=False)
    _rows_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_sites(self) -> int:
        return self.tgt_sites.size

    def face(self, mu: int) -> FaceTables:
        try:
            return self.faces[mu]
        except KeyError:
            raise ValueError(
                f"direction {mu} cannot be partitioned (supported: "
                f"{PARTITIONABLE})"
            ) from None

    # -- region row sets --------------------------------------------------- #

    def rows_for(self, region: str, dirs: tuple[int, ...]) -> np.ndarray:
        """Target rows of a kernel region given the partitioned dirs."""
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
        key = (region, dirs)
        if key not in self._rows_cache:
            if region == "full" or not dirs:
                rows = np.arange(self.n_sites)
                if region == "interior" and dirs == ():
                    rows = np.arange(self.n_sites)
                if region == "boundary" and not dirs:
                    rows = np.arange(0)
            else:
                on_boundary = np.zeros(self.n_sites, dtype=bool)
                for mu in dirs:
                    f = self.face(mu)
                    on_boundary |= f.on_low | f.on_high
                rows = (
                    np.nonzero(~on_boundary)[0]
                    if region == "interior"
                    else np.nonzero(on_boundary)[0]
                )
            self._rows_cache[key] = rows
        return self._rows_cache[key]


@dataclass(frozen=True)
class _SizedRows:
    """Row-count stand-in: timing-only kernels need only ``.size``."""

    size: int


@dataclass(frozen=True)
class DslashTableCounts:
    """Counts-only drop-in for :class:`DslashTables` (timing-only mode).

    Paper-scale lattices (32^3 x 256 over 32 ranks) would need gigabytes
    of int64 index tables; the timing model only ever consumes row
    *counts*, which are pure arithmetic on the geometry.
    """

    geometry: LatticeGeometry
    target_parity: int
    n_sites: int

    def face_half_sites(self, mu: int) -> int:
        return self.geometry.face_half_sites(mu)

    def rows_for(self, region: str, dirs: tuple[int, ...]) -> _SizedRows:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
        if region == "full" or not dirs:
            n = self.n_sites if region != "boundary" else 0
            return _SizedRows(n)
        # Interior = sites off-boundary in every partitioned direction;
        # each even-extent sub-box splits its parity exactly in half.
        frac_num, frac_den = 1, 1
        for mu in dirs:
            d = self.geometry.dims[mu]
            frac_num *= d - 2
            frac_den *= d
        interior = self.geometry.volume * frac_num // frac_den // 2
        if region == "interior":
            return _SizedRows(interior)
        return _SizedRows(self.n_sites - interior)


@lru_cache(maxsize=64)
def dslash_table_counts(
    geometry: LatticeGeometry, target_parity: int
) -> DslashTableCounts:
    """Counts-only tables (see :class:`DslashTableCounts`)."""
    return DslashTableCounts(
        geometry=geometry,
        target_parity=target_parity,
        n_sites=geometry.half_volume,
    )


def _face_tables(geometry: LatticeGeometry, target_parity: int, mu: int) -> FaceTables:
    tgt_sites = geometry.sites_of_parity[target_parity]
    coord = geometry.coords[tgt_sites, mu]
    high = geometry.dims[mu] - 1
    on_low = coord == 0
    on_high = coord == high
    source_parity = 1 - target_parity
    # Position within the full boundary slice (both parities), lex order:
    # rank of the site among all slice sites, computable by dropping the
    # mu coordinate from the lex index.
    def slice_pos(mask, which_coord):
        sites = tgt_sites[mask]
        c = geometry.coords[sites]
        dims = geometry.dims
        pos = np.zeros(sites.size, dtype=np.int64)
        stride = 1
        for nu in range(NDIM):
            if nu == mu:
                continue
            pos += c[:, nu] * stride
            stride *= dims[nu]
        return pos

    return FaceTables(
        mu=mu,
        on_low=on_low,
        on_high=on_high,
        gather_low=geometry.boundary_sites_of_parity(mu, -1, source_parity),
        gather_high=geometry.boundary_sites_of_parity(mu, +1, source_parity),
        gauge_pos_low=slice_pos(on_low, 0),
        gauge_pos_high=slice_pos(on_high, high),
    )


@lru_cache(maxsize=64)
def dslash_tables(geometry: LatticeGeometry, target_parity: int) -> DslashTables:
    """Build (and cache) the index tables for one kernel configuration."""
    if target_parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    tgt_sites = geometry.sites_of_parity[target_parity]
    return DslashTables(
        geometry=geometry,
        target_parity=target_parity,
        tgt_sites=tgt_sites,
        nbr_fwd=geometry.eo_neighbor_fwd[target_parity],
        nbr_bwd=geometry.eo_neighbor_bwd[target_parity],
        ph_fwd=geometry.boundary_phase_fwd[:, tgt_sites],
        ph_bwd=geometry.boundary_phase_bwd[:, tgt_sites],
        bwd_sites=geometry.neighbor_bwd[:, tgt_sites],
        faces={
            mu: _face_tables(geometry, target_parity, mu) for mu in PARTITIONABLE
        },
    )


# ---------------------------------------------------------------------- #
# Traffic accounting
# ---------------------------------------------------------------------- #


def dslash_site_bytes(
    spinor_precision: Precision,
    gauge: DeviceGaugeField,
    *,
    fused_clover: bool,
    fused_xpay: bool,
) -> int:
    """Device-memory bytes per processed site for the fused dslash kernel.

    Derivation (single precision, compressed gauge, clover + xpay fused):
    8x12 (links) + 6x24 + 2x12 (spinors; temporal reads are half spinors
    in the non-relativistic basis) + 72 (clover) + 24 (accumulate read)
    + 24 (write) = 384 reals = 1536 bytes; together with the companion
    clover-inverse dslash kernel (360 reals) an even-odd matrix
    application moves the paper's 744 reals = 2976 bytes per site.
    """
    rb = spinor_precision.real_bytes
    reals = 6 * 24 + 2 * HALF_SPINOR_REALS + 24  # neighbor loads + write
    if fused_clover:
        reals += 72
    if fused_xpay:
        reals += 24
    nbytes = reals * rb + 8 * gauge.matvec_link_bytes()
    if spinor_precision.needs_norm:
        # float32 norms: 8 neighbor reads + write (+ clover / xpay reads).
        norm_reads = 8 + 1 + (1 if fused_clover else 0) + (1 if fused_xpay else 0)
        nbytes += 4 * norm_reads
    return nbytes


def _dslash_flops(*, fused_clover: bool, fused_xpay: bool) -> int:
    flops = DSLASH_FLOPS_PER_SITE
    if fused_clover:
        flops += CLOVER_FLOPS_PER_SITE
    if fused_xpay:
        flops += XPAY_FLOPS_PER_SITE
    return flops


# ---------------------------------------------------------------------- #
# Face gather (sender side)
# ---------------------------------------------------------------------- #


def project_face(
    tables: DslashTables,
    src: DeviceSpinorField,
    direction: str,
    *,
    mu: int = T_DIR,
    dagger: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Pure numerics of the face projection (no timeline charge).

    In the non-relativistic basis the *temporal* projection is a component
    selection (the face blocks are contiguous within each layout block,
    Fig. 2/3), so the paper's code extracts temporal faces with plain
    cudaMemcpy calls and no gather kernel; non-temporal faces of the
    multi-dimensional extension are strided and need a pack kernel, which
    the exchange code charges separately.  Returns ``(None, None)`` in
    timing-only mode.
    """
    f = tables.face(mu) if src.gpu.execute else None
    if direction == BACKWARD:
        sign = -1
        rows = f.gather_low if f is not None else None
    elif direction == FORWARD:
        sign = +1
        rows = f.gather_high if f is not None else None
    else:
        raise ValueError(f"unknown face direction {direction!r}")
    if dagger:
        sign = -sign
    if not src.gpu.execute:
        return None, None
    q, _ = _gamma.projector_decomposition(mu, sign, src.basis)
    cdtype = src.precision.complex_compute_dtype
    halves = np.einsum("ht,xta->xha", q.astype(cdtype), src.working()[rows])
    norms = None
    if src.precision.needs_norm:
        flat_abs = np.maximum(np.abs(halves.real), np.abs(halves.imag))
        norms = flat_abs.reshape(rows.size, -1).max(axis=1).astype(np.float32)
    return halves, norms


def gather_face_kernel(
    gpu: VirtualGPU,
    tables: DslashTables,
    src: DeviceSpinorField,
    direction: str,
    *,
    mu: int = T_DIR,
    dagger: bool = False,
    stream: int = 0,
    occupancy: float = 1.0,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Project and pack one face of ``src`` for transfer (Section VI-C).

    ``direction=BACKWARD`` packs the local low slice, projected with
    ``Q(-mu)`` — destined for the -mu neighbor, which will use it in its
    *forward* gather ``P(-mu) U psi``.  ``direction=FORWARD`` packs the
    high slice with ``Q(+mu)``.  A dagger dslash swaps the signs.

    Returns ``(halves, norms)``: complex half-spinors ``(faces, 2, 3)``
    and, for half-precision fields, their per-site norms (``None``
    otherwise; both ``None`` in timing-only mode).
    """
    if direction not in (BACKWARD, FORWARD):
        raise ValueError(f"unknown face direction {direction!r}")
    n_face = src.faces.get(mu, 0)
    # Traffic: read full spinors of the face, write projected halves.
    rb = src.precision.real_bytes
    nbytes = n_face * ((24 + HALF_SPINOR_REALS) * rb)
    if src.precision.needs_norm:
        nbytes += n_face * 8  # read + write norms
    # Spin projection arithmetic is ~free in the NR basis; count the
    # general 12-real projection (2 flops per output real).
    flops = n_face * 2 * HALF_SPINOR_REALS
    gpu.launch(
        f"gather_face[{mu}][{direction}]",
        src.precision,
        bytes_moved=nbytes,
        flops=flops,
        stream=stream,
        occupancy=occupancy,
    )
    return project_face(tables, src, direction, mu=mu, dagger=dagger)


# ---------------------------------------------------------------------- #
# Stencil plans
# ---------------------------------------------------------------------- #

#: The eight stencil slots in accumulation order: for mu = 0..3 the
#: forward neighbor, then the backward one.  Every slot's ``+=`` rounds to
#: the compute dtype, so this order is part of the kernel's result.
SLOTS = tuple((mu, d) for mu in range(NDIM) for d in (FORWARD, BACKWARD))

#: Target rows per pass of the kernel.  Each pass's temporaries stay near
#: 400 KB, a size the allocator keeps reusing; one pass over 2048 rows
#: (3 MB temporaries) page-faults fresh memory in on every call instead.
#: Every product is row-local, so the pass size never changes a result.
ROWS_PER_PASS = 256


@dataclass(frozen=True)
class GhostSlot:
    """The rows of one stencil slot whose neighbor is on another rank."""

    slot: int
    mu: int
    #: End-zone face feeding the slot (FORWARD: the +mu neighbor's face).
    direction: str
    #: Positions (ascending) within the plan's rows, and within the face.
    sel: np.ndarray
    pos: np.ndarray
    #: Transposed ``U_mu(x)`` (forward) or adjoint ghost link (backward).
    links_t: np.ndarray
    #: Transposed half-spinor reconstruction ``R`` of the slot's projector.
    recon_t: np.ndarray
    #: Boundary phases of the rows, shaped to broadcast over (4, 3).
    phase: np.ndarray


@dataclass(frozen=True)
class StencilPlan:
    """Everything about one dslash configuration that no call changes.

    The CUDA kernel derives its indexing from constants (Section V-A) and
    treats the links as fixed for the solver's life (Section VI-B); this
    is the same constancy, taken once per operator instead of per call.
    Arrays run over the region's target rows (``tables.rows_for``).
    """

    #: (rows, 8) source-parity cb index of each slot's neighbor.
    nbr: np.ndarray
    #: (rows, 8, 1, 1) float64 boundary phases.
    phase: np.ndarray
    #: (rows, 8, 3, 3) complex128 transposed links, backward ones adjointed.
    links_t: np.ndarray
    #: (8, 4, 4) complex128 transposed spin projectors.
    proj_t: np.ndarray
    ghosts: tuple[GhostSlot, ...]


def stencil_plan(
    tables: DslashTables,
    gauge: DeviceGaugeField,
    *,
    region: str,
    dirs: tuple[int, ...],
    sgn: int,
    basis: str,
) -> StencilPlan:
    """The gauge field's plan for one configuration, built on first use.

    Keyed by value — (geometry, target parity, region, partitioned dirs,
    dagger sign, basis) — and dropped whenever the links are rewritten.
    """
    key = (tables.geometry, tables.target_parity, region, dirs, sgn, basis)
    plan = gauge.plans.get(key)
    if plan is None:
        plan = gauge.plans[key] = _build_plan(tables, gauge, region, dirs, sgn, basis)
    return plan


def _build_plan(tables, gauge, region, dirs, sgn, basis) -> StencilPlan:
    rows = tables.rows_for(region, dirs)
    tgt = tables.tgt_sites[rows]
    nbr, phase, links, proj, ghosts = [], [], [], [], []
    for slot, (mu, direction) in enumerate(SLOTS):
        u_mu = gauge.links(mu)
        forward = direction == FORWARD
        p_sign = -sgn if forward else +sgn
        if forward:
            nbr.append(tables.nbr_fwd[mu][rows])
            ph = tables.ph_fwd[mu][rows]
            links.append(u_mu[tgt])
        else:
            nbr.append(tables.nbr_bwd[mu][rows])
            ph = tables.ph_bwd[mu][rows]
            links.append(su3.adjoint(u_mu[tables.bwd_sites[mu][rows]]))
        phase.append(ph)
        proj.append(_gamma.projector(mu, p_sign, basis).T)
        if mu not in dirs:
            continue
        f = tables.face(mu)
        face_mask = f.on_high if forward else f.on_low
        on_face = face_mask[rows]
        if not on_face.any():
            continue
        # The k-th target-parity site on the boundary slice (cb order)
        # pairs with the k-th ghost entry (Fig. 3, per direction).
        pos = (np.cumsum(face_mask) - 1)[rows[on_face]]
        ghost_links = (
            u_mu[tgt[on_face]]
            if forward
            else su3.adjoint(gauge.ghost_links(mu)[f.gauge_pos_low[pos]])
        )
        ghosts.append(
            GhostSlot(
                slot=slot,
                mu=mu,
                direction=direction,
                sel=np.nonzero(on_face)[0],
                pos=pos,
                links_t=np.swapaxes(ghost_links, -1, -2),
                recon_t=_gamma.projector_decomposition(mu, p_sign, basis)[1].T,
                phase=ph[on_face][:, None, None],
            )
        )
    return StencilPlan(
        nbr=np.stack(nbr, axis=1),
        phase=np.stack(phase, axis=1)[:, :, None, None],
        links_t=np.stack(
            [np.swapaxes(u, -1, -2) for u in links], axis=1
        ).astype(np.complex128),
        proj_t=np.stack(proj),
        ghosts=tuple(ghosts),
    )


def _ghost_rows(g: GhostSlot, src: DeviceSpinorField, cdtype) -> np.ndarray:
    """``ph * R (halves U^T)`` for one ghost slot's rows, laid out (a, x, s).

    The half-spinor face finishes the rows whose neighbor is remote, with
    the products einsum issues for "xab,xhb->xha" and "sh,xha->xsa".
    """
    halves = src.get_ghost(g.direction, mu=g.mu)[g.pos].astype(cdtype)
    u_h = halves @ g.links_t  # (x, h, a)
    r_uh = u_h.transpose(0, 2, 1).reshape(-1, 2) @ g.recon_t  # ((x, a), s)
    return (g.phase * r_uh.reshape(-1, 3, 4)).transpose(1, 0, 2)


# ---------------------------------------------------------------------- #
# The dslash kernel
# ---------------------------------------------------------------------- #


def dslash_kernel(
    gpu: VirtualGPU,
    tables: DslashTables,
    gauge: DeviceGaugeField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
    *,
    region: str = "full",
    partitioned=False,
    dagger: bool = False,
    clover: DeviceCloverField | None = None,
    clover_target: str = "result",
    xpay: tuple[complex, DeviceSpinorField] | None = None,
    stream: int = 0,
    occupancy: float = 1.0,
    camping: bool = False,
) -> None:
    """Apply the hopping term to ``src`` and write ``dst`` (one parity).

    The two fusion patterns of QUDA's even-odd operator are supported:

    * ``clover_target="result"`` (inner kernel):
      ``dst = x? + a? * ( A @ (D src) )`` — pass ``A'^{-1}_oo`` to build
      the odd temporary of the preconditioned matrix.
    * ``clover_target="xpay"`` (outer kernel, requires ``xpay=(a, x)``):
      ``dst = A @ x + a * (D src)`` — pass ``A'_ee`` and ``a = -1/4`` to
      finish ``Mhat psi = A'_e psi - (1/4) D_eo A'^{-1}_oo D_oe psi``.

    ``partitioned`` selects the decomposed directions: ``True`` is the
    paper's temporal-only slicing; a tuple like ``(2, 3)`` activates the
    multi-dimensional extension.  Ghost data is read from ``src``'s end
    zone (the transferred field is the dslash *source*) and the gauge
    ghost slices; ``region`` selects full/interior/boundary rows so the
    overlap strategy can split the work (Section VI-D2).
    """
    if clover_target not in ("result", "xpay"):
        raise ValueError(f"bad clover_target {clover_target!r}")
    if clover_target == "xpay" and (clover is None or xpay is None):
        raise ValueError("clover_target='xpay' requires both clover and xpay")
    dirs = normalize_partitioned(partitioned)
    rows = tables.rows_for(region, dirs)
    nbytes = rows.size * dslash_site_bytes(
        src.precision, gauge, fused_clover=clover is not None, fused_xpay=xpay is not None
    )
    flops = rows.size * _dslash_flops(
        fused_clover=clover is not None, fused_xpay=xpay is not None
    )
    gpu.launch(
        f"dslash[{region}]",
        src.precision,
        bytes_moved=nbytes,
        flops=flops,
        stream=stream,
        occupancy=occupancy,
        camping=camping,
    )
    if not gpu.execute or rows.size == 0:
        return

    plan = stencil_plan(
        tables, gauge, region=region, dirs=dirs, sgn=-1 if dagger else +1,
        basis=src.basis,
    )
    cdtype = src.precision.complex_compute_dtype
    n = rows.size
    body = src.working()
    ghost_rows = [_ghost_rows(g, src, cdtype) for g in plan.ghosts]
    out = np.zeros((n, 4, 3), dtype=cdtype)
    for lo in range(0, n, ROWS_PER_PASS):
        hi = min(lo + ROWS_PER_PASS, n)
        m = hi - lo
        # The products below are the ones NumPy's optimized einsum issues
        # for the per-direction contraction "st,xab,xtb->xsa", in the same
        # operand order and layout, so the result is bit-identical to it.
        # U psi runs in complex128: the float64 +-1 phases promote the source.
        psi = body[plan.nbr[lo:hi]] * plan.phase[lo:hi]
        u_psi = psi @ plan.links_t[lo:hi]  # (x, slot, t, a)
        # P (U psi) as one (3m, 4) @ (4, 4) product per slot, rows (a, x).
        lhs = u_psi.transpose(1, 3, 0, 2).reshape(8, 3 * m, 4)
        hop = (lhs @ plan.proj_t).reshape(8, 3, m, 4)  # (slot, a, x, s)
        for g, val in zip(plan.ghosts, ghost_rows):
            i, j = np.searchsorted(g.sel, (lo, hi))
            hop[g.slot][:, g.sel[i:j] - lo] = val[:, i:j]
        # One rounding += per slot into the compute dtype, in slot order.
        for slot in hop:
            out[lo:hi] += slot.transpose(1, 2, 0)

    # ----- fused epilogue: clover multiply and accumulate ---------------- #
    if clover is not None and clover_target == "result":
        out = clover.apply_rows(out, rows)
    if xpay is not None:
        coeff, x_field = xpay
        x_rows = x_field.working()[rows]
        if clover is not None and clover_target == "xpay":
            x_rows = clover.apply_rows(x_rows, rows)
        out = x_rows + np.asarray(coeff, dtype=cdtype) * out

    # Region-partial writes merge into the destination body.
    if region == "full":
        full = np.zeros((tables.n_sites, 4, 3), dtype=cdtype)
        full[rows] = out
        dst.set_working(full)
    else:
        merged = np.array(dst.working(), dtype=cdtype, copy=True)
        merged[rows] = out
        dst.set_working(merged)


def clover_kernel(
    gpu: VirtualGPU,
    clover: DeviceCloverField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
    *,
    stream: int = 0,
    occupancy: float = 1.0,
) -> None:
    """Standalone sitewise clover multiply: ``dst = A src``."""
    rb = src.precision.real_bytes
    nbytes = src.sites * ((24 + 24) * rb) + src.sites * clover.site_bytes()
    if src.precision.needs_norm:
        nbytes += src.sites * 8
    gpu.launch(
        "clover",
        src.precision,
        bytes_moved=nbytes,
        flops=src.sites * CLOVER_FLOPS_PER_SITE,
        stream=stream,
        occupancy=occupancy,
    )
    if gpu.execute:
        dst.set_working(clover.apply(src.working()))
