"""Reference dslash: the per-direction einsum formulation of the kernel.

:func:`repro.gpu.kernels.dslash_kernel` computes the hopping term from a
per-operator stencil plan with one gather and two batched matmuls.  This
module keeps the original direction-by-direction formulation — one
``np.einsum`` per direction, gather and ghost face — with the same call
signature, traffic/flop accounting and epilogue, so tests can demand
that the two agree bit for bit, kernel by kernel and solve by solve.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.fields import BACKWARD, FORWARD
from repro.gpu.kernels import _dslash_flops, dslash_site_bytes, normalize_partitioned
from repro.lattice import gamma as _gamma
from repro.lattice import su3
from repro.lattice.geometry import NDIM


def reference_dslash_kernel(
    gpu,
    tables,
    gauge,
    src,
    dst,
    *,
    region="full",
    partitioned=False,
    dagger=False,
    clover=None,
    clover_target="result",
    xpay=None,
    stream=0,
    occupancy=1.0,
    camping=False,
):
    """Drop-in for :func:`repro.gpu.kernels.dslash_kernel`."""
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

    basis = src.basis
    sgn = -1 if dagger else +1
    body = src.working()
    cdtype = src.precision.complex_compute_dtype
    out = np.zeros((rows.size, 4, 3), dtype=cdtype)

    for mu in range(NDIM):
        p_minus = _gamma.projector(mu, -sgn, basis)
        p_plus = _gamma.projector(mu, +sgn, basis)
        ph_f = tables.ph_fwd[mu][rows]
        ph_b = tables.ph_bwd[mu][rows]
        u_mu = gauge.links(mu)

        if mu not in dirs:
            u_here = u_mu[tables.tgt_sites[rows]]
            psi_f = body[tables.nbr_fwd[mu][rows]] * ph_f[:, None, None]
            out += np.einsum("st,xab,xtb->xsa", p_minus, u_here, psi_f, optimize=True)
            u_back = su3.adjoint(u_mu[tables.bwd_sites[mu][rows]])
            psi_b = body[tables.nbr_bwd[mu][rows]] * ph_b[:, None, None]
            out += np.einsum("st,xab,xtb->xsa", p_plus, u_back, psi_b, optimize=True)
            continue

        f = tables.face(mu)
        on_low = f.on_low[rows]
        on_high = f.on_high[rows]
        loc = ~on_high
        u_here = u_mu[tables.tgt_sites[rows[loc]]]
        psi_f = body[tables.nbr_fwd[mu][rows[loc]]] * ph_f[loc][:, None, None]
        out[loc] += np.einsum("st,xab,xtb->xsa", p_minus, u_here, psi_f, optimize=True)
        if np.any(on_high):
            _, r_minus = _gamma.projector_decomposition(mu, -sgn, basis)
            pos = _ordinal(f.on_high)[rows[on_high]]
            halves = src.get_ghost(FORWARD, mu=mu)[pos].astype(cdtype)
            u_here = u_mu[tables.tgt_sites[rows[on_high]]]
            u_h = np.einsum("xab,xhb->xha", u_here, halves, optimize=True)
            out[on_high] += ph_f[on_high][:, None, None] * np.einsum(
                "sh,xha->xsa", r_minus, u_h, optimize=True
            )
        loc = ~on_low
        u_back = su3.adjoint(u_mu[tables.bwd_sites[mu][rows[loc]]])
        psi_b = body[tables.nbr_bwd[mu][rows[loc]]] * ph_b[loc][:, None, None]
        out[loc] += np.einsum("st,xab,xtb->xsa", p_plus, u_back, psi_b, optimize=True)
        if np.any(on_low):
            _, r_plus = _gamma.projector_decomposition(mu, +sgn, basis)
            pos = _ordinal(f.on_low)[rows[on_low]]
            halves = src.get_ghost(BACKWARD, mu=mu)[pos].astype(cdtype)
            gpos = f.gauge_pos_low[pos]
            u_back = su3.adjoint(gauge.ghost_links(mu)[gpos])
            u_h = np.einsum("xab,xhb->xha", u_back, halves, optimize=True)
            out[on_low] += ph_b[on_low][:, None, None] * np.einsum(
                "sh,xha->xsa", r_plus, u_h, optimize=True
            )

    if clover is not None and clover_target == "result":
        out = clover.apply_rows(out, rows)
    if xpay is not None:
        coeff, x_field = xpay
        x_rows = x_field.working()[rows]
        if clover is not None and clover_target == "xpay":
            x_rows = clover.apply_rows(x_rows, rows)
        out = x_rows + np.asarray(coeff, dtype=cdtype) * out

    if region == "full":
        full = np.zeros((tables.n_sites, 4, 3), dtype=cdtype)
        full[rows] = out
        dst.set_working(full)
    else:
        merged = np.array(dst.working(), dtype=cdtype, copy=True)
        merged[rows] = out
        dst.set_working(merged)


def _ordinal(face_mask: np.ndarray) -> np.ndarray:
    """Per target row: its rank among the rows on the face."""
    return np.cumsum(face_mask) - 1
