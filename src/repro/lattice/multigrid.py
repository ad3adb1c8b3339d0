"""Adaptive multigrid for the Wilson-clover operator (paper future work).

"We are also interested in porting more modern algorithms to the GPUs
such as the adaptive multigrid solver discussed in [24] to speed up
computations even further" (Section VIII; [24] = Brannick, Brower, Clark,
Osborn, Rebbi, PRL 100, 041601).  This module implements that algorithm's
two-level form on the host reference operator:

* **Adaptive setup** — near-null vectors are *discovered*, not assumed:
  random vectors are relaxed toward the null space of ``M`` (steepest
  descent on ``|M x|^2``), which leaves them rich in the low modes that
  make the system ill-conditioned at light quark mass.
* **Chirality-split block prolongator** — each null vector contributes
  its two chiral halves (``gamma_5`` eigencomponents) separately, and the
  columns are orthonormalized *per spacetime block* (the aggregation),
  giving the sparse, local prolongator ``P`` of [24].  ``gamma_5``-
  compatibility is what lets the coarse operator inherit the fine
  operator's structure.
* **Galerkin coarse operator** — ``A_c = P^dag M P``, assembled
  explicitly and solved directly (dense LU) at the small sizes a 2-level
  method produces here.
* **MR smoother + V-cycle preconditioner**, applied inside an outer
  **FGMRES** (flexible GMRES — the standard outer solver for adaptive MG,
  since the cycle is a mildly nonlinear preconditioner).

The payoff the paper is after — elimination of critical slowing down in
the quark mass — is demonstrated in ``benchmarks/bench_multigrid.py``:
as ``m`` approaches its critical value the BiCGstab iteration count
blows up while the MG-preconditioned iteration count stays nearly flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import WilsonCloverOperator
from .fields import SpinorField
from .gamma import gamma5
from .geometry import LatticeGeometry
from .hostsolve import SolveResult

__all__ = ["BlockGeometry", "AdaptiveMultigrid", "fgmres"]

#: Internal (spin x color x complex) degrees of freedom per site.
_DOF = 12


@dataclass(frozen=True)
class BlockGeometry:
    """Aggregation of the lattice into spacetime blocks."""

    geometry: LatticeGeometry
    block_dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for d, b in zip(self.geometry.dims, self.block_dims):
            if b < 1 or d % b:
                raise ValueError(
                    f"block dims {self.block_dims} do not tile lattice "
                    f"{self.geometry.dims}"
                )

    @property
    def n_blocks(self) -> int:
        n = 1
        for d, b in zip(self.geometry.dims, self.block_dims):
            n *= d // b
        return n

    @property
    def sites_per_block(self) -> int:
        return self.geometry.volume // self.n_blocks

    def block_index(self) -> np.ndarray:
        """Block id of every site, shape ``(V,)``."""
        coords = self.geometry.coords
        dims = self.geometry.dims
        idx = np.zeros(self.geometry.volume, dtype=np.int64)
        stride = 1
        for mu in range(4):
            idx += (coords[:, mu] // self.block_dims[mu]) * stride
            stride *= dims[mu] // self.block_dims[mu]
        return idx

    def block_sites(self) -> list[np.ndarray]:
        """Site lists per block (each of ``sites_per_block`` sites)."""
        idx = self.block_index()
        order = np.argsort(idx, kind="stable")
        return np.split(order, self.n_blocks)


def fgmres(
    apply_a,
    b: np.ndarray,
    *,
    preconditioner=None,
    tol: float = 1e-8,
    restart: int = 20,
    maxiter: int = 400,
) -> SolveResult:
    """Flexible GMRES(restart) — the outer Krylov method of adaptive MG.

    ``preconditioner(v) -> z`` may vary between applications (flexible);
    ``None`` gives plain restarted GMRES.  Counts *preconditioned matrix
    applications* as iterations.
    """
    n = b.size
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    target = tol * bnorm if bnorm > 0 else tol
    history = []
    total_iters = 0
    rnorm = bnorm
    while total_iters < maxiter:
        r = b - apply_a(x)
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= target:
            return SolveResult(x, total_iters, rnorm, True, history)
        m = restart
        V = np.zeros((m + 1, n), dtype=complex)
        Z = np.zeros((m, n), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        V[0] = r / rnorm
        g = np.zeros(m + 1, dtype=complex)
        g[0] = rnorm
        k_used = 0
        for k in range(m):
            if total_iters >= maxiter:
                break
            z = V[k] if preconditioner is None else preconditioner(V[k])
            Z[k] = z
            w = apply_a(z)
            total_iters += 1
            for i in range(k + 1):
                H[i, k] = np.vdot(V[i], w)
                w -= H[i, k] * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            k_used = k + 1
            if abs(H[k + 1, k]) < 1e-30:
                break
            V[k + 1] = w / H[k + 1, k]
            # Residual estimate via least squares on the small system.
            y, res, *_ = np.linalg.lstsq(
                H[: k + 2, : k + 1], g[: k + 2], rcond=None
            )
            est = np.linalg.norm(g[: k + 2] - H[: k + 2, : k + 1] @ y)
            history.append(float(est))
            if est <= target:
                break
        y, *_ = np.linalg.lstsq(H[: k_used + 1, :k_used], g[: k_used + 1], rcond=None)
        x = x + Z[:k_used].T @ y
    r = b - apply_a(x)
    rnorm = float(np.linalg.norm(r))
    history.append(rnorm)
    return SolveResult(x, total_iters, rnorm, rnorm <= target, history)


@dataclass
class AdaptiveMultigrid:
    """A two-level adaptive multigrid preconditioner for ``M``.

    Parameters
    ----------
    op:
        The fine-level Wilson-clover operator.
    block_dims:
        Spacetime aggregate size (must tile the lattice); [24] uses 4^4
        blocks in production, 2^4 here for the small test lattices.
    n_nullvecs:
        Near-null vectors to compute; each contributes 2 chiral columns.
    setup_iters:
        Relaxation steps per null vector during the adaptive setup.
    n_pre, n_post:
        MR smoothing steps before/after the coarse-grid correction.
    """

    op: WilsonCloverOperator
    block_dims: tuple[int, int, int, int] = (2, 2, 2, 2)
    n_nullvecs: int = 4
    setup_iters: int = 50
    n_pre: int = 2
    n_post: int = 2
    seed: int = 7
    blocks: BlockGeometry = field(init=False)
    #: Per-block orthonormal bases, shape (n_blocks, block_dof, n_cols).
    _basis: np.ndarray = field(init=False, repr=False)
    _block_sites: list[np.ndarray] = field(init=False, repr=False)
    _coarse_lu: tuple = field(init=False, repr=False)
    coarse_dim: int = field(init=False)

    def __post_init__(self) -> None:
        self.blocks = BlockGeometry(self.op.geometry, self.block_dims)
        self._block_sites = self.blocks.block_sites()
        null_vecs = self._adaptive_setup()
        self._build_prolongator(null_vecs)
        self._build_coarse_operator()

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _matvec(self, v: np.ndarray, dagger: bool = False) -> np.ndarray:
        psi = SpinorField(self.op.geometry, v.reshape(-1, 4, 3))
        return self.op.apply(psi, dagger=dagger).data.reshape(-1)

    def _adaptive_setup(self) -> np.ndarray:
        """Relax random vectors toward the near-null space of ``M``.

        Steepest descent on ``|M x|^2`` (x <- x - a M^dag M x with the
        optimal line-search a); the high modes of M^dag M die fastest,
        leaving the troublesome low modes — adaptivity in the sense of
        [24]: the method *finds* what smooth error looks like.
        """
        rng = np.random.default_rng(self.seed)
        vecs = []
        for _ in range(self.n_nullvecs):
            x = rng.standard_normal(self.op.geometry.volume * 12) + 1j * (
                rng.standard_normal(self.op.geometry.volume * 12)
            )
            x /= np.linalg.norm(x)
            for _ in range(self.setup_iters):
                mx = self._matvec(x)
                g = self._matvec(mx, dagger=True)  # grad of |Mx|^2 (up to 2)
                mg = self._matvec(g)
                denom = np.vdot(mg, mg).real
                if denom == 0:
                    break
                a = np.vdot(mg, mx) / denom
                x = x - a * g
                x /= np.linalg.norm(x)
            vecs.append(x)
        return np.stack(vecs, axis=1)  # (fine_dof, n_nullvecs)

    def _build_prolongator(self, null_vecs: np.ndarray) -> None:
        """Chirality-split, blockwise-orthonormal prolongator columns."""
        geo = self.op.geometry
        g5 = np.asarray(gamma5("degrand_rossi"))
        p_plus = 0.5 * (np.eye(4) + g5)
        p_minus = 0.5 * (np.eye(4) - g5)
        cols = []
        for k in range(null_vecs.shape[1]):
            v = null_vecs[:, k].reshape(geo.volume, 4, 3)
            cols.append(np.einsum("st,xta->xsa", p_plus, v).reshape(-1))
            cols.append(np.einsum("st,xta->xsa", p_minus, v).reshape(-1))
        cols = np.stack(cols, axis=1)  # (fine_dof, 2*Nv)
        n_cols = cols.shape[1]
        bdof = self.blocks.sites_per_block * _DOF
        basis = np.zeros((self.blocks.n_blocks, bdof, n_cols), dtype=complex)
        full = cols.reshape(geo.volume, _DOF, n_cols)
        for b, sites in enumerate(self._block_sites):
            local = full[sites].reshape(bdof, n_cols)
            # Blockwise QR orthonormalization (rank deficiency guarded by
            # the random setup; Q columns span the local null-vector space).
            q, _ = np.linalg.qr(local)
            basis[b] = q[:, :n_cols]
        self._basis = basis
        self.coarse_dim = self.blocks.n_blocks * n_cols

    def _build_coarse_operator(self) -> None:
        """Galerkin: ``A_c = P^dag M P``, assembled column by column."""
        nc = self.coarse_dim
        a_c = np.zeros((nc, nc), dtype=complex)
        for j in range(nc):
            e = np.zeros(nc, dtype=complex)
            e[j] = 1.0
            a_c[:, j] = self.restrict(self._matvec(self.prolong(e)))
        # Imported here: scipy.linalg adds tens of MB of resident memory to
        # every process that imports the lattice package, and only a
        # multigrid setup needs it.
        import scipy.linalg

        self._coarse_lu = scipy.linalg.lu_factor(a_c)
        self._coarse_matrix = a_c

    # ------------------------------------------------------------------ #
    # Grid-transfer operators
    # ------------------------------------------------------------------ #

    def prolong(self, coarse: np.ndarray) -> np.ndarray:
        """``P coarse``: coarse coefficients -> fine vector."""
        geo = self.op.geometry
        n_cols = self._basis.shape[2]
        c = coarse.reshape(self.blocks.n_blocks, n_cols)
        fine = np.zeros((geo.volume, _DOF), dtype=complex)
        for b, sites in enumerate(self._block_sites):
            local = self._basis[b] @ c[b]
            fine[sites] = local.reshape(sites.size, _DOF)
        return fine.reshape(-1)

    def restrict(self, fine: np.ndarray) -> np.ndarray:
        """``P^dag fine``: fine vector -> coarse coefficients."""
        geo = self.op.geometry
        n_cols = self._basis.shape[2]
        f = fine.reshape(geo.volume, _DOF)
        out = np.zeros((self.blocks.n_blocks, n_cols), dtype=complex)
        for b, sites in enumerate(self._block_sites):
            local = f[sites].reshape(-1)
            out[b] = np.conj(self._basis[b].T) @ local
        return out.reshape(-1)

    # ------------------------------------------------------------------ #
    # The V-cycle preconditioner
    # ------------------------------------------------------------------ #

    def _smooth(self, x: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
        """Minimal-residual relaxation: x += a r with a = <Mr, r>/|Mr|^2."""
        for _ in range(steps):
            r = b - self._matvec(x)
            mr = self._matvec(r)
            denom = np.vdot(mr, mr).real
            if denom == 0:
                break
            x = x + (np.vdot(mr, r) / denom) * r
        return x

    def vcycle(self, r: np.ndarray) -> np.ndarray:
        """Apply the 2-level preconditioner to a residual vector."""
        e = self._smooth(np.zeros_like(r), r, self.n_pre)
        defect = r - self._matvec(e)
        import scipy.linalg

        coarse = scipy.linalg.lu_solve(self._coarse_lu, self.restrict(defect))
        e = e + self.prolong(coarse)
        return self._smooth(e, r, self.n_post)

    # ------------------------------------------------------------------ #
    # Solver front end
    # ------------------------------------------------------------------ #

    def solve(
        self, b: SpinorField, *, tol: float = 1e-8, maxiter: int = 400
    ) -> SolveResult:
        """Solve ``M x = b`` with MG-preconditioned FGMRES."""
        result = fgmres(
            self._matvec,
            b.data.reshape(-1),
            preconditioner=self.vcycle,
            tol=tol,
            maxiter=maxiter,
        )
        return result
