"""Dense linear-algebra core: full SVD and rank-r projection.

Everything downstream (solver, KKT diagnostics) is built on these two
operations.  Computations are delegated to LAPACK through numpy; this module
owns the conventions: singular values sorted non-increasing, full orthonormal
bases, and a relative zero tolerance for rank decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import _rank_for_shape

# Relative tolerance below which a singular value counts as zero.
ZERO_TOL_REL = 1e-12

# Relative gap below which the rank-r projection is ambiguous (sigma_r ~ sigma_{r+1}).
AMBIGUITY_TOL_REL = 1e-10


def _as_matrix(w, stack: bool = False) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if not (w.ndim == 2 or stack and w.ndim == 3):
        kinds = "a 2-D matrix or a (K, p, q) stack" if stack else "a 2-D matrix"
        raise InvalidArgumentError(f"w must be {kinds}, got ndim={w.ndim}")
    if not np.isfinite(w).all():
        raise InvalidArgumentError("w contains non-finite entries")
    return w


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD of a p-by-q matrix: ``u @ diag_embed(sigma) @ v.T``.

    Attributes
    ----------
    u : (p, p) orthonormal matrix of left singular vectors.
    sigma : (min(p, q),) singular values, non-increasing, >= 0.
    v : (q, q) orthonormal matrix of right singular vectors.
    gamma : indices of singular values strictly above ``zero_tol``.
    zero_tol : absolute zero cutoff, ``ZERO_TOL_REL * sigma[0]``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    zero_tol: float

    @property
    def rank(self) -> int:
        return int(self.gamma.size)

    @property
    def u_gamma_perp(self) -> np.ndarray:
        """Orthonormal basis of the left null space (complement of gamma)."""
        return self.u[:, self.rank :]

    @property
    def v_gamma_perp(self) -> np.ndarray:
        return self.v[:, self.rank :]


def svd(w) -> SvdFactors:
    """Full singular value decomposition with rank bookkeeping.

    Raises
    ------
    InvalidArgumentError
        If ``w`` is not a finite 2-D matrix.
    """
    w = _as_matrix(w)
    u, s, vh = np.linalg.svd(w, full_matrices=True)
    zero_tol = ZERO_TOL_REL * float(s[0]) if s.size and s[0] > 0 else 0.0
    gamma = np.flatnonzero(s > zero_tol)
    return SvdFactors(u=u, sigma=s, v=vh.T, gamma=gamma, zero_tol=zero_tol)


def project_rank(w, r: int) -> np.ndarray:
    """Nearest matrix of rank at most ``r`` in Frobenius distance.

    Keeps the ``r`` largest singular values and zeroes the rest
    (Eckart-Young).  When ``sigma_r == sigma_{r+1}`` the projection is
    set-valued; this routine returns the member selected by the LAPACK
    ordering of the factors (see :func:`projection_ambiguous`).

    A (K, p, q) stack is projected matrix by matrix with one batched SVD;
    each result equals the projection of that matrix alone bit for bit.
    """
    w = _as_matrix(w, stack=True)
    r = _rank_for_shape(r, *w.shape[-2:])
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    return (u[..., :r] * s[..., None, :r]) @ vh[..., :r, :]


def projection_ambiguous(w, r: int) -> bool:
    """True when the rank-r projection of ``w`` is numerically set-valued.

    The projection is unique iff ``sigma_r > sigma_{r+1}``; this flags
    ``sigma_r - sigma_{r+1} <= AMBIGUITY_TOL_REL * sigma_1``.
    """
    w = _as_matrix(w)
    r = _rank_for_shape(r, *w.shape)
    return _ambiguous(np.linalg.svd(w, compute_uv=False), r)


def _ambiguous(s: np.ndarray, r: int) -> bool:
    """The test of :func:`projection_ambiguous` on non-increasing singular values."""
    if s[0] == 0.0:
        return False  # zero matrix projects to itself, uniquely
    return bool(s[r - 1] - s[r] <= AMBIGUITY_TOL_REL * s[0])

