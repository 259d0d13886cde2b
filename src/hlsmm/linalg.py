"""Dense linear-algebra core: thin SVD and rank-r projection.

Everything downstream (solver, KKT diagnostics) is built on these two
operations.  Computations are delegated to LAPACK through numpy; this module
owns the conventions: singular values sorted non-increasing, thin orthonormal
factors, and a relative zero tolerance for rank decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import _rank_for_shape

# Relative tolerance below which a singular value counts as zero.
ZERO_TOL_REL = 1e-12


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
    """Thin SVD of a p-by-q matrix: ``(u * sigma) @ v.T``, with k = min(p, q).

    Attributes
    ----------
    u : (p, k) matrix of orthonormal left singular vectors.
    sigma : (k,) singular values, non-increasing, >= 0.
    v : (q, k) matrix of orthonormal right singular vectors.
    rank : count of singular values strictly above ``ZERO_TOL_REL * sigma[0]``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int


def svd(w) -> SvdFactors:
    """Thin singular value decomposition with rank bookkeeping.

    Raises
    ------
    InvalidArgumentError
        If ``w`` is not a finite 2-D matrix.
    """
    w = _as_matrix(w)
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s > ZERO_TOL_REL * s[0])) if s.size else 0
    return SvdFactors(u=u, sigma=s, v=vh.T, rank=rank)


def project_rank(w, r: int) -> np.ndarray:
    """Nearest matrix of rank at most ``r`` in Frobenius distance.

    Keeps the ``r`` largest singular values and zeroes the rest
    (Eckart-Young).  When ``sigma_r == sigma_{r+1}`` the projection is
    set-valued; this routine returns the member selected by the LAPACK
    ordering of the factors.

    A (K, p, q) stack is projected matrix by matrix with one batched SVD;
    each result equals the projection of that matrix alone bit for bit.
    """
    w = _as_matrix(w, stack=True)
    r = _rank_for_shape(r, *w.shape[-2:])
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    return (u[..., :r] * s[..., None, :r]) @ vh[..., :r, :]

