"""Affine-invariant geometry of symmetric positive definite (SPD) matrices.

All matrix functions go through a symmetric eigendecomposition, which is the
stable route for symmetric inputs.  Matrices are plain ``numpy`` arrays;
public entry points symmetrize and validate their arguments, so downstream
code can assume exact symmetry.  Most functions accept stacked inputs with
shape ``(..., n, n)`` and broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .exceptions import InvalidInputError, NearSingularError, NumericRangeError

# Relative eigenvalue floor of the SPD cone: matrices whose smallest
# eigenvalue falls below SPD_EIG_FLOOR times the largest are rejected
# (analysis paths) or clipped (simulation reconstruction paths).
SPD_EIG_FLOOR = 1e-10

_SQRT2 = np.sqrt(2.0)
_EXP_MAX = np.log(np.finfo(np.float64).max)


def symmetrize(m) -> np.ndarray:
    """Return ``(m + m.T) / 2`` to cancel floating-point asymmetry."""
    m = np.asarray(m, dtype=np.float64)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _check_finite(m, what="matrix"):
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} contains non-finite entries")


def _check_square(m, what="matrix"):
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"{what} must be square, got shape {m.shape}")


def validate_spd(m, floor: float = SPD_EIG_FLOOR) -> np.ndarray:
    """Symmetrize ``m`` and verify it lies inside the SPD cone.

    Raises
    ------
    InvalidInputError
        If entries are non-finite or the matrix is not square.
    NearSingularError
        If the smallest eigenvalue is not above ``floor`` times the largest.
    """
    m = np.asarray(m, dtype=np.float64)
    _check_square(m)
    _check_finite(m)
    m = symmetrize(m)
    eigvals = np.linalg.eigvalsh(m)
    lo, hi = eigvals.min(axis=-1), eigvals.max(axis=-1)
    bad = (hi <= 0) | (lo <= floor * hi)
    if np.any(bad):
        k = np.argmax(bad)
        raise NearSingularError(
            f"matrix is not positive definite within the eigenvalue floor "
            f"(min {lo.flat[k]:.3e}, max {hi.flat[k]:.3e}, floor {floor:.1e} * max)"
        )
    return m


def clip_spd(m, floor: float = SPD_EIG_FLOOR) -> tuple[np.ndarray, bool | np.ndarray]:
    """Project ``m`` onto the SPD cone by flooring its eigenvalues.

    Used on simulation reconstruction paths, where a large tangent
    perturbation can leave the cone.  Eigenvalues are raised to twice the
    validation floor so clipped outputs pass :func:`validate_spd` despite
    rounding.  Returns the (possibly) clipped matrix and a flag telling
    whether any eigenvalue was raised; a stack is clipped matrix by matrix
    and gets one flag per matrix.
    """
    m = symmetrize(m)
    _check_finite(m)
    eigvals, eigvecs = np.linalg.eigh(m)
    hi = eigvals.max(axis=-1, keepdims=True)
    if np.any(hi <= 0):
        raise NearSingularError("matrix has no positive eigenvalues; cannot clip")
    lo = 2.0 * floor * hi
    clipped = eigvals.min(axis=-1) <= lo[..., 0]
    if np.any(clipped):
        raised = _rebuild(eigvecs, np.maximum(eigvals, lo))
        m = np.where(clipped[..., None, None], raised, m)
    return m, clipped if clipped.ndim else bool(clipped)


def _rebuild(eigvecs, values) -> np.ndarray:
    return symmetrize(eigvecs @ (values[..., :, None] * np.swapaxes(eigvecs, -1, -2)))


def eig_apply(stack, *fns):
    """Apply functions of the eigenvalues to symmetric matrices.

    One ``eigh`` call serves every function in ``fns``: each yields
    ``v @ diag(fn(e)) @ v.T`` for the eigendecomposition ``(e, v)`` of each
    matrix of ``stack`` ``(..., n, n)``.  Returns one array for one
    function, else a tuple in the order of ``fns``.  A function may raise to
    reject the eigenvalues it is given.  The input is not validated.
    """
    eigvals, eigvecs = np.linalg.eigh(stack)
    out = tuple(_rebuild(eigvecs, fn(eigvals)) for fn in fns)
    return out[0] if len(out) == 1 else out


def whiten(inv_root, stack) -> np.ndarray:
    """``inv_root @ stack @ inv_root``, symmetrized; broadcasts over ``stack``."""
    return symmetrize(inv_root @ stack @ inv_root)


def _exp(eigvals):
    if eigvals.max() > _EXP_MAX:
        raise NumericRangeError(
            f"matrix exponential overflows float64 (max eigenvalue {eigvals.max():.3e})"
        )
    return np.exp(eigvals)


def spd_logm(a) -> np.ndarray:
    """Principal matrix logarithm of an SPD matrix.

    Inverse of :func:`spd_expm` on the SPD cone.
    """
    return eig_apply(validate_spd(a), np.log)


def spd_expm(w) -> np.ndarray:
    """Matrix exponential of a symmetric matrix; the result is SPD.

    Raises ``NumericRangeError`` when an eigenvalue is large enough to
    overflow ``float64``.
    """
    w = np.asarray(w, dtype=np.float64)
    _check_square(w)
    _check_finite(w)
    return eig_apply(symmetrize(w), _exp)


def spd_sqrtm(a) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root of an SPD matrix.

    Returns
    -------
    root, inv_root : ndarray
        SPD matrices with ``root @ root == a`` and
        ``inv_root @ a @ inv_root == identity``.
    """
    return eig_apply(validate_spd(a), np.sqrt, lambda e: 1.0 / np.sqrt(e))


def vec_dim(n: int) -> int:
    """Dimension ``n (n + 1) / 2`` of the orthonormal coordinates."""
    return n * (n + 1) // 2


def pair_count(n: int) -> int:
    """Number ``n (n - 1) / 2`` of off-diagonal pairs (j < i)."""
    return n * (n - 1) // 2


def tril_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major strict lower-triangle indices; fixes the pair ordering.

    Coordinate ``k`` of the first ``pair_count(n)`` entries of
    :func:`vec_embed` belongs to the pair ``(i[k], j[k])`` with ``j < i``.
    """
    return np.tril_indices(n, -1)


def vec_embed(w) -> np.ndarray:
    """Orthonormal coordinates of a symmetric matrix.

    The embedding lists the strict lower triangle in row-major order scaled
    by ``sqrt(2)``, followed by the diagonal.  It is an isometry: the
    Euclidean norm of the coordinates equals the Frobenius norm of the
    matrix.  Accepts stacks ``(..., n, n)`` and returns ``(..., n(n+1)/2)``.
    """
    w = np.asarray(w, dtype=np.float64)
    _check_square(w)
    n = w.shape[-1]
    index, scale = _embedding(n)
    return w.reshape(w.shape[:-2] + (n * n,))[..., index] * scale


@cache
def _embedding(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the :func:`vec_embed` coordinates in a flattened
    ``(n, n)`` matrix, in the pair order of :func:`tril_pairs`, and their
    scale factors.  Calls no public function, so the calls that
    ``perfbench/layertrace.py`` counts do not depend on a warm cache."""
    i, j = np.tril_indices(n, -1)
    index = np.concatenate([i * n + j, np.arange(n) * (n + 1)])
    scale = np.repeat([_SQRT2, 1.0], [len(i), n])
    index.flags.writeable = scale.flags.writeable = False  # shared by every caller
    return index, scale


def vec_unembed(v, n: int) -> np.ndarray:
    """Symmetric matrix with coordinates ``v``; exact inverse of :func:`vec_embed`."""
    v = np.asarray(v, dtype=np.float64)
    d = vec_dim(n)
    if v.shape[-1] != d:
        raise InvalidInputError(
            f"coordinate vector has length {v.shape[-1]}, expected {d} for n={n}"
        )
    i, j = tril_pairs(n)
    k = len(i)
    w = np.zeros(v.shape[:-1] + (n, n), dtype=np.float64)
    off = v[..., :k] / _SQRT2
    w[..., i, j] = off
    w[..., j, i] = off
    diag = np.arange(n)
    w[..., diag, diag] = v[..., k:]
    return w


@dataclass(frozen=True)
class TangentVector:
    """Symmetric matrix in the whitened tangent frame.

    Carries both the matrix view and (lazily) its orthonormal coordinates;
    the coordinate norm equals the Frobenius norm of the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        _check_square(m, "tangent matrix")
        _check_finite(m, "tangent matrix")
        object.__setattr__(self, "matrix", symmetrize(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def vec(self) -> np.ndarray:
        return vec_embed(self.matrix)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def tangent_map(base, target) -> TangentVector:
    """Map ``target`` to the tangent frame of ``base``.

    Computes ``logm(base ** -1/2 @ target @ base ** -1/2)``, i.e. the
    deviation of ``target`` from ``base`` after whitening by the base.
    """
    base = validate_spd(base)
    target = validate_spd(target)
    if base.shape != target.shape:
        raise InvalidInputError(
            f"dimension mismatch: base {base.shape} vs target {target.shape}"
        )
    _, inv_root = spd_sqrtm(base)
    return TangentVector(spd_logm(whiten(inv_root, target)))


def tangent_inverse_map(base, w) -> np.ndarray:
    """Map a tangent vector at ``base`` back to the SPD cone.

    Exact inverse of :func:`tangent_map`:
    ``base ** 1/2 @ expm(w) @ base ** 1/2``.
    """
    base = validate_spd(base)
    wm = w.matrix if isinstance(w, TangentVector) else symmetrize(w)
    if base.shape != wm.shape:
        raise InvalidInputError(
            f"dimension mismatch: base {base.shape} vs tangent {wm.shape}"
        )
    root, _ = spd_sqrtm(base)
    return symmetrize(root @ spd_expm(wm) @ root)


def geodesic_distance(a, b) -> float:
    """Affine-invariant distance between two SPD matrices.

    Frobenius norm of the whitened log deviation; invariant under congruence
    ``m -> g @ m @ g.T`` by any invertible ``g``.
    """
    return float(np.linalg.norm(tangent_map(a, b).matrix))
