"""Dense complex-matrix primitives for few-qubit states (dimension <= 16).

Everything operates on plain square ``numpy`` arrays of ``complex128`` in
row-major order; the batch kernels take stacks ``(N, d, d)`` whose leading
axis runs over points. All functions are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, DimensionError

HERMITICITY_TOL = 1e-10

#: single-qubit operator basis
I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (I2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False


def as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_residual(m: np.ndarray) -> np.ndarray:
    """max |m[i,j] - conj(m[j,i])| of every matrix in a stack (NaN if any
    entry is not finite)."""
    return np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def is_hermitian(m) -> bool:
    """max |m[i,j] - conj(m[j,i])| <= HERMITICITY_TOL."""
    return bool(hermitian_residual(as_square(m)) <= HERMITICITY_TOL)


class Checks:
    """Failure flags over a batch of points, one per point, with the error
    of each point's first failed check.

    A failed point is flagged and the batch carries on, so an edge point
    fails alone; the batch of one behind every single-state function ends
    with ``raise_first``, so it raises the error of the first check its
    point failed. A comparison with NaN is false, so a NaN value fails its
    check.
    """

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)
        self.errors = {}

    def require(self, ok, error) -> None:
        """Flags every point where ``ok`` is false; ``error(i)`` builds the
        exception of point ``i``, kept unless that point failed before."""
        if ok.all():
            return
        for i in np.flatnonzero(~(ok | self.failed)).tolist():
            self.errors[i] = error(i)
        self.failed |= ~ok

    def raise_first(self) -> None:
        """Raises the error of the lowest-index failed point, if any."""
        if self.errors:
            raise self.errors[min(self.errors)]

    def clean(self, stack: np.ndarray, fill) -> np.ndarray:
        """The stack with every failed point replaced by ``fill``, so that a
        non-finite entry of a failed point cannot break a LAPACK call that
        covers the whole batch."""
        # a point is in ``errors`` exactly when it failed
        if not self.errors:
            return stack
        return np.where(self.failed.reshape((-1,) + (1,) * (stack.ndim - 1)), fill, stack)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one Hermitian matrix, eigenvalues ascending;
    the caller checks Hermiticity. A matrix the solver rejects raises
    ConvergenceError."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of every matrix in a
    stack; the caller checks Hermiticity. A matrix the solver rejects
    raises ConvergenceError."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def _centre_2x2(m: np.ndarray):
    """Mean (m00 + m11)/2, half gap (m00 - m11)/2 and radius
    hypot(half gap, |m01|) of a stack (..., 2, 2) of Hermitian matrices."""
    a, b = m[..., 0, 0].real, m[..., 1, 1].real
    half_gap = 0.5 * (a - b)
    return 0.5 * (a + b), half_gap, np.hypot(half_gap, np.abs(m[..., 0, 1]))


def eigvalsh_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 2) of a stack (..., 2, 2) of Hermitian
    matrices, in closed form: mean -/+ hypot(half the diagonal gap, |m01|).
    Reads the diagonal and the upper off-diagonal entry only."""
    mean, _, radius = _centre_2x2(m)
    w = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=w[..., 0])
    np.add(mean, radius, out=w[..., 1])
    return w


#: the projector pair 1/2 I -/+ N/2 of ``spectral_2x2``, as the real and
#: imaginary parts of its 8 entries: the constant 1/2 I, and the parts
#: linear in x, Re(w) and Im(w) of N/2 = x sz + Re(w) sx - Im(w) sy
_HALF_I = (0.5 * np.array([I2, I2])).view(float).reshape(16)
_PROJECTOR_PARTS = np.array([[-SIGMA_Z, SIGMA_Z], [-SIGMA_X, SIGMA_X],
                             [SIGMA_Y, -SIGMA_Y]]).view(float).reshape(3, 16)
_TINY = np.finfo(float).tiny


def spectral_2x2(m: np.ndarray):
    """Spectral decomposition of a stack (..., 2, 2) of Hermitian matrices
    h in closed form, with no solver call: the eigenvalues are
    mean -/+ radius, as ``eigvalsh_2x2`` gives them, and their rank-one
    projectors (..., 2, 2, 2), in that order, are 1/2 (I -/+ N) with
    N = (h - mean I) / radius. Returns (mean, radius, projectors).

    Like ``eigvalsh_2x2`` it reads the diagonal and the upper off-diagonal
    entry only: N's diagonal is +/- the half gap over the radius and its
    lower entry is the conjugate of its upper one, so every projector is
    exactly Hermitian. Where the radius is 0 both projectors read I/2;
    the caller merges such a spectrum into one outcome.
    """
    mean, half_gap, radius = _centre_2x2(m)
    # N/2 = x sz + Re(w) sx - Im(w) sy with x = half gap / 2r, w = m01 / 2r;
    # a radius of 0 (x = w = 0) is scaled by a finite factor
    parts = np.empty(mean.shape + (3,))
    parts[..., 0] = half_gap
    parts[..., 1] = m[..., 0, 1].real
    parts[..., 2] = m[..., 0, 1].imag
    parts *= (0.5 / np.maximum(radius, _TINY))[..., None]
    # each off-diagonal part comes from one term, so conjugates stay exact
    projectors = (parts @ _PROJECTOR_PARTS + _HALF_I).view(complex)
    return mean, radius, projectors.reshape(mean.shape + (2, 2, 2))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix dimension; ``keep`` is a nonempty collection of subsystem
    indices. Kept subsystems stay in their original relative order and
    the total trace is preserved. The matrix, or every matrix of a stack
    ``(N, d, d)``, is reduced in one ``einsum`` over its ``(dims, dims)``
    tensor, in which each traced subsystem's row and column share a label.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if math.prod(dims) != m.shape[-1]:
        raise DimensionError(
            f"subsystem dims {dims} do not multiply to matrix dim {m.shape[-1]}")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")

    lead = m.shape[:-2]
    subscripts, d_kept = _trace_subscripts(dims, tuple(keep))
    return np.einsum(subscripts, m.reshape(lead + dims + dims)).reshape(lead + (d_kept, d_kept))


@functools.lru_cache(maxsize=64)
def _trace_subscripts(dims: tuple, keep: tuple) -> tuple[str, int]:
    """``partial_trace``'s einsum subscripts for checked ``dims`` and
    sorted ``keep``, and the kept dimension. Letter s labels subsystem s's
    row, letter n + s a kept subsystem's column; a traced subsystem's
    column repeats its row's letter."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rows = letters[:n]
    columns = "".join(letters[n + s] if s in keep else letters[s] for s in range(n))
    kept = "".join(letters[s] for s in keep) + "".join(letters[n + s] for s in keep)
    return f"...{rows}{columns}->...{kept}", math.prod(dims[s] for s in keep)


def trace_product(a, b) -> complex:
    """Tr(a @ b) without forming the product matrix."""
    return complex(np.sum(a * b.T))


def trace_products(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Tr(rho[n] @ ops[k]) for a stack of states (N, d, d) against a stack
    of operators (K, d, d), as an (N, K) table. Summed over flattened
    entries, a state's row does not depend on the rest of the stack; an
    unflattened einsum orders a batch of one's sum differently."""
    return np.einsum("nx,kx->nk", rho.swapaxes(-1, -2).reshape((len(rho), -1)),
                     ops.reshape((len(ops), -1)))
