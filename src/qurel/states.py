"""Validated density operators and the state functionals built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    Checks,
    as_square,
    eigh,
    hermitian_residual,
    partial_trace,
)

TRACE_TOL = 1e-10
PSD_TOL = 1e-10

#: sy x sy is the anti-diagonal (-1, 1, 1, -1): applied to a matrix, it
#: reverses the rows and negates the first and last of them
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A quantum state over a declared list of subsystem dimensions.

    Construction checks the dims first, then decomposes the matrix once
    (``eigh``) and validates Hermiticity, unit trace and positive
    semidefiniteness eagerly from that decomposition (``check_density``);
    a corrupted state would silently poison every quantity computed
    downstream, and a solver failure raises ConvergenceError. A thermal
    state of the model (``model.thermal_state``) brings its closed-form
    decomposition instead, and the same checks run on that. The ascending
    eigenvalues and the eigenvectors (as columns) are kept, read-only,
    for the functionals that need the spectrum
    (``von_neumann_entropy``, ``concurrence_two_qubit``, ``qm_eur``); they
    take no part in ``repr``. Equality and hashing are by identity, as for
    every class with array fields.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = as_square(self.matrix).copy()
        dims = _subsystem_dims(self.dims, m)
        # a non-finite entry fails the Hermiticity check, so the solver only
        # ever sees finite entries
        self._keep(m, dims, *eigh(np.where(np.isfinite(m), m, 0.0)))

    @classmethod
    def _decomposed(cls, matrix, dims, w: np.ndarray, v: np.ndarray) -> "DensityOperator":
        """A state whose ascending eigenvalues ``w`` and eigenvectors ``v``
        (as columns) are known already, such as a Gibbs state of the model:
        construction's checks run on that decomposition, which is kept,
        with no solver call."""
        rho = object.__new__(cls)
        m = as_square(matrix).copy()
        rho._keep(m, _subsystem_dims(dims, m), w, v)
        return rho

    def _keep(self, m: np.ndarray, dims: tuple, w: np.ndarray, v: np.ndarray) -> None:
        """Checks the square matrix ``m`` against its decomposition
        (``check_density``), raising the first error, then stores the
        arrays read-only."""
        checks = Checks(1)
        check_density(m[None], w[None], checks)
        checks.raise_first()
        for name, value in (("matrix", m), ("eigenvalues", w), ("eigenvectors", v)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dims", dims)

    def reduced(self, keep) -> "DensityOperator":
        """Reduced state over the kept subsystems."""
        if isinstance(keep, (int, np.integer)):
            keep = (int(keep),)
        keep = sorted(set(int(k) for k in keep))
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityOperator(sub, tuple(self.dims[k] for k in keep))


def _subsystem_dims(dims, m: np.ndarray) -> tuple[int, ...]:
    """The subsystem dims as ints, checked against the square matrix
    ``m``: each at least 2, and their product m's dimension."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValidationError(f"subsystem dims must be >= 2, got {dims}")
    if math.prod(dims) != m.shape[0]:
        raise DimensionError(f"dims {dims} do not multiply to matrix dim {m.shape[0]}")
    return dims


def check_density(m: np.ndarray, w: np.ndarray, checks: Checks) -> None:
    """DensityOperator's validation of a stack (N, d, d) whose ascending
    eigenvalues (N, d) are ``w``: Hermitian to 1e-10, unit trace to 1e-10,
    eigenvalues >= -1e-10. The checks are flagged one by one, in that
    order, only when some point fails one."""
    hermitian = hermitian_residual(m) <= HERMITICITY_TOL
    tr = m.trace(axis1=-2, axis2=-1)
    unit_trace = np.abs(tr - 1.0) <= TRACE_TOL
    psd = w[:, 0] >= -PSD_TOL
    if (hermitian & unit_trace & psd).all():
        return
    checks.require(hermitian,
                   lambda i: ValidationError("density matrix is not Hermitian to 1e-10"))
    checks.require(unit_trace, lambda i: ValidationError(f"trace is {tr[i]}, not 1"))
    checks.require(psd, lambda i: ValidationError("density matrix has a negative eigenvalue"))


def mixedness_batch(m: np.ndarray) -> np.ndarray:
    """1 - Tr(rho^2) of every state in a stack (N, d, d)."""
    # Tr(rho^2) equals the squared Frobenius norm for Hermitian rho
    return 1.0 - np.sum(np.abs(m) ** 2, axis=(-2, -1))


def mixedness(rho: DensityOperator) -> float:
    """1 - Tr(rho^2); zero for pure states, 1 - 1/dim when maximally mixed."""
    return float(mixedness_batch(rho.matrix[None])[0])


def spectrum_entropies(w: np.ndarray) -> np.ndarray:
    """Base-2 entropies of probability spectra along the last axis, with
    0*log(0) = 0: a value <= 0 (rounding noise) counts as exactly zero, and
    so each entropy is continuous in its spectrum."""
    # log2(1) = 0, so a value set to 1 adds exactly nothing
    safe = np.where(w > 0.0, w, 1.0)
    return -(safe * np.log2(safe)).sum(axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Base-2 von Neumann entropy, with the 0*log(0) = 0 convention, from
    the state's stored spectrum."""
    return float(spectrum_entropies(rho.eigenvalues))


def concurrence_two_qubit(rho: DensityOperator) -> float:
    """Two-qubit concurrence from the spin-flip spectrum.

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) where the
    mu_i are the descending eigenvalues of
    rho (sy x sy) conj(rho) (sy x sy). The sqrt(mu_i) are the singular
    values of sqrt(rho) (sy x sy) sqrt(rho)^T, which avoids taking square
    roots of near-zero eigenvalues (an eigenvalue route loses half the
    significant digits right where the entanglement threshold sits); they
    come from the state's stored eigendecomposition, without forming
    sqrt(rho): ``concurrence_batch`` as a batch of one.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"concurrence needs dims (2, 2), got {rho.dims}")
    return float(concurrence_batch(rho.eigenvalues[None], rho.eigenvectors[None])[0])


def concurrence_batch(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence of every validated two-qubit state in a stack, from the
    states' eigendecompositions: ascending eigenvalues w (N, 4) and
    eigenvectors v (N, 4, 4), as ``eigh`` returns them, stacked.

    With sqrt(rho) = V S V^dagger and S = diag sqrt(w) (tiny negative
    eigenvalues are rounding noise and are clamped to 0),
    sqrt(rho) Y sqrt(rho)^T = V [S (V^dagger Y conj(V)) S] V^T for
    Y = sy x sy; V and V^T are unitary, so the singular values are those
    of the bracket. The bracket is the complex conjugate of W^T Y W with
    W = V S, which has the same singular values: one product per state
    and one batched ``svd``. Y W is W's rows in reverse order with the
    outer two negated.
    """
    scaled = v * np.sqrt(np.maximum(w, 0.0))[:, None, :]
    flip_core = np.swapaxes(scaled, -1, -2) @ (scaled[:, ::-1] * _FLIP_SIGNS)
    s = np.linalg.svd(flip_core, compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
