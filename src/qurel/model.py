"""Two-site spin model: XY exchange plus a z-axis antisymmetric coupling.

The Hamiltonian is

    H = (J/2) [ sx sx + sy sy + sz sz + D (sx sy - sy sx) ]

with real coupling J (antiferromagnetic for J > 0) and antisymmetric
strength D >= 0. Its thermal state at temperature T (k = 1) is an
X-shaped matrix whose only coherence sits between |01> and |10>, and
mixedness and concurrence of that state have closed forms. Both the
Gibbs construction and the closed forms are exposed so they can be
cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QurelError, RangeError, ValidationError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, Checks, dagger, eigh_batch
from .states import DensityOperator

#: coldest supported temperature; beta <= 1000 keeps the shifted
#: exponentials well-behaved while projecting onto the ground state to
#: machine precision for |J| >= 0.5
T_MIN = 1e-3

_XX = np.kron(SIGMA_X, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)
_DM = np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X)


@dataclass(frozen=True)
class ModelParams:
    """Model point (d, j, t): antisymmetric strength, coupling, temperature."""

    d: float
    j: float
    t: float

    def __post_init__(self):
        # in_domain below is the same rule over arrays of points
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ValidationError(f"d must be finite and >= 0, got {self.d}")
        if self.j == 0.0 or not math.isfinite(self.j):
            raise ValidationError(f"j must be nonzero and finite, got {self.j}")
        if not (math.isfinite(self.t) and self.t >= T_MIN):
            raise ValidationError(f"t must be finite and >= {T_MIN}, got {self.t}")

    @property
    def beta(self) -> float:
        return 1.0 / self.t

    @property
    def delta(self) -> float:
        """Signed level splitting 2 J sqrt(1 + D^2)."""
        return 2.0 * self.j * math.hypot(1.0, self.d)

    @property
    def theta_dm(self) -> float:
        """Phase of (1 + iD): the argument of the thermal off-diagonal element."""
        return math.atan(self.d)


def in_domain(d: np.ndarray, j: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ModelParams' validation rule as a mask over arrays of points."""
    return (np.isfinite(d) & (d >= 0.0) & np.isfinite(j) & (j != 0.0)
            & np.isfinite(t) & (t >= T_MIN))


def _domain_error(d: float, j: float, t: float) -> QurelError:
    """The error ModelParams raises for a point outside the domain."""
    try:
        ModelParams(d, j, t)
    except ValidationError as exc:
        return exc
    return ValidationError(f"({d}, {j}, {t}) lies outside the model domain")


def hamiltonian(p: ModelParams) -> np.ndarray:
    """4x4 Hermitian matrix of the model.

    Eigenvalues are {J/2, J/2, -J/2 + delta/2, -J/2 - delta/2} and the
    inner matrix element <01|H|10> equals J(1 + iD).
    """
    return hamiltonians(np.array([p.d], dtype=float), np.array([p.j], dtype=float))[0]


def hamiltonians(d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The model's Hamiltonians at arrays of (d, j), as an (N, 4, 4) stack."""
    return (j / 2.0)[:, None, None] * (_XX + _YY + _ZZ + d[:, None, None] * _DM)


def thermal_state(p: ModelParams) -> DensityOperator:
    """Gibbs state exp(-H/T) / Z as a validated two-qubit density operator:
    ``gibbs_states`` as a batch of one."""
    checks = Checks(1)
    rho = gibbs_states(np.array([p.d], dtype=float), np.array([p.j], dtype=float),
                       np.array([p.t], dtype=float), checks)
    checks.raise_first()
    return DensityOperator(rho[0], (2, 2))


def gibbs_states(d: np.ndarray, j: np.ndarray, t: np.ndarray, checks: Checks) -> np.ndarray:
    """Gibbs states exp(-H/T) / Z of a batch of model points, as an
    (N, 4, 4) stack from one batched eigendecomposition.

    The checks are thermal_state's: the ModelParams domain, a finite
    Hamiltonian (then exactly Hermitian: real scalars times Hermitian
    constants), a converged eigensolver and finite entries. The spectral
    exponent is shifted by its maximum before exponentiation; the shift
    cancels against the partition function, so arbitrarily large beta*|J|
    cannot overflow. Failed points come back as I/4.
    """
    checks.require(in_domain(d, j, t), lambda i: _domain_error(d[i], j[i], t[i]))
    d = checks.clean(d, 0.0)
    j = checks.clean(j, 1.0)
    t = checks.clean(t, 1.0)

    def overflowed(what):
        return lambda i: RangeError(f"{what} overflowed at "
                                    f"{ModelParams(float(d[i]), float(j[i]), float(t[i]))}")

    with np.errstate(over="ignore", invalid="ignore"):
        h = hamiltonians(d, j)
        checks.require(np.isfinite(h.view(float)).all(axis=(1, 2)), overflowed("Hamiltonian"))
        w, v = eigh_batch(checks.clean(h, 0.0), checks)
        x = -(1.0 / t)[:, None] * w
        weights = np.exp(x - np.max(x, axis=1, keepdims=True))
        z = weights.sum(axis=1, keepdims=True)
        rho = (v * (weights / z)[:, None, :]) @ dagger(v)
    checks.require(np.isfinite(rho.view(float)).all(axis=(1, 2)), overflowed("thermal state"))
    return checks.clean(rho, np.eye(4) / 4.0)


def _shifted_weights(p: ModelParams) -> tuple[float, float, float]:
    """The three Boltzmann factors exp(-bJ/2), exp(b(J+delta)/2),
    exp(b(J-delta)/2), jointly rescaled by their maximum.

    Every closed form below is a ratio of terms of equal total degree in
    these factors, so the common rescaling cancels exactly and no
    exponential ever exceeds 1.
    """
    beta = p.beta
    e1 = -beta * p.j / 2.0
    e2 = beta * (p.j + p.delta) / 2.0
    e3 = beta * (p.j - p.delta) / 2.0
    shift = max(e1, e2, e3)
    a = math.exp(e1 - shift)
    b = math.exp(e2 - shift)
    c = math.exp(e3 - shift)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise RangeError(f"Boltzmann factors overflowed at {p}")
    return a, b, c


def closed_form_mixedness(p: ModelParams) -> float:
    """Analytic 1 - Tr(rho^2) of the thermal state."""
    a, b, c = _shifted_weights(p)
    z = 2.0 * a + b + c
    return (2.0 * a * a + 4.0 * a * b + 4.0 * a * c + 2.0 * b * c) / (z * z)


def closed_form_concurrence(p: ModelParams) -> float:
    """Analytic concurrence of the thermal state.

    Equals (2/Z) max(|rho23| - sqrt(rho11 rho44), 0) on the unnormalized
    X-state elements, i.e. (2/Z) max(e^{bJ/2} |sinh(b delta/2)| - e^{-bJ/2}, 0).
    """
    a, b, c = _shifted_weights(p)
    z = 2.0 * a + b + c
    return max(abs(b - c) - 2.0 * a, 0.0) / z
