"""Two-site spin model: XY exchange plus a z-axis antisymmetric coupling.

The Hamiltonian is

    H = (J/2) [ sx sx + sy sy + sz sz + D (sx sy - sy sx) ]

with real coupling J (antiferromagnetic for J > 0) and antisymmetric
strength D >= 0. Its eigensystem is known in closed form: the levels J/2
of |00> and |11>, and -J/2 -/+ J r, r = hypot(1, D), of
(|01> -/+ e^(-i phi) |10>) / sqrt(2) with e^(-i phi) = (1 - iD) / r. So
its thermal state at temperature T (k = 1) is built with no eigensolver:
an X-shaped matrix whose only coherence sits between |01> and |10>, which
carries its eigendecomposition (the normalised weights of the levels and
those eigenvectors) to every functional that needs a spectrum. Each
level enters through its height above the ground level, in a form that
neither cancels nor overflows; the near-degenerate ferromagnetic gap
J (1 - r) is -J D (D / (1 + r)). Mixedness and concurrence of the state
have scalar closed forms from the same heights. ``hamiltonian`` builds H
from its Pauli terms, and ``qurel verify`` checks the closed-form
eigensystem against it and the states' decompositions against the
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, RangeError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, Checks
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
    """Model point (d, j, t) as floats, which keep numpy's warnings out of
    the closed forms: antisymmetric strength, coupling, temperature."""

    d: float
    j: float
    t: float

    def __post_init__(self):
        if (error := _domain_error(self.d, self.j, self.t)) is not None:
            raise error
        if not type(self.d) is type(self.j) is type(self.t) is float:
            self.__dict__.update(d=float(self.d), j=float(self.j), t=float(self.t))

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


def _domain_error(d: float, j: float, t: float) -> ArgumentError | None:
    """ModelParams' domain rule: the error of a point outside it, else None."""
    if not (math.isfinite(d) and d >= 0.0):
        return ArgumentError(f"d must be finite and >= 0, got {d}")
    if j == 0.0 or not math.isfinite(j):
        return ArgumentError(f"j must be nonzero and finite, got {j}")
    if not (math.isfinite(t) and t >= T_MIN):
        return ArgumentError(f"t must be finite and >= {T_MIN}, got {t}")


def hamiltonian(p: ModelParams) -> np.ndarray:
    """4x4 Hermitian matrix of the model, built from its Pauli terms.

    Eigenvalues are {J/2, J/2, -J/2 + delta/2, -J/2 - delta/2} and the
    inner matrix element <01|H|10> equals J(1 + iD). The thermal states
    do not use it: it is the independent cross-check of their closed-form
    eigensystem (``qurel verify``).
    """
    return (p.j / 2.0) * (_XX + _YY + _ZZ + p.d * _DM)


def thermal_state(p: ModelParams) -> DensityOperator:
    """Gibbs state exp(-H/T) / Z as a validated two-qubit density operator
    that keeps its closed-form eigendecomposition: ``_gibbs_eigensystems``
    as a batch of one, with no solver call."""
    checks = Checks(1)
    rho, w, v = _gibbs_eigensystems(np.array([p.d]), np.array([p.j]), np.array([p.t]), checks)
    checks.raise_first()
    return DensityOperator._decomposed(rho[0], (2, 2), w[0], v[0])


def _levels(d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each level's height above the ground level -j/2 - |j| r of the
    Hamiltonians at arrays of (d, j), in units of |j|, as an (N, 4) array
    in the order: far level, |00>, |11>, ground level. The heights are 2r,
    then twice 1 + r for j > 0 and r - 1 = d (d / (1 + r)) for j < 0, then
    0; so they descend, and the Boltzmann weights ascend."""
    r = np.hypot(1.0, d)
    pair = np.where(j > 0.0, 1.0 + r, d * (d / (1.0 + r)))
    return np.stack([2.0 * r, pair, pair, np.zeros_like(r)], axis=1)


#: 1/sqrt(2), the |01> and |10> amplitude of the two inner eigenvectors
_ROOT_HALF = math.sqrt(0.5)


def _eigenvectors(d: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The Hamiltonians' eigenvectors at arrays of (d, j), as the columns of
    an (N, 4, 4) stack in the order of ``_levels``: with s = sign(j), the
    far and ground levels are (|01> +/- s e^(-i phi) |10>) / sqrt(2),
    e^(-i phi) = (1 - i d) / r."""
    v = np.zeros((len(d), 4, 4), dtype=complex)
    v[:, 0, 1] = v[:, 3, 2] = 1.0
    v[:, 1, 0] = v[:, 1, 3] = _ROOT_HALF
    c = np.copysign(_ROOT_HALF, j) / np.hypot(1.0, d)
    v[:, 2, 0] = c - 1j * (c * d)
    v[:, 2, 3] = -v[:, 2, 0]
    return v


def _gibbs_eigensystems(d: np.ndarray, j: np.ndarray, t: np.ndarray,
                       checks: Checks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gibbs states exp(-H/T) / Z of a batch of model points with their
    eigendecompositions, all from the closed-form eigensystem (``_levels``,
    ``_eigenvectors``): no solver call. Returns the (N, 4, 4) stack rho,
    its normalised Boltzmann weights w (N, 4) and the eigenvectors v
    (N, 4, 4) as columns, in the order of ``_levels``, so w ascends per
    point, ties included, and rho = v diag(w) v^dagger: exactly Hermitian,
    with weights in [0, 1] that sum to 1 to within rounding, so a valid
    state by construction, which no caller re-checks.

    Every point is in the ModelParams domain, which its callers check.
    The one check is a finite Hamiltonian: a point fails with "Hamiltonian
    overflowed" exactly where ``hamiltonian`` would hold a non-finite
    entry, where 2d or (j/2)(2d) overflows. Each Boltzmann weight is
    exp(-|j| height / t) relative to the ground level's, which is 1, so
    arbitrarily large beta*|J| cannot overflow and a stable height keeps
    the near-degenerate ferromagnetic gap accurate. A failed point comes
    back as (I/4, 1/4, I).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite((j / 2.0) * (2.0 * d))
    checks.require(finite, lambda i: RangeError(
        f"Hamiltonian overflowed at {ModelParams(float(d[i]), float(j[i]), float(t[i]))}"))
    d = checks.clean(d, 0.0)
    j = checks.clean(j, 1.0)
    heights = _levels(d, j)
    aj = np.abs(j)[:, None]
    t = t[:, None]
    # |j| height / t in two orders: each overflows short of the true value
    # only where the other cannot (|j| / t for t < 1, |j| height for t > 1),
    # and fmin drops the NaN of a 0 height times an infinite |j| / t; a true
    # overflow is a weight of 0
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.fmin(heights * aj / t, heights * (aj / t))
    weights = np.exp(-x)
    w = weights / weights.sum(axis=1, keepdims=True)
    # V diag(w) V^dagger for the V of _eigenvectors, entry by entry: the X
    # state, exactly Hermitian
    coherence = (w[:, 0] - w[:, 3]) * np.copysign(0.5, j) / np.hypot(1.0, d)
    rho = np.zeros((len(d), 4, 4), dtype=complex)
    rho[:, 0, 0] = rho[:, 3, 3] = w[:, 1]
    rho[:, 1, 1] = rho[:, 2, 2] = 0.5 * (w[:, 0] + w[:, 3])
    rho[:, 1, 2] = coherence + 1j * (coherence * d)
    rho[:, 2, 1] = np.conj(rho[:, 1, 2])
    return (checks.clean(rho, np.eye(4) / 4.0), checks.clean(w, 0.25),
            checks.clean(_eigenvectors(d, j), np.eye(4)))


def _shifted_weights(d: float, j: float):
    """The Boltzmann factors of |00> (equal to that of |11>) and of the far
    level relative to the ground level's at one (d, j) of the model's
    domain that the caller has checked, as ``weights(t) -> (a, f)`` for any
    t >= T_MIN: ``_gibbs_eigensystems``' weights in scalar math, from the
    same heights and in the same two orders, each at most 1. r, the heights
    and their products with |j| are formed once per (d, j). Every closed
    form below is a ratio of terms of equal degree in a and f.
    """
    aj = abs(j)
    r = math.hypot(1.0, d)
    pair = 1.0 + r if j > 0.0 else d * (d / (1.0 + r))
    far = 2.0 * r
    pair_aj, far_aj = pair * aj, far * aj

    def weights(t: float) -> tuple[float, float]:
        # min keeps its first argument, which is never NaN, over a NaN
        q = aj / t
        return math.exp(-min(pair_aj / t, pair * q)), math.exp(-min(far_aj / t, far * q))

    return weights


def _mixedness_of(d: float, j: float):
    """``closed_form_mixedness`` at one (d, j) of the model's domain, as
    gamma(t) on ``_shifted_weights``' kernel."""
    weights = _shifted_weights(d, j)

    def gamma(t: float) -> float:
        a, f = weights(t)
        z = 1.0 + 2.0 * a + f
        return (2.0 * a * a + 4.0 * a + 4.0 * a * f + 2.0 * f) / z / z

    return gamma


def closed_form_mixedness(p: ModelParams) -> float:
    """Analytic 1 - Tr(rho^2) of the thermal state."""
    return _mixedness_of(p.d, p.j)(p.t)


def closed_form_concurrence(p: ModelParams) -> float:
    """Analytic concurrence of the thermal state.

    Equals (2/Z) max(|rho23| - sqrt(rho11 rho44), 0) on the unnormalized
    X-state elements, i.e. (2/Z) max(e^{bJ/2} |sinh(b delta/2)| - e^{-bJ/2}, 0);
    relative to the ground level's weight, |rho23| is (1 - f) / 2 and
    rho11 = rho44 is a.
    """
    a, f = _shifted_weights(p.d, p.j)(p.t)
    return max(1.0 - f - 2.0 * a, 0.0) / (1.0 + 2.0 * a + f)
