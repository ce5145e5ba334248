"""Evaluators for the uncertainty relations and their tightness ratios.

Three bounds live here:

* the product-form bound on variance pairs (commutator plus
  anticommutator term),
* the operator-weighted additive bound on a variance sum, parameterized
  by an arbitrary operator O and a phase theta,
* the control-assisted bound: the additive bound minus everything a set
  of control measurements explains away, compared against the summed
  residual conditional variances,

plus the memory-assisted entropic bound for comparison. Ratios of a left
side to its bound ("tightness", closer to 1 is tighter) are reported as
None when the bound's magnitude falls below 1e-9; negative bounds are
reported unclamped.

Each variance evaluator on a DensityOperator is a batch of one of a
kernel over a stack of states (N, d, d) (``qc_vur_batch``,
``l_tra_batch``), whose setup-dependent operators are built once
(``vur_plan``, memoized on the setup and read by ``qc_vur_batch`` itself;
``l_tra_operators``). The sweeps call those kernels. ``qm_eur`` works on
one state; the sweeps' entropic columns, on the model's states only, are
closed forms in the Gibbs weights (``sweep._entropic_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ArgumentError, DegenerateOperator, DegeneracyError, DimensionError,
                     SubsystemError, ValidationError)
from .linalg import (
    SIGMA_X,
    SIGMA_Z,
    Checks,
    as_square,
    eigvalsh,
    eigvalsh_2x2,
    partial_trace,
    spectral_2x2,
    trace_product,
    trace_products,
)
from .measurements import (
    DEGENERACY_TOL,
    ChainPlan,
    Observable,
    _check_fits,
    chain_plan,
    chain_table,
    chain_totals,
    projective_decompositions,
)
from .states import DensityOperator, check_density, spectrum_entropies

#: denominators smaller than this leave a tightness ratio undefined
RATIO_MIN = 1e-9
#: <O†O> below this makes the weighted bound's denominator degenerate
OPERATOR_MIN = 1e-12
IMAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """K (measurement, controls) pairs plus the weighted-bound parameters.

    Every pair holds an observable on the measured subsystem and an
    ordered tuple of control observables on distinct other subsystems.
    The additive bound uses the first two measured observables, the
    weighting operator and the phase theta. Equality and hashing are by
    identity.
    """

    pairs: tuple
    ltra_operator: np.ndarray
    theta: float
    #: chain plans by state dimensions, built on first use by
    #: vur_plan; the setup is immutable, so they stay valid for its lifetime
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pairs = tuple((q, tuple(controls)) for q, controls in self.pairs)
        if len(pairs) < 2:
            raise ArgumentError("at least two measurement pairs are required")
        measured = {q.subsystem for q, _ in pairs}
        if len(measured) != 1:
            raise ArgumentError(f"all measured observables must share a subsystem, got {measured}")
        if not (0.0 <= self.theta <= 2.0 * np.pi):
            raise ArgumentError(f"theta must lie in [0, 2*pi], got {self.theta}")
        op = _weighting_operator(self.ltra_operator).copy()
        op.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "ltra_operator", op)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def measured_subsystem(self) -> int:
        return self.pairs[0][0].subsystem

    @cached_property
    def _ltra_ops(self) -> np.ndarray:
        """The weighted bound's operator stack (``l_tra_operators``) for the
        first two measured observables and the weighting operator: built on
        first use, then kept for the setup's lifetime."""
        return l_tra_operators(self.pairs[0][0], self.pairs[1][0], self.ltra_operator)


@dataclass(frozen=True)
class QcVurResult:
    lhs: float          # sum over pairs of residual conditional variances
    l_tra: float        # additive bound on the reduced measured state
    subtracted: float   # everything the controls explain away
    w: float            # l_tra - subtracted, the assisted lower bound
    u: float | None     # lhs / w when |w| >= RATIO_MIN


@dataclass(frozen=True)
class QmEurResult:
    h_rb: float
    h_sb: float
    h_ab: float
    overlap_bound: float  # log2(1/c)
    rhs: float            # overlap_bound + h_ab
    u_eur: float | None   # (h_rb + h_sb) / rhs when |rhs| >= RATIO_MIN


def ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where |den| >= RATIO_MIN, NaN (undefined) elsewhere."""
    ok = np.abs(den) >= RATIO_MIN
    return np.where(ok, num / np.where(ok, den, 1.0), np.nan)


def optional(x: float) -> float | None:
    """None for an undefined (NaN) ratio."""
    return None if x != x else x


def schrodinger_bound(rho_a: DensityOperator, a: Observable, b: Observable):
    """Product-form bound: returns (dA^2 * dB^2, its lower bound)."""
    if len(rho_a.dims) != 1:
        raise DimensionError("expected a single-subsystem state")
    rho = rho_a.matrix
    am, bm = a.matrix, b.matrix
    if am.shape[0] != rho.shape[0] or bm.shape[0] != rho.shape[0]:
        raise DimensionError("observable dimension does not match the state")
    ea = trace_product(rho, am).real
    eb = trace_product(rho, bm).real
    ac = am - ea * np.eye(rho.shape[0])
    bc = bm - eb * np.eye(rho.shape[0])
    lhs = trace_product(rho, ac @ ac).real * trace_product(rho, bc @ bc).real
    comm = trace_product(rho, am @ bm - bm @ am)
    anti = trace_product(rho, ac @ bc + bc @ ac)
    rhs = 0.25 * abs(comm) ** 2 + 0.25 * abs(anti) ** 2
    return lhs, rhs


def qm_eur(rho: DensityOperator, r: Observable, s: Observable) -> QmEurResult:
    """Memory-assisted entropic bound on a two-qubit state, for observables
    r and s on the measured qubit 0, with qubit 1 as the memory.

    Measuring qubit 0 in an observable's eigenbasis {|k>} leaves the
    block-diagonal state sum_k |k><k| (x) M_k, whose spectrum is the union
    of the 2 x 2 spectra of the memory blocks M_k = Tr_A[(P_k (x) I) rho],
    taken in closed form. With rho's 2 x 2 blocks rho_xy[b, c] =
    rho[(x, b), (y, c)], M_k = sum_xy P_k[y, x] rho_xy, and the memory's
    reduced state is rho_00 + rho_11: one matmul against a (6, 4) table of
    coefficients takes every block of both observables, rho_B and a zero
    block from rho, and one closed-form spectrum call their eigenvalues.
    The zero block pads rho_B's spectrum to four values of which two are
    0, which add exactly nothing to an entropy, so the entropies of both
    measured states and S(B) are one reduction. S(AB) comes from the
    state's stored spectrum: no solver call. The overlap term is
    log2(1/c), c = max Tr(P_r P_s) over the rank-one eigenprojectors.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"expected a two-qubit state, got dims {rho.dims}")
    if r.subsystem != 0 or s.subsystem != 0:
        raise SubsystemError("both observables must act on the measured qubit 0")
    for o in (r, s):
        _check_fits(o.matrix.shape[0], (2, 2), o.subsystem)
    # both projector pairs in one closed-form call, as
    # projective_decompositions takes them; it would merge a gap below
    # DEGENERACY_TOL into one outcome, which has no overlap constant
    _, radii, projectors = spectral_2x2(np.array([r.matrix, s.matrix]))
    if (2.0 * radii < DEGENERACY_TOL).any():
        raise DegeneracyError("overlap constant needs nondegenerate spectra")
    pr, ps = projectors
    overlap = (pr[:, None] * ps.swapaxes(-1, -2)).sum(axis=(-2, -1)).real.max()
    overlap_bound = float(np.log2(1.0 / overlap))
    # [(o, k), rho_B, zero] x [(x, y)]
    coefficients = np.zeros((6, 4), dtype=complex)
    coefficients[:4] = projectors.swapaxes(-1, -2).reshape(4, 4)
    coefficients[4] = (1.0, 0.0, 0.0, 1.0)
    regrouped = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    blocks = (coefficients @ regrouped).reshape(6, 2, 2)
    # [(R, S, B), eigenvalue]
    h_r, h_s, h_b = spectrum_entropies(eigvalsh_2x2(blocks).reshape(3, 4)).tolist()
    h_rb, h_sb = h_r - h_b, h_s - h_b
    h_ab = float(spectrum_entropies(rho.eigenvalues)) - h_b
    rhs = overlap_bound + h_ab
    return QmEurResult(h_rb=h_rb, h_sb=h_sb, h_ab=h_ab, overlap_bound=overlap_bound, rhs=rhs,
                       u_eur=optional(float(ratios(h_rb + h_sb, rhs))))


def _weighting_operator(o) -> np.ndarray:
    """The weighted bound's operator O as a square complex matrix, which
    must be finite."""
    om = as_square(o)
    if not np.isfinite(om).all():
        raise ArgumentError("ltra_operator has a non-finite entry")
    return om


def l_tra_operators(a: Observable, b: Observable, o) -> np.ndarray:
    """The operators whose traces against a state make up every term of
    the weighted bound on A and B with operator O, as one read-only stack
    (9, d, d): O†O, O†A, O†B, AB, BA, A, B, O† and I. A non-finite O
    raises ArgumentError."""
    om = _weighting_operator(o)
    am, bm = a.matrix, b.matrix
    if not om.shape == am.shape == bm.shape:
        raise DimensionError("operator dimensions do not match the state")
    ops = np.empty((9,) + om.shape, dtype=complex)
    ops[5], ops[6], ops[7], ops[8] = am, bm, om.conj().T, np.eye(len(am))
    np.matmul(ops[[7, 7, 7, 5, 6]], np.array([om, am, bm, bm, am]), out=ops[:5])
    ops.flags.writeable = False
    return ops


def l_tra_batch(rho: np.ndarray, ops: np.ndarray, theta: float, checks: Checks) -> np.ndarray:
    """The operator-weighted additive bound (see ``l_tra``) on a stack of
    single-subsystem states (N, d, d), from one table of traces against
    the stack ``ops`` of ``l_tra_operators``.

    The mean shifts Ac = A - <A> I and Bc = B - <B> I expand every term
    into those traces, Tr rho = <I> carried where it would be 1:
    <O† Ac> = <O†A> - <A> <O†>, and
    <Ac Bc> = <AB> - <B> <A> - <A> <B> + <A> <B> <I>, with <A> and <B>
    real in the shifts; <Bc Ac> likewise from <BA>.
    """
    if ops.shape[-1] != rho.shape[-1]:
        raise DimensionError("operator dimensions do not match the state")
    t_oo, t_oda, t_odb, t_ab, t_ba, t_a, t_b, t_od, t_i = trace_products(rho, ops).T
    denom, ea, eb = t_oo.real, t_a.real, t_b.real
    phase = np.exp(1j * theta)
    num = np.abs(t_oda - ea * t_od + phase * (t_odb - eb * t_od)) ** 2
    shift = ea * eb * t_i - eb * t_a - ea * t_b
    cross = phase * (t_ab + shift) + phase.conjugate() * (t_ba + shift)
    nonzero = denom >= OPERATOR_MIN
    real = np.abs(cross.imag) <= IMAG_TOL
    if not (nonzero & real).all():
        checks.require(nonzero, lambda i: DegenerateOperator(
            f"<O†O> = {denom[i]:.3e} is numerically zero"))
        checks.require(real, lambda i: ValidationError(
            f"anticommutator cross term has imaginary residue {cross.imag[i]:.3e}"))
    return num / np.where(nonzero, denom, 1.0) - cross.real


def l_tra(rho_a: DensityOperator, a: Observable, b: Observable, o, theta: float) -> float:
    """Operator-weighted additive bound on dA^2 + dB^2.

    |<O†(Ac + e^{i theta} Bc)>|^2 / <O†O>  -  <Ac e^{i theta} Bc + h.c.>
    with Ac, Bc the mean-shifted observables, everything evaluated in the
    given single-subsystem state: ``l_tra_batch`` as a batch of one.
    """
    if len(rho_a.dims) != 1:
        raise DimensionError("expected a single-subsystem state")
    checks = Checks(1)
    bound = l_tra_batch(rho_a.matrix[None], l_tra_operators(a, b, o), theta, checks)
    checks.raise_first()
    return float(bound[0])


def vur_plan(setup: MeasurementSetup, dims) -> tuple[ChainPlan, ...]:
    """The chained decompositions of every (measured, controls) pair of a
    setup, for states with subsystem dimensions ``dims``: one plan per
    control layout (control subsystems in chain order, outcome counts),
    stacking the layout's pairs; built once per setup and dimensions."""
    dims = tuple(int(d) for d in dims)
    plan = setup._plans.get(dims)
    if plan is None:
        # every control of every pair decomposed in one call
        decs = iter(projective_decompositions(o for _, controls in setup.pairs
                                              for o in controls))
        groups = {}
        for q, controls in setup.pairs:
            pair_decs = [next(decs) for _ in controls]
            layout = tuple((o.subsystem, len(dec.outcomes)) for o, dec in zip(controls, pair_decs))
            groups.setdefault(layout, []).append(((q, controls), pair_decs))
        plan = tuple(chain_plan(dims, *zip(*group)) for group in groups.values())
        setup._plans[dims] = plan
    return plan


def qc_vur_batch(rho: np.ndarray, dims, setup: MeasurementSetup, checks: Checks) -> dict:
    """The assisted bound's columns (lhs, l_tra, subtracted, w, u; u NaN
    where undefined) for a stack of validated states (N, D, D); the reduced
    measured states are validated as DensityOperator validates them, a
    qubit's from its closed-form spectrum (``eigvalsh_2x2``). Each control
    layout of the setup's memoized ``vur_plan`` for ``dims`` is traced in
    one einsum, and each pair's residual and explained total
    (``chain_totals``) are summed into lhs and subtracted."""
    lhs = 0.0
    subtracted = 0.0
    for chain in vur_plan(setup, dims):
        residual, explained = chain_totals(*chain_table(rho, chain))
        lhs = lhs + residual.sum(axis=1)
        subtracted = subtracted + explained.sum(axis=1)
    rho_a = partial_trace(rho, dims, (setup.measured_subsystem,))
    spectrum = eigvalsh_2x2 if rho_a.shape[-1] == 2 else eigvalsh
    check_density(rho_a, spectrum(rho_a), checks)
    bound = l_tra_batch(rho_a, setup._ltra_ops, setup.theta, checks)
    w = bound - subtracted
    return dict(lhs=lhs, l_tra=bound, subtracted=subtracted, w=w, u=ratios(lhs, w))


def qc_vur(rho: DensityOperator, setup: MeasurementSetup) -> QcVurResult:
    """Control-assisted variance bound and its tightness.

    lhs sums the residual conditional variances over all pairs; the bound
    w subtracts, from the additive bound on the reduced measured state,
    every chain term the control measurements account for. lhs >= w
    always, and lhs + subtracted recombines to the summed unconditional
    variances.
    """
    checks = Checks(1)
    cols = qc_vur_batch(rho.matrix[None], rho.dims, setup, checks)
    checks.raise_first()
    cols = {k: float(v[0]) for k, v in cols.items()}
    return QcVurResult(lhs=cols["lhs"], l_tra=cols["l_tra"], subtracted=cols["subtracted"],
                       w=cols["w"], u=optional(cols["u"]))


def xz_control_setup(theta: float = 0.5) -> MeasurementSetup:
    """The standard sweep configuration, measured on qubit 0 with qubit 1
    as the control: K = 2 with Q1 = O1 = sigma_x, Q2 = O2 = sigma_z,
    O = sigma_x + sigma_z."""
    pairs = tuple((Observable(m, 0), (Observable(m, 1),)) for m in (SIGMA_X, SIGMA_Z))
    return MeasurementSetup(pairs=pairs, ltra_operator=SIGMA_X + SIGMA_Z, theta=theta)
