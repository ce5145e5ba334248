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

Each evaluator on a DensityOperator is a batch of one of a kernel over a
stack of states (N, d, d) (``qc_vur_batch``, ``l_tra_batch``,
``qm_eur_batch``), whose setup-dependent operators are built once
(``vur_plan``, ``eur_plan``); the sweeps call the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateOperator, DegeneracyError, DimensionError, SubsystemError, ValidationError
from .linalg import (
    SIGMA_X,
    SIGMA_Z,
    Checks,
    as_square,
    eigvalsh_2x2,
    partial_trace,
    trace_product,
    trace_products,
)
from .measurements import (
    ChainPlan,
    Observable,
    _check_fits,
    chain_plan,
    chain_terms,
    projective_decompositions,
)
from .states import DensityOperator, check_density, spectrum_entropies

#: denominators smaller than this leave a tightness ratio undefined
RATIO_MIN = 1e-9
#: <O†O> below this makes the weighted bound's denominator degenerate
OPERATOR_MIN = 1e-12
IMAG_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementSetup:
    """K (measurement, controls) pairs plus the weighted-bound parameters.

    Every pair holds an observable on the measured subsystem and an
    ordered tuple of control observables on distinct other subsystems.
    The additive bound uses the first two measured observables, the
    weighting operator and the phase theta.
    """

    pairs: tuple
    ltra_operator: np.ndarray
    theta: float
    #: chain plans by state dimensions, built on first use by
    #: vur_plan; the setup is immutable, so they stay valid for its lifetime
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple((q, tuple(controls)) for q, controls in self.pairs)
        if len(pairs) < 2:
            raise ValidationError("at least two measurement pairs are required")
        measured = {q.subsystem for q, _ in pairs}
        if len(measured) != 1:
            raise ValidationError(f"all measured observables must share a subsystem, got {measured}")
        if not (0.0 <= self.theta <= 2.0 * np.pi):
            raise ValidationError(f"theta must lie in [0, 2*pi], got {self.theta}")
        op = as_square(self.ltra_operator).copy()
        if not np.isfinite(op).all():
            raise ValidationError("ltra_operator has a non-finite entry")
        op.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "ltra_operator", op)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def measured_subsystem(self) -> int:
        return self.pairs[0][0].subsystem


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


def _overlap_constant(pr: np.ndarray, ps: np.ndarray) -> float:
    """max Tr(P_r P_s) over two projector stacks (outcome, d, d), which
    must hold d rank-one projectors each."""
    dim = pr.shape[-1]
    if len(pr) != dim or len(ps) != dim:
        raise DegeneracyError("overlap constant needs nondegenerate spectra")
    overlaps = np.sum(pr[:, None] * np.swapaxes(ps, -1, -2), axis=(-2, -1)).real
    return float(overlaps.max())


def maximal_overlap_c(r: Observable, s: Observable) -> float:
    """Largest squared overlap between the eigenbases of two observables.

    Both spectra must be nondegenerate after eigenspace merging: the
    overlap constant is ill-defined for projectors of rank above one.
    """
    if r.subsystem != s.subsystem:
        raise SubsystemError("observables must act on the same subsystem")
    dim = r.matrix.shape[0]
    if s.matrix.shape[0] != dim:
        raise DimensionError(f"observable dims {dim} and {s.matrix.shape[0]} differ")
    return _overlap_constant(*(dec.projectors for dec in projective_decompositions([r, s])))


class EurPlan(NamedTuple):
    """The entropic bound's operators for a pair of observables on qubit 0
    of a two-qubit state: each observable's rank-one eigenprojectors on
    qubit 0, and the overlap term log2(1/c)."""

    projectors: np.ndarray  # (observable, outcome, 2, 2)
    overlap_bound: float


def eur_plan(dims, r: Observable, s: Observable) -> EurPlan:
    """qm_eur's operators for observables r and s on qubit 0 of a state
    with subsystem dimensions ``dims`` (which must be (2, 2))."""
    if tuple(dims) != (2, 2):
        raise DimensionError(f"expected a two-qubit state, got dims {tuple(dims)}")
    if r.subsystem != 0 or s.subsystem != 0:
        raise SubsystemError("both observables must act on the measured qubit 0")
    for o in (r, s):
        _check_fits(o.matrix.shape[0], (2, 2), o.subsystem)
    projectors = [dec.projectors for dec in projective_decompositions([r, s])]
    # _overlap_constant rejects a degenerate spectrum, so both stacks hold two
    # projectors
    overlap_bound = float(np.log2(1.0 / _overlap_constant(*projectors)))
    return EurPlan(projectors=np.array(projectors), overlap_bound=overlap_bound)


def qm_eur_batch(rho: np.ndarray, w: np.ndarray, plan: EurPlan) -> dict:
    """The entropic bound's columns (h_rb, h_sb, h_ab, rhs, u_eur; u_eur
    NaN where undefined) for a stack of two-qubit states (N, 4, 4) with
    ascending eigenvalues w (N, 4).

    Measuring qubit 0 in the observable's eigenbasis {|k>} leaves the
    block-diagonal state sum_k |k><k| (x) M_k, whose spectrum is the union
    of the 2 x 2 spectra of the memory blocks M_k = Tr_A[(P_k (x) I) rho],
    taken in closed form. With rho's 2 x 2 blocks rho_xy[b, c] =
    rho[(x, b), (y, c)], M_k = sum_xy P_k[y, x] rho_xy: one matmul traces
    every block of both observables from rho against the 2 x 2
    rank-one projectors P_k. S(AB) comes from w, and S(B) from one batched
    call on the memory's reduced states.
    """
    h_b = spectrum_entropies(np.linalg.eigvalsh(partial_trace(rho, (2, 2), (1,))))
    coeffs = np.swapaxes(plan.projectors, -1, -2).reshape(4, 4)  # [(o, k), (x, y)]
    regrouped = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    blocks = (coeffs @ regrouped).reshape(-1, 2, 2, 2, 2)  # [n, o, k, b, c]
    spectra = eigvalsh_2x2(blocks).reshape(-1, 2, 4)  # [n, o, eigenvalue]
    h_r, h_s = spectrum_entropies(spectra).T
    h_rb = h_r - h_b
    h_sb = h_s - h_b
    h_ab = spectrum_entropies(w) - h_b
    rhs = plan.overlap_bound + h_ab
    return dict(h_rb=h_rb, h_sb=h_sb, h_ab=h_ab, rhs=rhs, u_eur=ratios(h_rb + h_sb, rhs))


def qm_eur(rho: DensityOperator, r: Observable, s: Observable) -> QmEurResult:
    """Memory-assisted entropic bound on a two-qubit state.

    The measured system is qubit 0, the memory qubit 1.
    """
    plan = eur_plan(rho.dims, r, s)
    m = rho.matrix[None]
    cols = {k: float(v[0]) for k, v in qm_eur_batch(m, np.linalg.eigvalsh(m), plan).items()}
    return QmEurResult(h_rb=cols["h_rb"], h_sb=cols["h_sb"], h_ab=cols["h_ab"],
                       overlap_bound=plan.overlap_bound, rhs=cols["rhs"],
                       u_eur=optional(cols["u_eur"]))


def l_tra_batch(rho: np.ndarray, a: Observable, b: Observable, o, theta: float,
                checks: Checks) -> np.ndarray:
    """The operator-weighted additive bound on a stack of single-subsystem
    states (N, d, d); see ``l_tra``."""
    om = as_square(o)
    if om.shape[0] != rho.shape[-1] or a.matrix.shape[0] != rho.shape[-1] \
            or b.matrix.shape[0] != rho.shape[-1]:
        raise DimensionError("operator dimensions do not match the state")
    od = om.conj().T
    denom, ea, eb = trace_products(rho, np.array([od @ om, a.matrix, b.matrix])).real.T
    checks.require(denom >= OPERATOR_MIN,
                   lambda i: DegenerateOperator(f"<O†O> = {denom[i]:.3e} is numerically zero"))
    eye = np.eye(rho.shape[-1])
    ac = a.matrix - ea[:, None, None] * eye
    bc = b.matrix - eb[:, None, None] * eye
    phase = np.exp(1j * theta)
    num = np.abs(np.einsum("nij,nji->n", rho, od @ (ac + phase * bc))) ** 2
    cross = np.einsum("nij,nji->n", rho, ac @ (phase * bc) + np.conj(phase) * bc @ ac)
    checks.require(np.abs(cross.imag) <= IMAG_TOL,
                   lambda i: ValidationError(f"anticommutator cross term has imaginary "
                                             f"residue {cross.imag[i]:.3e}"))
    return num / np.where(denom >= OPERATOR_MIN, denom, 1.0) - cross.real


def l_tra(rho_a: DensityOperator, a: Observable, b: Observable, o, theta: float) -> float:
    """Operator-weighted additive bound on dA^2 + dB^2.

    |<O†(Ac + e^{i theta} Bc)>|^2 / <O†O>  -  <Ac e^{i theta} Bc + h.c.>
    with Ac, Bc the mean-shifted observables, everything evaluated in the
    given single-subsystem state.
    """
    if len(rho_a.dims) != 1:
        raise DimensionError("expected a single-subsystem state")
    return float(l_tra_batch(rho_a.matrix[None], a, b, o, theta, Checks(1, strict=True))[0])


def vur_plan(setup: MeasurementSetup, dims) -> tuple[ChainPlan, ...]:
    """The chained decompositions of every (measured, controls) pair of a
    setup, for states with subsystem dimensions ``dims``; built
    once per setup and dimensions."""
    dims = tuple(int(d) for d in dims)
    plan = setup._plans.get(dims)
    if plan is None:
        # every control of every pair decomposed in one call
        decs = iter(projective_decompositions(o for _, controls in setup.pairs
                                              for o in controls))
        plan = tuple(chain_plan(dims, q, controls, [next(decs) for _ in controls])
                     for q, controls in setup.pairs)
        setup._plans[dims] = plan
    return plan


def qc_vur_batch(rho: np.ndarray, dims, setup: MeasurementSetup,
                 plan: tuple[ChainPlan, ...], checks: Checks) -> dict:
    """The assisted bound's columns (lhs, l_tra, subtracted, w, u; u NaN
    where undefined) for a stack of validated states (N, D, D); the reduced
    measured states are validated as DensityOperator validates them."""
    lhs = 0.0
    subtracted = 0.0
    for chain in plan:
        residual, first_term, nested = chain_terms(rho, chain)
        lhs = lhs + residual
        subtracted = subtracted + (first_term + nested.sum(axis=1))
    rho_a = partial_trace(rho, dims, (setup.measured_subsystem,))
    check_density(rho_a, np.linalg.eigvalsh(rho_a), checks)
    bound = l_tra_batch(rho_a, setup.pairs[0][0], setup.pairs[1][0],
                        setup.ltra_operator, setup.theta, checks)
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
    cols = qc_vur_batch(rho.matrix[None], rho.dims, setup, vur_plan(setup, rho.dims),
                        Checks(1, strict=True))
    cols = {k: float(v[0]) for k, v in cols.items()}
    return QcVurResult(lhs=cols["lhs"], l_tra=cols["l_tra"], subtracted=cols["subtracted"],
                       w=cols["w"], u=optional(cols["u"]))


def xz_control_setup(theta: float = 0.5, measured: int = 0, controls=(1,)) -> MeasurementSetup:
    """The standard sweep configuration: K = 2 with Q1 = O1 = sigma_x,
    Q2 = O2 = sigma_z on every control, O = sigma_x + sigma_z."""
    pairs = []
    for q_matrix in (SIGMA_X, SIGMA_Z):
        q = Observable(q_matrix, measured)
        ctrl = tuple(Observable(q_matrix, c) for c in controls)
        pairs.append((q, ctrl))
    return MeasurementSetup(pairs=tuple(pairs), ltra_operator=SIGMA_X + SIGMA_Z, theta=theta)
