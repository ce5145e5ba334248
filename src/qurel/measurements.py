"""Projective measurement statistics and conditional-variance decompositions.

A measurement on a control subsystem splits the state into outcome
branches. Averaging the measured system's variance over those branches
(and variancing the branch means) decomposes the unconditional variance
exactly: E[V] + V[E] = V. Chaining over several controls yields the
sequential decomposition

    V(Q) = E[V(Q | c_1..c_N)] + V[E(Q | c_1)]
         + sum_{n=2..N} E[ V( E[Q | c_1..c_n] | c_1..c_{n-1} ) ],

which this module computes term by term from the joint outcome table.
Measurements on disjoint subsystems commute, so that table is
well-defined. Observables are decomposed a list at a time
(``projective_decompositions``, one eigensolver call per matrix
dimension); nothing is memoized here. The table's operators are built
once per setup (``chain_plan``) as one batched Kronecker product of
per-subsystem factor stacks, and traced against a whole stack of states
at a time (``chain_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, SubsystemError, ValidationError
from .linalg import (
    Checks,
    as_square,
    dagger,
    eigh_batch,
    is_hermitian,
    partial_trace,
    trace_product,
    trace_products,
)
from .states import DensityOperator

#: branches below this probability are skipped (their conditional state
#: is undefined); far below any branch weight arising in the sweeps
P_MIN = 1e-12
#: eigenvalues closer than this are merged into one outcome
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """Hermitian operator tagged with the subsystem it acts on."""

    matrix: np.ndarray
    subsystem: int

    def __post_init__(self):
        m = as_square(self.matrix).copy()
        if not is_hermitian(m):
            raise ValidationError("observable is not Hermitian to 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "subsystem", int(self.subsystem))


@dataclass(frozen=True)
class ProjectiveDecomposition:
    """Spectral outcomes of an observable: (eigenvalue, projector) pairs,
    eigenvalues strictly increasing."""

    outcomes: tuple[tuple[float, np.ndarray], ...]

    @property
    def projectors(self) -> np.ndarray:
        """The outcomes' projectors as one stack (outcome, d, d)."""
        return np.array([proj for _, proj in self.outcomes])


@dataclass(frozen=True)
class ConditionalStats:
    e_of_v: float  # mean conditional variance  E[V(Q|O)]
    v_of_e: float  # variance of conditional means  V[E(Q|O)]


@dataclass(frozen=True)
class SequentialDecomposition:
    residual: float          # E[V(Q | all controls)]
    first_term: float        # V[E(Q | first control)]
    nested: tuple[float, ...]  # terms n = 2..N of the chain


class ChainPlan(NamedTuple):
    """The operators of one chained decomposition, built once.

    For every outcome tuple, in lexicographic order of ascending
    eigenvalues per control, ``ops`` holds the joint projector P, then
    q P, then q^2 P: their traces against a state are the tuple's
    probability and its first and second moments of q. Each operator is
    the Kronecker product of one factor per subsystem: I, q or q^2 on
    q's, one projector of each control on its own, I elsewhere. ``shape``
    is the number of outcomes of each control.
    """

    ops: np.ndarray  # (3 * prod(shape), D, D)
    shape: tuple[int, ...]


def projective_decompositions(observables) -> list[ProjectiveDecomposition]:
    """Eigenvalues and eigenprojectors of every observable in a list, in
    input order.

    The matrices of each dimension are decomposed as one stack. Eigenspaces
    whose eigenvalues differ by less than DEGENERACY_TOL are merged into a
    single outcome, so degenerate (coarse) observables are legitimate
    controls; the observables that share a pattern of merged eigenspaces
    then form each outcome's projectors together.
    """
    observables = list(observables)
    found = [None] * len(observables)
    by_dim = {}
    for i, o in enumerate(observables):
        by_dim.setdefault(o.matrix.shape[0], []).append(i)
    for index in by_dim.values():
        # Observable has checked Hermiticity; each cluster becomes one
        # projector, so eigenvector phases and the order within it do not matter
        checks = Checks(len(index))
        w, v = eigh_batch(np.array([observables[i].matrix for i in index]), checks)
        checks.raise_first()
        patterns = {}
        for row, starts in enumerate((w[:, 1:] - w[:, :-1] >= DEGENERACY_TOL).tolist()):
            patterns.setdefault(tuple(starts), []).append(row)
        for starts, rows in patterns.items():
            w_rows, v_rows = (w, v) if len(rows) == len(w) else (w[rows], v[rows])
            edges = [0] + [i + 1 for i, new in enumerate(starts) if new] + [len(starts) + 1]
            clusters = list(zip(edges[:-1], edges[1:]))
            values = [[sum(row[i:j]) / (j - i) for i, j in clusters] for row in w_rows.tolist()]
            blocks = [v_rows[:, :, i:j] for i, j in clusters]
            projectors = np.stack([b @ dagger(b) for b in blocks], axis=1)  # (row, outcome, d, d)
            projectors.flags.writeable = False
            for row, vals, projs in zip(rows, values, projectors):
                found[index[row]] = ProjectiveDecomposition(tuple(zip(vals, projs)))
    return found


def projective_decomposition(obs: Observable) -> ProjectiveDecomposition:
    """Eigenvalues and eigenprojectors of an observable:
    ``projective_decompositions`` as a batch of one. Nothing is memoized;
    the sweeps and ``qc_vur`` build their operators once per setup."""
    return projective_decompositions([obs])[0]


def _check_fits(dim: int, dims: tuple, subsystem: int) -> None:
    """An operator of dimension ``dim`` must act on an existing subsystem
    of that dimension."""
    if not 0 <= subsystem < len(dims):
        raise SubsystemError(f"subsystem {subsystem} out of range for dims {dims}")
    if dim != dims[subsystem]:
        raise DimensionError(f"operator dim {dim} != subsystem dim {dims[subsystem]}")


def _moments(rho: DensityOperator, obs: Observable) -> tuple[float, float]:
    """<O> and <O^2>, from the reduced state on the observable's subsystem."""
    _check_fits(obs.matrix.shape[0], rho.dims, obs.subsystem)
    reduced = partial_trace(rho.matrix, rho.dims, obs.subsystem)
    return (trace_product(reduced, obs.matrix).real,
            trace_product(reduced, obs.matrix @ obs.matrix).real)


def expectation(rho: DensityOperator, obs: Observable) -> float:
    """<O> on the observable's subsystem."""
    return _moments(rho, obs)[0]


def variance(rho: DensityOperator, obs: Observable) -> float:
    """<Q^2> - <Q>^2."""
    m1, m2 = _moments(rho, obs)
    return m2 - m1 * m1


def chain_plan(dims, q: Observable, controls, decompositions) -> ChainPlan:
    """Table operators of a chained decomposition of q over an ordered
    list of controls on distinct subsystems of a state with subsystem
    dimensions ``dims``; ``decompositions`` holds the controls'
    projective decompositions, in the same order."""
    dims = tuple(int(d) for d in dims)
    controls = list(controls)
    if not controls:
        raise SubsystemError("at least one control is required")
    subsystems = [o.subsystem for o in controls]
    if len(set(subsystems)) != len(subsystems) or q.subsystem in subsystems:
        raise SubsystemError("control subsystems must be distinct and differ from q's")
    span = set(range(len(dims)))
    if q.subsystem not in span or not set(subsystems) <= span:
        raise SubsystemError(f"subsystems out of range for dims {dims}")

    for o in [q] + controls:
        _check_fits(o.matrix.shape[0], dims, o.subsystem)
    # one factor stack (k, d, d) per subsystem: I, q, q^2 on q's, each
    # control's projectors on its own, I elsewhere
    factors = [np.eye(d, dtype=complex)[None] for d in dims]
    factors[q.subsystem] = np.array([np.eye(dims[q.subsystem]), q.matrix, q.matrix @ q.matrix])
    for o, dec in zip(controls, decompositions):
        factors[o.subsystem] = dec.projectors
    # Their batched Kronecker product has axes (stack per subsystem, row
    # per subsystem, column per subsystem); identity entries are exact,
    # so the padding changes no digit.
    n = len(dims)
    ops = 1.0
    for s, f in enumerate(factors):
        shape = [1] * (3 * n)
        shape[s], shape[n + s], shape[2 * n + s] = f.shape
        ops = ops * f.reshape(shape)
    # Projectors on disjoint subsystems commute with each other and with
    # q, so the moments reduce to plain traces against the state.
    order = [q.subsystem] + subsystems
    dim = math.prod(dims)
    ops = np.moveaxis(ops, order, range(len(order))).reshape((-1, dim, dim))
    ops.flags.writeable = False
    return ChainPlan(ops=ops, shape=tuple(len(factors[s]) for s in subsystems))


def chain_terms(rho: np.ndarray, plan: ChainPlan):
    """Residual, first term and nested terms (N, len(shape) - 1) of the
    chained decomposition of every state in a stack (N, D, D).

    The outcome table is traced in one go and reshaped to
    (N, n1, n2, ...); null branches (probability below P_MIN) are
    skipped, and summing a prefix's trailing axes gives its marginals.
    """
    n_ctrl = len(plan.shape)
    table = trace_products(rho, plan.ops).real.reshape((len(rho), 3) + plan.shape)
    live = table[:, 0] >= P_MIN
    p, s1, s2 = np.where(live, np.moveaxis(table, 1, 0), 0.0)
    outcome_axes = tuple(range(1, n_ctrl + 1))

    def explained(p_sum, s1_sum):
        # p * E[Q|prefix]^2 = s1^2 / p per prefix; zero for a null prefix
        ok = p_sum >= P_MIN
        return np.where(ok, s1_sum * s1_sum / np.where(ok, p_sum, 1.0), 0.0)

    full = explained(p, s1)
    residual = np.sum(s2 - full, axis=outcome_axes)
    # prefix sums S_n = sum over outcome prefixes c_1..c_n of p * E[Q|prefix]^2
    levels = []
    for n in range(1, n_ctrl):
        trailing = tuple(range(n + 1, n_ctrl + 1))
        level = explained(p.sum(axis=trailing), s1.sum(axis=trailing))
        levels.append(level.sum(axis=tuple(range(1, n + 1))))
    levels.append(full.sum(axis=outcome_axes))
    total_mean = s1.sum(axis=outcome_axes)
    first_term = levels[0] - total_mean * total_mean
    return residual, first_term, np.diff(np.stack(levels, axis=1), axis=1)


def sequential_decomposition(
    rho: DensityOperator, q: Observable, controls
) -> SequentialDecomposition:
    """Chained conditional-variance decomposition over an ordered list of
    controls on distinct subsystems.

    All outcome tuples are enumerated in lexicographic order of ascending
    eigenvalues per control; branch probabilities, first and second
    conditional moments of q come from the joint table, and prefix
    marginals give the nested terms. The components sum to the
    unconditional variance of q.
    """
    controls = list(controls)
    plan = chain_plan(rho.dims, q, controls, projective_decompositions(controls))
    residual, first_term, nested = chain_terms(rho.matrix[None], plan)
    return SequentialDecomposition(residual=float(residual[0]),
                                   first_term=float(first_term[0]),
                                   nested=tuple(nested[0].tolist()))


def conditional_stats(rho: DensityOperator, q: Observable, o: Observable) -> ConditionalStats:
    """Mean conditional variance and variance of conditional means of q,
    after measuring o on a different subsystem: the single-control case of
    the chained decomposition.

    The two components always recombine to the unconditional variance
    (law of total variance). Null branches are skipped.
    """
    seq = sequential_decomposition(rho, q, [o])
    return ConditionalStats(e_of_v=seq.residual, v_of_e=seq.first_term)
