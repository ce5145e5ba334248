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
(``projective_decompositions``): qubit observables in closed form
(``linalg.spectral_2x2``), with no solver call, and each larger one in
its own eigensolver call (``linalg.eigh``); nothing is memoized here. The
table's operators are built once per setup and control layout
(``chain_plan``), stacked over the pairs that share it, and traced
against a stack of states in one einsum (``chain_table``). ``qc_vur``
reads two totals per pair (``chain_totals``); ``chain_terms`` splits the
chain into its terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, SubsystemError, ValidationError
from .linalg import (
    I2,
    as_square,
    eigh,
    is_hermitian,
    partial_trace,
    spectral_2x2,
    trace_product,
    trace_products,
)
from .states import DensityOperator

#: branches below this probability are skipped (their conditional state
#: is undefined); far below any branch weight arising in the sweeps
P_MIN = 1e-12
#: eigenvalues closer than this are merged into one outcome
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator tagged with the subsystem it acts on; equality and
    hashing are by identity."""

    matrix: np.ndarray
    subsystem: int

    def __post_init__(self):
        m = as_square(self.matrix).copy()
        if not is_hermitian(m):
            raise ValidationError("observable is not Hermitian to 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "subsystem", int(self.subsystem))


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Spectral outcomes of an observable: (eigenvalue, projector) pairs,
    eigenvalues increasing, and the same projectors as one read-only stack
    (outcome, d, d); equality and hashing are by identity. The increase is
    strict but for a qubit whose gap, though at least DEGENERACY_TOL, is
    below the rounding of its mean: its two eigenvalues may then round
    to one float, while its projectors stay distinct."""

    outcomes: tuple[tuple[float, np.ndarray], ...]
    projectors: np.ndarray = field(repr=False)


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
    """The operators of the chained decompositions of one or more
    (measured, controls) pairs that share a control layout, built once.

    For every pair (leading axis) and every outcome tuple, in lexicographic
    order of ascending eigenvalues per control, ``ops`` holds the joint
    projector P, then q P, then q^2 P: their traces against a state are the
    tuple's probability and its first and second moments of q. Each
    operator is the Kronecker product of one factor per subsystem: I, q or
    q^2 on q's, one projector of each control on its own, I elsewhere.
    ``shape`` is the number of outcomes of each control, in chain order.
    """

    ops: np.ndarray  # (pairs, 3 * prod(shape), D, D)
    shape: tuple[int, ...]


def projective_decompositions(observables) -> list[ProjectiveDecomposition]:
    """Eigenvalues and eigenprojectors of every observable in a list, in
    input order.

    Eigenspaces whose eigenvalues differ by less than DEGENERACY_TOL are
    merged into a single outcome, so degenerate (coarse) observables are
    legitimate controls. Qubit observables take their spectra and
    projectors in closed form (``spectral_2x2``), as one stack: a gap 2r
    below DEGENERACY_TOL leaves one outcome, the mean with projector I.
    Each larger observable is decomposed on its own (``eigh``).
    """
    observables = list(observables)
    found = [None] * len(observables)
    qubits = [i for i, o in enumerate(observables) if o.matrix.shape[0] == 2]
    if qubits:
        means, radii, projectors = spectral_2x2(np.array([observables[i].matrix for i in qubits]))
        projectors.flags.writeable = False
        for i, mean, radius, projs in zip(qubits, means.tolist(), radii.tolist(), projectors):
            found[i] = (ProjectiveDecomposition(((mean, I2),), I2[None])
                        if 2.0 * radius < DEGENERACY_TOL else
                        ProjectiveDecomposition(((mean - radius, projs[0]),
                                                 (mean + radius, projs[1])), projs))
    for i, o in enumerate(observables):
        if o.matrix.shape[0] == 2:
            continue
        # Observable has checked Hermiticity; each cluster becomes one
        # projector, so eigenvector phases and the order within it do not matter
        w, v = eigh(o.matrix)
        starts = np.flatnonzero(np.append(True, np.diff(w) >= DEGENERACY_TOL))
        # each cluster's mean eigenvalue, and every eigenvector's rank-one
        # projector summed over its cluster
        values = (np.add.reduceat(w, starts) / np.diff(starts, append=len(w))).tolist()
        vecs = v.T  # (eigenvector, d)
        projectors = np.add.reduceat(vecs[:, :, None] * vecs[:, None, :].conj(), starts)
        projectors.flags.writeable = False
        found[i] = ProjectiveDecomposition(tuple(zip(values, projectors)), projectors)
    return found


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


def variance(rho: DensityOperator, obs: Observable) -> float:
    """<Q^2> - <Q>^2."""
    m1, m2 = _moments(rho, obs)
    return m2 - m1 * m1


def chain_plan(dims, pairs, decompositions) -> ChainPlan:
    """Table operators of the chained decompositions of (q, controls)
    pairs on a state with subsystem dimensions ``dims``; ``decompositions``
    holds each pair's controls' projective decompositions. The pairs share
    a control layout, as ``vur_plan`` groups them: q's subsystem, the
    distinct control subsystems in chain order and their outcome counts."""
    dims = tuple(int(d) for d in dims)
    order = [pairs[0][0].subsystem] + [o.subsystem for o in pairs[0][1]]
    if len(order) == 1:
        raise SubsystemError("at least one control is required")
    if len(set(order)) != len(order):
        raise SubsystemError("control subsystems must be distinct and differ from q's")
    if not set(order) <= set(range(len(dims))):
        raise SubsystemError(f"subsystems out of range for dims {dims}")
    for q, controls in pairs:
        for o in (q, *controls):
            _check_fits(o.matrix.shape[0], dims, o.subsystem)
    # one factor stack (pairs, k, d, d) per subsystem: I, q, q^2 on q's,
    # each control's projectors on its own, I elsewhere
    factors = [_identity(d) for d in dims]
    qs = np.array([q.matrix for q, _ in pairs])
    moments = np.empty((len(qs), 3) + qs.shape[1:], dtype=complex)
    moments[:, 0] = _identity(qs.shape[-1])
    moments[:, 1] = qs
    np.matmul(qs, qs, out=moments[:, 2])
    factors[order[0]] = moments
    for k, s in enumerate(order[1:]):
        factors[s] = np.array([decs[k].projectors for decs in decompositions])
    # Each factor stack is prepended to the block built so far, so the
    # stack axes stay in subsystem order and the innermost loop runs over
    # the block's columns; identity entries are exact, so the padding
    # changes no digit.
    ops = factors[-1]
    for f in factors[-2::-1]:
        ops = f[:, :, None, :, None, :, None] * ops[:, None, :, None, :, None, :]
        n, kf, k, df, d = ops.shape[:5]
        ops = ops.reshape((n, kf * k, df * d, df * d))
    # Projectors on disjoint subsystems commute with each other and with
    # q, so the moments reduce to plain traces against the state.
    if order != sorted(order):
        dim = ops.shape[-1]
        ops = ops.reshape((len(ops),) + tuple(len(f[0]) for f in factors) + (dim, dim))
        ops = np.moveaxis(ops, [1 + s for s in order], range(1, len(order) + 1))
        ops = ops.reshape((len(ops), -1, dim, dim))
    ops.flags.writeable = False
    return ChainPlan(ops=ops, shape=tuple(len(dec.outcomes) for dec in decompositions[0]))


@functools.lru_cache(maxsize=16)
def _identity(d: int) -> np.ndarray:
    """The read-only identity factor stack (1, 1, d, d) of ``chain_plan``."""
    eye = np.eye(d, dtype=complex)[None, None]
    eye.flags.writeable = False
    return eye


def chain_table(rho: np.ndarray, plan: ChainPlan):
    """Branch probabilities p and first and second moments s1, s2 of q
    (N, pairs, *shape) of every pair of a plan and state of a stack
    (N, D, D); null branches (probability below P_MIN) read zero."""
    dim = plan.ops.shape[-1]
    table = trace_products(rho, plan.ops.reshape((-1, dim, dim))).real
    table = table.reshape((len(rho), len(plan.ops), 3) + plan.shape)
    moved = table.transpose((2, 0, 1) + tuple(range(3, table.ndim)))
    return np.where(table[:, :, 0] >= P_MIN, moved, 0.0)


def _explained(p_sum, s1_sum):
    # p * E[Q|prefix]^2 = s1^2 / p per prefix; zero for a null prefix
    ok = p_sum >= P_MIN
    return np.where(ok, s1_sum * s1_sum / np.where(ok, p_sum, 1.0), 0.0)


def chain_totals(p, s1, s2):
    """Residual sum(s2 - s1^2 / p) and explained total
    sum(s1^2 / p) - <q>^2 (N, pairs) of a table from ``chain_table``: the
    first and nested terms of the chain telescope to the latter."""
    axes = tuple(range(2, p.ndim))
    full = _explained(p, s1)
    mean = s1.sum(axis=axes)
    return (s2 - full).sum(axis=axes), full.sum(axis=axes) - mean * mean


def chain_terms(p, s1):
    """First term and nested terms (N, pairs, len(shape) - 1) of the
    chain, from a table of ``chain_table``: summing a prefix's trailing
    outcome axes gives its marginals, and the differences of the prefix
    sums S_n = sum over prefixes c_1..c_n of p * E[Q|prefix]^2 the terms."""
    n_ctrl = p.ndim - 2
    levels = []
    for n in range(1, n_ctrl + 1):
        trailing = tuple(range(n + 2, n_ctrl + 2))
        level = _explained(p.sum(axis=trailing), s1.sum(axis=trailing))
        levels.append(level.sum(axis=tuple(range(2, n + 2))))
    mean = s1.sum(axis=tuple(range(2, n_ctrl + 2)))
    return levels[0] - mean * mean, np.diff(np.stack(levels, axis=-1), axis=-1)


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
    plan = chain_plan(rho.dims, [(q, controls)], [projective_decompositions(controls)])
    p, s1, s2 = chain_table(rho.matrix[None], plan)
    residual, _ = chain_totals(p, s1, s2)
    first_term, nested = chain_terms(p, s1)
    return SequentialDecomposition(residual=float(residual[0, 0]),
                                   first_term=float(first_term[0, 0]),
                                   nested=tuple(nested[0, 0].tolist()))


def conditional_stats(rho: DensityOperator, q: Observable, o: Observable) -> ConditionalStats:
    """Mean conditional variance and variance of conditional means of q,
    after measuring o on a different subsystem: the single-control case of
    the chained decomposition.

    The two components always recombine to the unconditional variance
    (law of total variance). Null branches are skipped.
    """
    seq = sequential_decomposition(rho, q, [o])
    return ConditionalStats(e_of_v=seq.residual, v_of_e=seq.first_term)
