import itertools

import numpy as np
import pytest

from qurel.errors import DimensionError, SubsystemError, ValidationError
from qurel.linalg import I2, SIGMA_X, SIGMA_Z
from qurel.measurements import (
    Observable,
    conditional_stats,
    expectation,
    projective_decomposition,
    projective_decompositions,
    sequential_decomposition,
    variance,
)
from qurel.model import ModelParams, thermal_state
from qurel.relations import MeasurementSetup, qc_vur
from qurel.states import DensityOperator

from helpers import (
    bell_state,
    embedded,
    ghz_state,
    pure_state,
    random_density,
    random_hermitian,
    thermal_elements,
)

# frozen at (d, j, t) = (1, 1, 1): <sx sx> and the conditional split for
# q = o = sigma_x, from the analytic matrix elements
CXX_REF = -0.5374175239189489
EOFV_REF = 0.7111824049848259
VOFE_REF = 0.2888175950151741


class TestProjectiveDecomposition:
    def test_sigma_z(self):
        dec = projective_decomposition(Observable(SIGMA_Z, 0))
        (w0, p0), (w1, p1) = dec.outcomes
        assert (w0, w1) == (-1.0, 1.0)
        assert np.allclose(p0, np.diag([0.0, 1.0]))
        assert np.allclose(p1, np.diag([1.0, 0.0]))

    def test_rank_one_spectral_formula(self):
        obs = Observable(SIGMA_X + SIGMA_Z, 0)
        dec = projective_decomposition(obs)
        root2 = np.sqrt(2.0)
        assert np.allclose([w for w, _ in dec.outcomes], [-root2, root2])
        for w, proj in dec.outcomes:
            expected = (np.eye(2) + np.sign(w) * (SIGMA_X + SIGMA_Z) / root2) / 2.0
            assert np.max(np.abs(proj - expected)) <= 1e-12

    def test_identity_merges_to_single_outcome(self):
        dec = projective_decomposition(Observable(np.eye(2, dtype=complex), 0))
        assert len(dec.outcomes) == 1
        w, proj = dec.outcomes[0]
        assert np.isclose(w, 1.0)
        assert np.allclose(proj, np.eye(2))

    def test_projectors_are_complete_and_orthogonal(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            dec = projective_decomposition(Observable(random_hermitian(rng, 3), 0))
            total = sum(p for _, p in dec.outcomes)
            assert np.max(np.abs(total - np.eye(3))) <= 1e-10
            for (wi, pi), (wj, pj) in itertools.combinations(dec.outcomes, 2):
                assert wi < wj
                assert np.max(np.abs(pi @ pj)) <= 1e-10
            for _, p in dec.outcomes:
                assert np.max(np.abs(p @ p - p)) <= 1e-10

    def test_batch_matches_single_and_eigh_oracle(self):
        """A mixed list in interleaved order, decomposed in one call, agrees
        outcome by outcome with each observable's own decomposition and
        with clusters formed by hand from np.linalg.eigh."""
        rng = np.random.default_rng(72)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = np.linalg.qr(g)[0]
        doubled = u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T  # a two-fold cluster
        matrices = [random_hermitian(rng, 2), np.eye(2), random_hermitian(rng, 3),
                    random_hermitian(rng, 2), SIGMA_Z, doubled, random_hermitian(rng, 2)]
        observables = [Observable(m, 0) for m in matrices]
        batch = projective_decompositions(observables)
        assert [len(dec.outcomes) for dec in batch] == [2, 1, 3, 2, 2, 2, 2]
        for obs, dec in zip(observables, batch):
            single = projective_decomposition(obs)
            vals, vecs = np.linalg.eigh(obs.matrix)
            clusters = [[0]]
            for i in range(1, len(vals)):
                if vals[i] - vals[i - 1] < 1e-6:
                    clusters[-1].append(i)
                else:
                    clusters.append([i])
            assert len(dec.outcomes) == len(single.outcomes) == len(clusters)
            for (w, p), (w1, p1), cols in zip(dec.outcomes, single.outcomes, clusters):
                oracle = sum(np.outer(vecs[:, i], vecs[:, i].conj()) for i in cols)
                assert abs(w - w1) <= 1e-12 and abs(w - np.mean(vals[cols])) <= 1e-12
                assert np.max(np.abs(p - p1)) <= 1e-12
                assert np.max(np.abs(p - oracle)) <= 1e-12
        assert [w for w, _ in batch[4].outcomes] == [-1.0, 1.0]
        assert [round(np.trace(p).real) for _, p in batch[5].outcomes] == [2, 1]


class TestVariance:
    def test_eigenstate_has_zero_variance(self):
        rho = pure_state([1, 0], (2,))
        assert abs(variance(rho, Observable(SIGMA_Z, 0))) <= 1e-12

    def test_maximally_mixed_single_qubit(self):
        rho = DensityOperator(I2 / 2.0, (2,))
        assert np.isclose(variance(rho, Observable(SIGMA_X, 0)), 1.0)

    def test_thermal_marginal_variance_is_one(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        assert abs(variance(rho, Observable(SIGMA_Z, 0)) - 1.0) <= 1e-12
        assert abs(expectation(rho, Observable(SIGMA_Z, 0))) <= 1e-12


class TestConditionalStats:
    def test_product_state_conditioning_is_uninformative(self):
        rng = np.random.default_rng(73)
        rho_a = random_density(rng, (2,))
        rho_c = random_density(rng, (2,))
        joint = DensityOperator(np.kron(rho_a.matrix, rho_c.matrix), (2, 2))
        q = Observable(random_hermitian(rng, 2), 0)
        o = Observable(random_hermitian(rng, 2), 1)
        stats = conditional_stats(joint, q, o)
        assert abs(stats.e_of_v - variance(joint, q)) <= 1e-12
        assert abs(stats.v_of_e) <= 1e-12

    def test_bell_state_outcome_determines_everything(self):
        stats = conditional_stats(bell_state(), Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 1))
        assert abs(stats.e_of_v) <= 1e-12
        assert np.isclose(stats.v_of_e, 1.0)

    def test_thermal_reference_split(self):
        """For q = o = sigma_x the explained variance is exactly the
        squared correlator <sx sx> = 2 Re(rho23)/Z."""
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        stats = conditional_stats(rho, Observable(SIGMA_X, 0), Observable(SIGMA_X, 1))
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        cxx = 2.0 * r23.real / z
        assert abs(cxx - CXX_REF) <= 1e-12
        assert abs(stats.v_of_e - cxx ** 2) <= 1e-10
        assert abs(stats.e_of_v - EOFV_REF) <= 1e-12
        assert abs(stats.v_of_e - VOFE_REF) <= 1e-12

    def test_thermal_z_correlator(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        stats = conditional_stats(rho, Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 1))
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        czz = (2.0 * r11 - 2.0 * r22) / z
        assert abs(stats.v_of_e - czz ** 2) <= 1e-10

    def test_rejects_same_subsystem(self):
        rho = bell_state()
        with pytest.raises(SubsystemError):
            conditional_stats(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))

    def test_null_branches_are_skipped(self):
        """Conditioning |00> on sz of the partner: the -1 branch never
        fires and must silently drop out of the weighted sums."""
        rho = pure_state(np.kron([1, 0], [1, 0]), (2, 2))
        stats = conditional_stats(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 1))
        assert abs(stats.e_of_v - 1.0) <= 1e-12  # <sx> variance on |0>
        assert abs(stats.v_of_e) <= 1e-12

    def test_law_of_total_variance_random(self):
        rng = np.random.default_rng(74)
        for i in range(200):
            dims = (2, 2) if i % 2 == 0 else (2, 2, 2)
            rho = random_density(rng, dims)
            a, c = rng.permutation(len(dims))[:2]
            q = Observable(random_hermitian(rng, 2), int(a))
            o = Observable(random_hermitian(rng, 2), int(c))
            stats = conditional_stats(rho, q, o)
            assert abs(stats.e_of_v + stats.v_of_e - variance(rho, q)) <= 1e-10
            assert stats.e_of_v >= -1e-10 and stats.v_of_e >= -1e-10


def chain_oracle(rho, q, controls):
    """Brute-force expansion of the chained decomposition.

    Builds the classical joint distribution over all outcome tuples with
    explicit conditional states (repeated sandwiches of np.kron-embedded
    projectors, no shared code with the implementation's table) and
    evaluates every term of the chain rule directly from its definition.
    """
    dims = rho.dims
    decs = [projective_decomposition(o) for o in controls]
    q_full = embedded(q.matrix, dims, q.subsystem)

    branches = []  # (outcome tuple, probability, E[Q|c], E[Q^2|c])
    for combo in itertools.product(*[range(len(d.outcomes)) for d in decs]):
        proj = np.eye(int(np.prod(dims)), dtype=complex)
        for o, dec, k in zip(controls, decs, combo):
            proj = proj @ embedded(dec.outcomes[k][1], dims, o.subsystem)
        sub = proj @ rho.matrix @ proj.conj().T
        p = np.trace(sub).real
        if p < 1e-12:
            continue
        cond = sub / p
        e1 = np.trace(cond @ q_full).real
        e2 = np.trace(cond @ q_full @ q_full).real
        branches.append((combo, p, e1, e2))

    def cond_mean(prefix):
        num = sum(p * e1 for c, p, e1, _ in branches if c[:len(prefix)] == prefix)
        den = sum(p for c, p, _, _ in branches if c[:len(prefix)] == prefix)
        return num / den, den

    residual = sum(p * (e2 - e1 ** 2) for _, p, e1, e2 in branches)

    first_outcomes = sorted({c[0] for c, *_ in branches})
    means = [cond_mean((k,)) for k in first_outcomes]
    grand = sum(p * m for m, p in means)
    first_term = sum(p * m ** 2 for m, p in means) - grand ** 2

    nested = []
    n = len(controls)
    for level in range(2, n + 1):
        prefixes = sorted({c[:level - 1] for c, *_ in branches})
        term = 0.0
        for pre in prefixes:
            m_pre, p_pre = cond_mean(pre)
            exts = sorted({c[:level] for c, *_ in branches if c[:level - 1] == pre})
            inner = 0.0
            for ext in exts:
                m_ext, p_ext = cond_mean(ext)
                inner += (p_ext / p_pre) * (m_ext - m_pre) ** 2
            term += p_pre * inner
        nested.append(term)
    return residual, first_term, nested


class TestSequentialDecomposition:
    def test_ghz_first_control_explains_all(self):
        rho = ghz_state(3)
        q = Observable(SIGMA_Z, 0)
        controls = [Observable(SIGMA_Z, 1), Observable(SIGMA_Z, 2)]
        seq = sequential_decomposition(rho, q, controls)
        assert abs(seq.residual) <= 1e-12
        assert np.isclose(seq.first_term, 1.0)
        assert len(seq.nested) == 1 and abs(seq.nested[0]) <= 1e-12

    def test_product_state_nothing_explained(self):
        rng = np.random.default_rng(75)
        parts = [random_density(rng, (2,)).matrix for _ in range(3)]
        joint = DensityOperator(np.kron(np.kron(parts[0], parts[1]), parts[2]), (2, 2, 2))
        q = Observable(random_hermitian(rng, 2), 0)
        controls = [Observable(random_hermitian(rng, 2), 1),
                    Observable(random_hermitian(rng, 2), 2)]
        seq = sequential_decomposition(joint, q, controls)
        assert abs(seq.residual - variance(joint, q)) <= 1e-10
        assert abs(seq.first_term) <= 1e-10
        assert all(abs(x) <= 1e-10 for x in seq.nested)

    def test_single_control_matches_conditional_stats(self):
        rng = np.random.default_rng(76)
        rho = random_density(rng, (2, 2))
        q = Observable(random_hermitian(rng, 2), 0)
        o = Observable(random_hermitian(rng, 2), 1)
        seq = sequential_decomposition(rho, q, [o])
        stats = conditional_stats(rho, q, o)
        residual, first, nested = chain_oracle(rho, q, [o])
        assert seq.nested == () and nested == []
        assert (stats.e_of_v, stats.v_of_e) == (seq.residual, seq.first_term)
        assert abs(seq.residual - residual) <= 1e-12
        assert abs(seq.first_term - first) <= 1e-12

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(77)
        # (dims, measured subsystem, control subsystems in chain order):
        # qubit chains measured on 0, then layouts whose outcome axes must
        # be moved into chain order (q off subsystem 0, controls out of
        # subsystem order, idle subsystems, unequal dimensions)
        layouts = [((2,) * (n + 1), 0, tuple(range(1, n + 1))) for n in (2, 3)] * 15
        layouts += [((2, 2, 2, 2), 2, (3, 0)),
                    ((2, 2, 2), 1, (2, 0)),
                    ((3, 2, 2), 2, (0, 1)),
                    ((2, 3, 2, 2), 3, (1, 2, 0))] * 3
        for dims, measured, subsystems in layouts:
            rho = random_density(rng, dims)
            q = Observable(random_hermitian(rng, dims[measured]), measured)
            controls = [Observable(random_hermitian(rng, dims[s]), s) for s in subsystems]
            seq = sequential_decomposition(rho, q, controls)
            residual, first, nested = chain_oracle(rho, q, controls)
            assert abs(seq.residual - residual) <= 1e-10
            assert abs(seq.first_term - first) <= 1e-10
            assert np.allclose(seq.nested, nested, atol=1e-10)

    def test_chain_identity_random(self):
        rng = np.random.default_rng(78)
        for i in range(100):
            n_ctrl = 2 if i % 2 == 0 else 3
            dims = (2,) * (n_ctrl + 1)
            rho = random_density(rng, dims)
            q = Observable(random_hermitian(rng, 2), 0)
            controls = [Observable(random_hermitian(rng, 2), s) for s in range(1, n_ctrl + 1)]
            seq = sequential_decomposition(rho, q, controls)
            total = seq.residual + seq.first_term + sum(seq.nested)
            assert abs(total - variance(rho, q)) <= 1e-9
            assert seq.residual >= -1e-10 and seq.first_term >= -1e-10
            assert all(x >= -1e-10 for x in seq.nested)

    def test_degenerate_control_is_allowed(self):
        rho = ghz_state(3)
        q = Observable(SIGMA_Z, 0)
        coarse = Observable(np.eye(2, dtype=complex), 1)  # learns nothing
        seq = sequential_decomposition(rho, q, [coarse, Observable(SIGMA_Z, 2)])
        assert abs(seq.first_term) <= 1e-12
        assert np.isclose(seq.nested[0], 1.0)
        assert abs(seq.residual) <= 1e-12

    def test_null_branches_keep_chain_identity(self):
        """A basis product state fires a single outcome tuple; every other
        branch is null and the chain must still telescope."""
        rho = pure_state(np.kron(np.kron([1, 1], [1, 0]), [0, 1]), (2, 2, 2))
        q = Observable(SIGMA_X, 0)
        controls = [Observable(SIGMA_Z, 1), Observable(SIGMA_Z, 2)]
        seq = sequential_decomposition(rho, q, controls)
        assert abs(seq.residual - variance(rho, q)) <= 1e-12
        assert abs(seq.first_term) <= 1e-12
        assert all(abs(x) <= 1e-12 for x in seq.nested)

    def test_rejects_duplicate_subsystems(self):
        rho = ghz_state(3)
        q = Observable(SIGMA_Z, 0)
        with pytest.raises(SubsystemError):
            sequential_decomposition(rho, q, [Observable(SIGMA_Z, 1), Observable(SIGMA_X, 1)])
        with pytest.raises(SubsystemError):
            sequential_decomposition(rho, q, [Observable(SIGMA_Z, 0)])
        with pytest.raises(SubsystemError):
            sequential_decomposition(rho, q, [])


def test_observable_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]), 0)


class TestObservableMustFitState:
    """An observable must act on an existing subsystem of its own
    dimension, whichever evaluator receives it."""

    WRONG_DIM = (Observable(np.diag([1.0, 0.0, -1.0]), 0), DimensionError,
                 r"operator dim 3 != subsystem dim 2")
    NO_SUBSYSTEM = (Observable(SIGMA_Z, 2), SubsystemError, r"out of range for dims \(2, 2\)")

    @pytest.mark.parametrize("obs, error, message", [WRONG_DIM, NO_SUBSYSTEM])
    def test_moments(self, obs, error, message):
        for fn in (variance, expectation):
            with pytest.raises(error, match=message):
                fn(bell_state(), obs)

    @pytest.mark.parametrize("obs, error, message", [WRONG_DIM, NO_SUBSYSTEM])
    def test_sequential_decomposition(self, obs, error, message):
        with pytest.raises(error, match=message):
            sequential_decomposition(bell_state(), obs, [Observable(SIGMA_X, 1)])
        with pytest.raises(error, match=message):
            sequential_decomposition(bell_state(), Observable(SIGMA_X, 1), [obs])

    @pytest.mark.parametrize("obs, error, message", [WRONG_DIM, NO_SUBSYSTEM])
    def test_qc_vur(self, obs, error, message):
        # as the measured observable of the second pair, then as a control
        other = Observable(SIGMA_X, obs.subsystem)
        measured_bad = MeasurementSetup(
            pairs=((other, (Observable(SIGMA_X, 1),)), (obs, (Observable(SIGMA_Z, 1),))),
            ltra_operator=SIGMA_X, theta=0.5)
        control_bad = MeasurementSetup(
            pairs=((Observable(SIGMA_X, 1), (obs,)), (Observable(SIGMA_Z, 1), (obs,))),
            ltra_operator=SIGMA_X, theta=0.5)
        for setup in (measured_bad, control_bad):
            with pytest.raises(error, match=message):
                qc_vur(bell_state(), setup)
