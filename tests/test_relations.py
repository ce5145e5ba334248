import math

import numpy as np
import pytest

from qurel.errors import DegenerateOperator, DegeneracyError, DimensionError, SubsystemError, ValidationError
from qurel.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from qurel.measurements import Observable, variance
from qurel.model import ModelParams, T_MIN, thermal_state
from qurel.relations import (
    MeasurementSetup,
    eur_plan,
    l_tra,
    maximal_overlap_c,
    qc_vur,
    qm_eur,
    schrodinger_bound,
    xz_control_setup,
)
from qurel.states import DensityOperator

from helpers import bell_state, pure_state, random_density, random_hermitian, thermal_elements

# frozen reference values at (d, j, t) = (1, 1, 1) under the standard
# setup (q1 = o1 = sx, q2 = o2 = sz, o = sx + sz, theta = 0.5), derived
# from the analytic correlators cxx = 2 Re(rho23)/Z, czz = (2r11 - 2r22)/Z
CXX_REF = -0.5374175239189489
CZZ_REF = -0.7110209437141131
LHS_REF = 1.205631622584718
W_REF = 1.0832141844750907
U_REF = 1.1130131416890086
# entropic side at the same point, from eigenvalue entropies of the
# explicitly dephased matrices
H_RB_REF = 0.529327590978998
H_SB_REF = 0.5958767852136485
H_AB_REF = 0.006063249014958


class TestSchrodingerBound:
    def test_eigenstate_saturates_at_zero(self):
        rho = pure_state([1, 0], (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 0))
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_pauli_pair_on_basis_state_is_tight(self):
        """[sx, sy] = 2i sz gives |<[A,B]>|^2/4 = 1 on |0>, matching
        dA^2 dB^2 = 1 exactly."""
        rho = pure_state([1, 0], (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Y, 0))
        assert np.isclose(lhs, 1.0)
        assert np.isclose(rhs, 1.0)

    def test_maximally_mixed_bound_vanishes(self):
        rho = DensityOperator(I2 / 2.0, (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Y, 0))
        assert np.isclose(lhs, 1.0)
        assert abs(rhs) <= 1e-12

    def test_holds_on_random_states(self):
        rng = np.random.default_rng(81)
        for _ in range(500):
            rho = random_density(rng, (2,))
            a = Observable(random_hermitian(rng, 2), 0)
            b = Observable(random_hermitian(rng, 2), 0)
            lhs, rhs = schrodinger_bound(rho, a, b)
            assert lhs >= rhs - 1e-10


class TestMaximalOverlap:
    def test_mutually_unbiased_qubit_bases(self):
        c = maximal_overlap_c(Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(c, 0.5)
        assert np.isclose(np.log2(1.0 / c), 1.0)

    def test_identical_bases(self):
        c = maximal_overlap_c(Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(c, 1.0)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_rotated_basis_formula(self, phi):
        """Eigenvectors of cos(phi) sz + sin(phi) sx are the z basis
        rotated by phi/2, so c = max(cos^2, sin^2)(phi/2)."""
        s = Observable(math.cos(phi) * SIGMA_Z + math.sin(phi) * SIGMA_X, 0)
        c = maximal_overlap_c(Observable(SIGMA_Z, 0), s)
        expected = max(math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2)
        assert abs(c - expected) <= 1e-12

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(DegeneracyError):
            maximal_overlap_c(Observable(np.eye(2, dtype=complex), 0),
                              Observable(SIGMA_Z, 0))

    def test_rejects_subsystem_mismatch(self):
        with pytest.raises(SubsystemError):
            maximal_overlap_c(Observable(SIGMA_X, 0), Observable(SIGMA_Z, 1))

    def test_rejects_dimension_mismatch(self):
        qutrit = Observable(np.diag([1.0, 2.0, 3.0]), 0)
        with pytest.raises(DimensionError, match="dims 2 and 3 differ"):
            maximal_overlap_c(Observable(SIGMA_X, 0), qutrit)


class TestQmEur:
    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
        res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(res.h_rb, 1.0)
        assert np.isclose(res.h_sb, 1.0)
        assert np.isclose(res.h_ab, 1.0)
        assert np.isclose(res.rhs, 2.0)
        assert np.isclose(res.u_eur, 1.0)

    def test_bell_state_denominator_degenerates(self):
        res = qm_eur(bell_state(), Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(res.h_ab, -1.0)
        assert abs(res.rhs) <= 1e-9
        assert res.u_eur is None

    def test_thermal_reference_point(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert abs(res.h_rb - H_RB_REF) <= 1e-12
        assert abs(res.h_sb - H_SB_REF) <= 1e-12
        assert abs(res.h_ab - H_AB_REF) <= 1e-12
        assert res.rhs == res.overlap_bound + res.h_ab
        assert res.h_rb + res.h_sb >= res.rhs - 1e-9

    def test_oracle_dephased_matrices(self):
        """Entropies recomputed from explicitly constructed post-measurement
        matrices (no projector code shared): diagonal-sector surgery at a
        thermal point, then sum_k (P_k x I) rho (P_k x I) built with np.kron
        for seeded random states and observables and for cold thermal
        states (beta |J| = 1000)."""
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0)).matrix
        # measuring sz on the first qubit kills every coherence between the
        # upper and lower 2x2 blocks; here only rho23 dies
        rho_sb = rho.copy()
        rho_sb[1, 2] = rho_sb[2, 1] = 0.0
        # measuring sx: conjugate by Hadamard on qubit 0, dephase, undo
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        hh = np.kron(had, np.eye(2))
        rot = hh @ rho @ hh
        rot[:2, 2:] = 0.0
        rot[2:, :2] = 0.0
        rho_rb = hh @ rot @ hh

        def entropy(m):
            w = np.linalg.eigvalsh(m)
            w = w[w > 1e-14]
            return float(-(w * np.log2(w)).sum())

        h_b = 1.0  # thermal marginal is I/2
        res = qm_eur(thermal_state(ModelParams(1.0, 1.0, 1.0)),
                     Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert abs(res.h_sb - (entropy(rho_sb) - h_b)) <= 1e-10
        assert abs(res.h_rb - (entropy(rho_rb) - h_b)) <= 1e-10

        def dephased(m, obs):
            _, vecs = np.linalg.eigh(obs)
            out = np.zeros_like(m)
            for k in range(2):
                p_full = np.kron(np.outer(vecs[:, k], vecs[:, k].conj()), np.eye(2))
                out += p_full @ m @ p_full
            return out

        rng = np.random.default_rng(83)
        cases = [(random_density(rng, (2, 2)), random_hermitian(rng, 2),
                  random_hermitian(rng, 2)) for _ in range(50)]
        cases += [(thermal_state(ModelParams(d, j, T_MIN)), SIGMA_X, SIGMA_Z)
                  for d in (0.0, 0.5, 1.0, 3.0) for j in (-1.0, 1.0)]
        for state, r, s in cases:
            m = state.matrix
            h_b = entropy(np.einsum("abac->bc", m.reshape(2, 2, 2, 2)))
            res = qm_eur(state, Observable(r, 0), Observable(s, 0))
            assert abs(res.h_rb - (entropy(dephased(m, r)) - h_b)) <= 1e-10
            assert abs(res.h_sb - (entropy(dephased(m, s)) - h_b)) <= 1e-10
            assert abs(res.h_ab - (entropy(m) - h_b)) <= 1e-10

    def test_inequality_on_random_states(self):
        rng = np.random.default_rng(82)
        for _ in range(200):
            rho = random_density(rng, (2, 2))
            res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
            assert res.h_rb + res.h_sb >= res.rhs - 1e-9

    def test_rejects_wrong_subsystem(self):
        rho = bell_state()
        with pytest.raises(SubsystemError):
            qm_eur(rho, Observable(SIGMA_X, 1), Observable(SIGMA_Z, 1))

    def test_rejects_wrong_dims(self):
        rho = DensityOperator(np.eye(8) / 8.0, (2, 2, 2))
        with pytest.raises(DimensionError):
            qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))

    @pytest.mark.parametrize("qutrit_first", [False, True])
    def test_rejects_observable_of_wrong_dimension(self, qutrit_first):
        pair = [Observable(SIGMA_X, 0), Observable(np.diag([1.0, 2.0, 3.0]), 0)]
        if qutrit_first:
            pair.reverse()
        with pytest.raises(DimensionError, match="operator dim 3 != subsystem dim 2"):
            eur_plan((2, 2), *pair)
        with pytest.raises(DimensionError, match="operator dim 3 != subsystem dim 2"):
            qm_eur(bell_state(), *pair)


class TestLTra:
    def test_zero_variance_case(self):
        rho = pure_state([1, 0], (2,))
        a = b = Observable(SIGMA_Z, 0)
        bound = l_tra(rho, a, b, SIGMA_X + SIGMA_Z, 0.5)
        assert abs(bound) <= 1e-12

    def test_maximally_mixed_reference(self):
        """On I/2 with A = sx, B = sz, O = sx + sz the cross terms vanish
        and the bound is |1 + e^{i theta}|^2 / 2 = 1 + cos(theta)."""
        rho = DensityOperator(I2 / 2.0, (2,))
        a = Observable(SIGMA_X, 0)
        b = Observable(SIGMA_Z, 0)
        got = l_tra(rho, a, b, SIGMA_X + SIGMA_Z, 0.5)
        assert abs(got - (1.0 + math.cos(0.5))) <= 1e-12

    def test_opposite_phase_kills_bound(self):
        rho = DensityOperator(I2 / 2.0, (2,))
        a = Observable(SIGMA_X, 0)
        b = Observable(SIGMA_Z, 0)
        assert abs(l_tra(rho, a, b, SIGMA_X + SIGMA_Z, math.pi)) <= 1e-12

    def test_holds_on_random_inputs(self):
        rng = np.random.default_rng(83)
        for _ in range(500):
            rho = random_density(rng, (2,))
            a = Observable(random_hermitian(rng, 2), 0)
            b = Observable(random_hermitian(rng, 2), 0)
            o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            bound = l_tra(rho, a, b, o, theta)
            total = variance(rho, a) + variance(rho, b)
            assert total >= bound - 1e-9

    def test_degenerate_operator_rejected(self):
        rho = pure_state([1, 0], (2,))
        o = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilates the state support
        with pytest.raises(DegenerateOperator):
            l_tra(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0), o, 0.5)

    def test_dimension_mismatch_rejected(self):
        rho = pure_state([1, 0], (2,))
        with pytest.raises(DimensionError):
            l_tra(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0), np.eye(3), 0.5)
        with pytest.raises(DimensionError):
            l_tra(rho, Observable(np.eye(4, dtype=complex), 0),
                  Observable(SIGMA_Z, 0), SIGMA_X, 0.5)


class TestQcVur:
    def test_hot_limit(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1e6))
        res = qc_vur(rho, xz_control_setup())
        assert abs(res.lhs - 2.0) <= 1e-5
        assert abs(res.w - (1.0 + math.cos(0.5))) <= 1e-5
        assert abs(res.u - 2.0 / (1.0 + math.cos(0.5))) <= 1e-4

    def test_thermal_reference_point(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        res = qc_vur(rho, xz_control_setup())
        # oracle route: correlators from the analytic elements
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        cxx = 2.0 * r23.real / z
        czz = (2.0 * r11 - 2.0 * r22) / z
        assert abs(cxx - CXX_REF) <= 1e-12 and abs(czz - CZZ_REF) <= 1e-12
        assert abs(res.lhs - (2.0 - cxx ** 2 - czz ** 2)) <= 1e-10
        assert abs(res.w - (1.0 + math.cos(0.5) - cxx ** 2 - czz ** 2)) <= 1e-10
        assert abs(res.lhs - LHS_REF) <= 1e-12
        assert abs(res.w - W_REF) <= 1e-12
        assert abs(res.u - U_REF) <= 1e-12

    def test_cold_singlet_point(self):
        res = qc_vur(thermal_state(ModelParams(0.0, 1.0, T_MIN)), xz_control_setup())
        assert res.lhs <= 1e-5
        assert abs(res.w - (math.cos(0.5) - 1.0)) <= 1e-6
        assert res.u is not None and abs(res.u) <= 1e-4

    def test_result_arithmetic_is_exact(self):
        res = qc_vur(thermal_state(ModelParams(0.5, 1.0, 0.7)), xz_control_setup())
        assert res.w == res.l_tra - res.subtracted
        assert res.u == res.lhs / res.w

    def test_bridge_identity_random_multipartite(self):
        rng = np.random.default_rng(84)
        for i in range(60):
            n_ctrl = 1 + i % 3
            dims = (2,) * (n_ctrl + 1)
            rho = random_density(rng, dims)
            pairs = []
            for _ in range(2):
                q = Observable(random_hermitian(rng, 2), 0)
                controls = tuple(Observable(random_hermitian(rng, 2), s)
                                 for s in range(1, n_ctrl + 1))
                pairs.append((q, controls))
            o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            setup = MeasurementSetup(pairs=tuple(pairs), ltra_operator=o,
                                     theta=rng.uniform(0.0, 2.0 * math.pi))
            res = qc_vur(rho, setup)
            total = sum(variance(rho, q) for q, _ in pairs)
            assert abs(res.lhs + res.subtracted - total) <= 1e-9
            assert res.lhs >= res.w - 1e-9

    def test_tightness_at_least_one(self):
        rng = np.random.default_rng(85)
        setup = xz_control_setup()
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            res = qc_vur(rho, setup)
            if res.u is not None and res.w > 1e-6:
                assert res.u >= 1.0 - 1e-9


class TestMeasurementSetup:
    def test_requires_two_pairs(self):
        q = Observable(SIGMA_X, 0)
        c = Observable(SIGMA_X, 1)
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=((q, (c,)),), ltra_operator=SIGMA_X, theta=0.5)

    def test_requires_common_measured_subsystem(self):
        pairs = ((Observable(SIGMA_X, 0), (Observable(SIGMA_X, 1),)),
                 (Observable(SIGMA_Z, 1), (Observable(SIGMA_Z, 0),)))
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=pairs, ltra_operator=SIGMA_X, theta=0.5)

    def test_requires_theta_in_range(self):
        q = Observable(SIGMA_X, 0)
        c = Observable(SIGMA_X, 1)
        pairs = ((q, (c,)), (Observable(SIGMA_Z, 0), (Observable(SIGMA_Z, 1),)))
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=pairs, ltra_operator=SIGMA_X, theta=7.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_ltra_operator(self, entry):
        pairs = xz_control_setup().pairs
        op = SIGMA_X + SIGMA_Z
        op[0, 1] = entry
        with pytest.raises(ValidationError, match="ltra_operator"):
            MeasurementSetup(pairs=pairs, ltra_operator=op, theta=0.5)

    def test_standard_setup_shape(self):
        setup = xz_control_setup(theta=0.5)
        assert setup.theta == 0.5
        assert len(setup.pairs) == 2
        assert setup.measured_subsystem == 0
        assert np.array_equal(setup.ltra_operator, SIGMA_X + SIGMA_Z)


def test_scale_invariance_of_bound_quantities():
    setup = xz_control_setup()
    for k in (0.5, 2.0, 10.0):
        base = qc_vur(thermal_state(ModelParams(1.0, 1.0, 0.8)), setup)
        scaled = qc_vur(thermal_state(ModelParams(1.0, k * 1.0, k * 0.8)), setup)
        assert abs(base.lhs - scaled.lhs) <= 1e-10
        assert abs(base.w - scaled.w) <= 1e-10
        assert abs(base.u - scaled.u) <= 1e-10
