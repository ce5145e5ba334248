"""Shared test utilities: random objects and independent mini-oracles."""

import math

import numpy as np

from qurel.model import hamiltonian
from qurel.states import DensityOperator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_density(rng, dims):
    """Full-rank random state: normalized G G† with Gaussian G."""
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(dims))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_pauli_rotation_unitary(rng, n_qubits):
    """Unitary composed from random single- and two-qubit Pauli rotations."""
    paulis = [I2, SX, SY, SZ]
    dim = 2 ** n_qubits
    u = np.eye(dim, dtype=complex)
    for _ in range(6):
        factors = [paulis[rng.integers(0, 4)] for _ in range(n_qubits)]
        string = factors[0]
        for f in factors[1:]:
            string = np.kron(string, f)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        # exp(i a P) = cos(a) I + i sin(a) P since P^2 = I
        u = (math.cos(angle) * np.eye(dim) + 1j * math.sin(angle) * string) @ u
    return u


def embedded(op, dims, subsystem):
    """An operator on one subsystem, padded with identities onto the full
    space by np.kron."""
    left = int(np.prod(dims[:subsystem]))
    right = int(np.prod(dims[subsystem + 1:]))
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def unchecked_density(matrix, dims):
    """Bypass DensityOperator validation; for oracle construction only.
    The stored decomposition is np.linalg.eigh's, unchecked."""
    obj = object.__new__(DensityOperator)
    matrix = np.asarray(matrix, dtype=complex)
    w, v = np.linalg.eigh(matrix)
    for name, value in (("matrix", matrix), ("dims", tuple(dims)),
                        ("eigenvalues", w), ("eigenvectors", v)):
        object.__setattr__(obj, name, value)
    return obj


def bell_state():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityOperator(np.outer(v, v.conj()), (2, 2))


def ghz_state(n_qubits=3):
    dim = 2 ** n_qubits
    v = np.zeros(dim, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2)
    return DensityOperator(np.outer(v, v.conj()), (2,) * n_qubits)


def pure_state(vector, dims):
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()), tuple(dims))


def thermal_elements(d, j, t):
    """Verbatim analytic thermal-state elements (unnormalized) and Z.

    Safe only at moderate beta; the tests use it on grids with t >= 0.2.
    Returns (r11, r22, r23, z) with r44 = r11, r33 = r22.
    """
    beta = 1.0 / t
    delta = 2.0 * j * math.sqrt(1.0 + d * d)
    theta = math.atan(d)
    r11 = math.exp(-beta * j / 2.0)
    r22 = math.exp(beta * (j - delta) / 2.0) * (1.0 + math.exp(beta * delta)) / 2.0
    r23 = (np.exp(1j * theta) * math.exp(beta * (j - delta) / 2.0)
           * (1.0 - math.exp(beta * delta)) / 2.0)
    z = 2.0 * math.exp(-beta * j / 2.0) * (1.0 + math.exp(beta * j) * math.cosh(beta * delta / 2.0))
    return r11, r22, r23, z


def thermal_matrix(d, j, t):
    """Normalized analytic thermal matrix (moderate beta only)."""
    r11, r22, r23, z = thermal_elements(d, j, t)
    return np.array([[r11, 0, 0, 0],
                     [0, r22, r23, 0],
                     [0, np.conj(r23), r22, 0],
                     [0, 0, 0, r11]], dtype=complex) / z


def gibbs_reference(p):
    """exp(-H/T) / Z and max |E| by np.linalg.eigh of ``hamiltonian(p)``,
    the matrix route that the closed forms replace, with the weights taken
    relative to the lowest eigenvalue; (None, None) where H holds a
    non-finite entry. At extreme inputs the state may be non-finite too."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = hamiltonian(p)
        if not np.isfinite(h).all():
            return None, None
        w, v = np.linalg.eigh(h)
        weights = np.exp(-(w - w[0]) / p.t)
        rho = (v * (weights / weights.sum())) @ v.conj().T
    return rho, float(np.max(np.abs(w)))


def l_tra_oracle(rho, a, b, o, theta):
    """The weighted additive bound by its mean-shifted matrix formula:
    |Tr[rho O† (Ac + e^{i theta} Bc)]|^2 / Tr[rho O† O]
    - Tr[rho (e^{i theta} Ac Bc + e^{-i theta} Bc Ac)], with
    Ac = A - <A> I and Bc = B - <B> I, on plain matrices."""
    eye = np.eye(len(rho))
    ac = a - np.trace(rho @ a).real * eye
    bc = b - np.trace(rho @ b).real * eye
    phase = np.exp(1j * theta)
    od = o.conj().T
    num = abs(np.trace(rho @ od @ (ac + phase * bc))) ** 2
    cross = np.trace(rho @ (phase * ac @ bc + np.conj(phase) * bc @ ac)).real
    return num / np.trace(rho @ od @ o).real - cross


def concurrence_oracle(matrix):
    """Two-qubit concurrence from the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)^T, with sqrt(rho) built from eigh and its
    eigenvalues clamped at 0."""
    w, v = np.linalg.eigh(matrix)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    s = np.linalg.svd(root @ np.kron(SY, SY) @ root.T, compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def count_solver_calls(monkeypatch) -> dict:
    """From here on, counts the calls to numpy.linalg.eigh, eigvalsh and
    svd (the LAPACK drivers qurel uses), by name."""
    calls = {}
    for name in ("eigh", "eigvalsh", "svd"):
        calls[name] = 0

        def counting(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


#: the model cross-check grid used throughout the tests
GRID = [(d, j, t)
        for d in (0.0, 0.5, 1.0, 2.0)
        for j in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
        for t in (0.2, 0.5, 1.0, 2.0, 5.0)]


#: the denominator column of each tightness ratio
RATIO_DENOMINATORS = {"u": "w", "u_eur": "eur_rhs"}
#: the absolute agreement a numerics change must keep in every CSV value
CSV_GATE = 1e-12


def csv_gate(header, reference, rows) -> dict:
    """Per column of ``header``, the worst |new - old| and the worst share
    of its gate, as (delta, share), of CSV data rows against reference
    rows (lists of fields, row for row). A value's gate is CSV_GATE; a
    ratio x's is CSV_GATE (1 + |x|) / |denominator|, with x and its
    denominator read from the reference row. A field empty on one side
    only, or any other pair of fields that are not the same number, has
    delta and share inf. The rows pass the gate when every share is <= 1."""
    worst = {name: (0.0, 0.0) for name in header}
    for old, new in zip(reference, rows, strict=True):
        values = dict(zip(header, old))
        for name, a, b in zip(header, old, new, strict=True):
            if a == b:
                continue
            delta = abs(float(b) - float(a)) if a and b else math.inf
            gate = CSV_GATE
            if name in RATIO_DENOMINATORS and a:
                gate *= (1.0 + abs(float(a))) / abs(float(values[RATIO_DENOMINATORS[name]]))
            if not delta <= math.inf:  # NaN on either side
                delta = math.inf
            top, share = worst[name]
            worst[name] = (max(top, delta), max(share, delta / gate))
    return worst
