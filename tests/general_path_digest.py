"""A sha256 over the general path's outputs on seeded cases, to show that a
change to its kernels leaves every output bit-identical.

    python tests/general_path_digest.py [CASES] [SEED]

Draws CASES (default 3000) arbitrary 2-4 qubit states with 1-3 controls
and fresh observables, as the benchmark's random_states workload draws
them, plus a few fixed extras: a degenerate qubit control, a qutrit
control with a merged eigenvalue and a qutrit-measured setup. Hashes the
``repr`` of ``qc_vur``, ``qm_eur`` and ``concurrence_two_qubit`` on each
(or of the error a case raises) and prints the digest. The digest depends
on the numpy and BLAS build, so compare two source trees on one machine.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qurel.errors import QurelError  # noqa: E402
from qurel.measurements import Observable  # noqa: E402
from qurel.relations import MeasurementSetup, qc_vur, qm_eur  # noqa: E402
from qurel.states import DensityOperator, concurrence_two_qubit  # noqa: E402


def hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def density(rng, dims) -> DensityOperator:
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, tuple(dims))


def outputs(rho: DensityOperator, setup: MeasurementSetup) -> str:
    """repr of every output of one case; an error counts as an output."""
    parts = []
    try:
        parts.append(repr(qc_vur(rho, setup)))
    except QurelError as exc:
        parts.append(repr(exc))
    if rho.dims[:2] == (2, 2):
        rho_01 = rho if len(rho.dims) == 2 else rho.reduced((0, 1))
        r, s = setup.pairs[0][0], setup.pairs[1][0]
        for f in (lambda: qm_eur(rho_01, r, s), lambda: concurrence_two_qubit(rho_01)):
            try:
                parts.append(repr(f()))
            except QurelError as exc:
                parts.append(repr(exc))
    return "\n".join(parts)


def random_case(rng):
    """One case drawn as the random_states workload draws it."""
    n_ctrl = 1 + int(rng.integers(3))
    rho = density(rng, (2,) * (n_ctrl + 1))
    pairs = tuple((Observable(hermitian(rng, 2), 0),
                   tuple(Observable(hermitian(rng, 2), s) for s in range(1, n_ctrl + 1)))
                  for _ in range(2))
    o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    setup = MeasurementSetup(pairs=pairs, ltra_operator=o, theta=rng.uniform(0.0, 2.0 * np.pi))
    return rho, setup


def extra_cases(rng):
    """A degenerate qubit control, a qutrit control with a merged
    eigenvalue and a qutrit-measured setup."""
    flat = Observable(0.3 * np.eye(2), 1)
    pairs = ((Observable(hermitian(rng, 2), 0), (flat, Observable(hermitian(rng, 2), 2))),
             (Observable(hermitian(rng, 2), 0), (Observable(hermitian(rng, 2), 1),)))
    yield density(rng, (2, 2, 2)), MeasurementSetup(pairs, hermitian(rng, 2), 0.7)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    merged = Observable(u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T, 1)
    pairs = tuple((Observable(hermitian(rng, 2), 0), (merged,)) for _ in range(2))
    yield density(rng, (2, 3)), MeasurementSetup(pairs, hermitian(rng, 2), 1.3)
    pairs = tuple((Observable(hermitian(rng, 3), 0), (Observable(hermitian(rng, 2), 1),))
                  for _ in range(2))
    o = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    yield density(rng, (3, 2)), MeasurementSetup(pairs, o, 2.1)


def main(argv) -> int:
    cases = int(argv[0]) if argv else 3000
    seed = int(argv[1]) if len(argv) > 1 else 27
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(cases):
        digest.update(outputs(*random_case(rng)).encode())
    for case in extra_cases(rng):
        digest.update(outputs(*case).encode())
    print(f"{cases} random cases + 3 extras, seed {seed}: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
