"""A sha256 over mixedness matching's outputs on seeded cases, to show that a
change to the match or to its gamma kernel leaves every matched temperature
and the bound evaluated there bit-identical.

    python tests/matching_digest.py [CASES] [SEED]

Draws CASES (default 3000) matches as the benchmark's match_gamma workload
draws them: a reference point (d, j_ref, t_ref) whose closed-form mixedness
is the target, matched by MATCHES_PER_REF couplings of j_ref's sign. Then
adds fixed edges: the matches that ``TestMatchMixedness.PINNED`` pins, the
overflowing couplings on and off their cold plateaus (as floats and as
numpy scalars), and two targets whose residues multiply to 0. Hashes the
``repr`` of each matched t and of ``qc_vur(thermal_state(...))`` there
under the workload's setup (or the error either raises) and prints the
digest. The digest depends on the numpy and BLAS build, so compare two
source trees on one machine.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qurel.errors import QurelError  # noqa: E402
from qurel.model import ModelParams, closed_form_mixedness, thermal_state  # noqa: E402
from qurel.relations import qc_vur, xz_control_setup  # noqa: E402
from qurel.sweep import match_mixedness  # noqa: E402

#: couplings matched against each reference point, as in match_gamma
MATCHES_PER_REF = 4

#: (d, j, target) of the pinned matches in tests/test_sweep.py
PINNED = [
    (1.0, 2.0, 0.3), (1.0, 1.0, 0.33479470938479916), (0.5, -1.5, 0.42), (1.0, -1.0, 0.5),
    (2.0, 0.5, 0.0), (0.0, -1.0, 2.0 / 3.0), (2.0, 0.5, 3.5318013206062414e-14),
    (1.0, 1.0, 0.7499), (1.0, -2.0, 0.7499), (1.0, 1.0, 0.5321431614828891),
    (0.0, -1.0, 0.5), (1.0, 1.0, 0.7499999965998086), (0.1, 0.01, 1.1574441119271892e-08),
    (1.0, 1.0, 0.7499999999), (0.1, 0.01, 3e-08),
]

#: |j| height / t overflows on the scan: each (d, j) with a target off its
#: cold plateau and one on it, whose state at T_MIN may overflow in turn;
#: then targets below the product-underflow threshold
EDGES = [
    (1.0, 1e307, 0.3), (1.0, 1e307, 0.0), (1e308, 1.0, 0.3), (1e308, 1.0, 0.0),
    (0.0, -1e307, 0.3), (0.0, -1e307, 2.0 / 3.0), (1.0, 1e306, 0.3), (0.0, -1e306, 0.6),
    (1.0, 1e308, 0.3), (0.0, -1e308, 0.6), (1.0, 1.0, 1e-170), (1.0, 1.0, 1e-300),
]


def error(exc: QurelError) -> str:
    """An error as an output: its type and message, less the scan range
    that an unreached target's RangeError appends. That range is a printed
    summary of gammas, not a result, so how it is printed does not move the
    digest."""
    return f"{type(exc).__name__}: {str(exc).split('; scan reached')[0]}"


def outputs(d, j, target: float, setup) -> str:
    """repr of the matched t and of the bound there; an error counts as an
    output."""
    try:
        t = match_mixedness(d, j, target)
    except QurelError as exc:
        return error(exc)
    try:
        return f"{t!r}\n{qc_vur(thermal_state(ModelParams(d, j, t)), setup)!r}"
    except QurelError as exc:
        return f"{t!r}\n{error(exc)}"


def random_cases(rng, cases: int):
    """(d, j, target) of CASES matches, drawn as match_gamma draws them."""
    drawn = 0
    while drawn < cases:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        d = rng.uniform(0.0, 3.0)
        j_ref = sign * rng.uniform(0.5, 2.0)
        t_ref = abs(j_ref) * 10.0 ** rng.uniform(-1.0, 1.0)
        target = closed_form_mixedness(ModelParams(d, j_ref, t_ref))
        for _ in range(min(MATCHES_PER_REF, cases - drawn)):
            yield d, sign * rng.uniform(0.5, 2.0), target
            drawn += 1


def main(argv) -> int:
    cases = int(argv[0]) if argv else 3000
    seed = int(argv[1]) if len(argv) > 1 else 31
    setup = xz_control_setup(theta=0.5)
    digest = hashlib.sha256()
    for case in random_cases(np.random.default_rng(seed), cases):
        digest.update(outputs(*case, setup).encode())
    extras = PINNED + EDGES + [(np.float64(d), np.float64(j), target) for d, j, target in EDGES]
    for case in extras:
        digest.update(outputs(*case, setup).encode())
    print(f"{cases} random matches + {len(extras)} edges, seed {seed}: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
