"""Per-column agreement of two CSV files written by ``qurel sweep``, under
the numerics gate that the reference-CSV tests apply (``helpers.csv_gate``).

    python tests/csv_gate.py OLD.csv NEW.csv

Prints each column's worst |new - old| and worst share of its gate, and
exits with 1 when a share exceeds 1 or the headers or row counts differ.
"""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpers import csv_gate  # noqa: E402


def read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (read(path) for path in argv)
    if old[0] != new[0] or len(old) != len(new):
        print("headers or row counts differ", file=sys.stderr)
        return 1
    worst = csv_gate(old[0], old[1:], new[1:])
    print(f"{'column':<12} {'worst |delta|':>14} {'share of gate':>14}")
    for name, (delta, share) in worst.items():
        print(f"{name:<12} {delta:>14.3g} {share:>14.3g}")
    return 0 if all(share <= 1.0 for _, share in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
