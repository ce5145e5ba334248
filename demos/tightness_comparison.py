"""Variance-based versus entropic assisted bounds: which is tighter?

Both bounds come with a tightness ratio (left side over bound, >= 1,
closer to 1 is better). This script evaluates both over a coupling map
at fixed temperature, writes the CSV, and counts who wins where.
Run:  python demos/tightness_comparison.py
"""
import csv

from qurel import figure_preset, sweep_csv

grid, setup = figure_preset("fig7b")
print(f"evaluating a {len(grid.d_values())} x {len(grid.j_values())} (d, j) map at t = 1 ...")
sweep_csv(grid, setup, "tightness_map.csv")
print(f"wrote tightness_map.csv  (columns u = variance-based, u_eur = entropic)")

# read the map back; an empty field is an undefined ratio
with open("tightness_map.csv", newline="") as fh:
    rows = [{k: float(v) if v else None for k, v in row.items()} for row in csv.DictReader(fh)]

defined = [r for r in rows if r["u"] is not None and r["u_eur"] is not None]
wins = sum(1 for r in defined if r["u"] < r["u_eur"])
print(f"\nvariance-based bound tighter on {wins} / {len(defined)} points "
      f"({wins / len(defined):.1%})")

print("\na few sample points (u vs u_eur):")
for r in rows[:: len(rows) // 8]:
    tag = "variance" if r["u"] < r["u_eur"] else "entropic"
    print(f"  d = {r['d']:4.2f}  j = {r['j']:5.2f}:  u = {r['u']:.4f}  "
          f"u_eur = {r['u_eur']:.4f}  -> {tag} wins")
