"""Variance-based versus entropic assisted bounds: which is tighter?

Both bounds come with a tightness ratio (left side over bound, >= 1,
closer to 1 is better). This script evaluates both over a coupling map
at fixed temperature, writes the CSV, and counts who wins where.
Run:  python demos/tightness_comparison.py
"""
from qurel import figure_preset, run_sweep, sweep_csv

grid, setup, _ = figure_preset("fig7b")
print(f"evaluating a {len(grid.d_values())} x {len(grid.j_values())} (d, j) map at t = 1 ...")
# the CSV is written by a second evaluation of the map (about 0.2 s)
records = run_sweep(grid, setup)
sweep_csv(grid, setup, "tightness_map.csv")
print(f"wrote tightness_map.csv  (columns u = variance-based, u_eur = entropic)")

defined = [r for r in records if r.u is not None and r.u_eur is not None]
wins = sum(1 for r in defined if r.u < r.u_eur)
print(f"\nvariance-based bound tighter on {wins} / {len(defined)} points "
      f"({wins / len(defined):.1%})")

print("\na few sample points (u vs u_eur):")
for rec in records[:: len(records) // 8]:
    tag = "variance" if rec.u < rec.u_eur else "entropic"
    print(f"  d = {rec.d:4.2f}  j = {rec.j:5.2f}:  u = {rec.u:.4f}  "
          f"u_eur = {rec.u_eur:.4f}  -> {tag} wins")
