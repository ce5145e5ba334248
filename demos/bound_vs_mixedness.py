"""The assisted lower bound tracks mixedness, not entanglement.

Sweeps temperature at fixed couplings, writes the dataset to CSV, and
then demonstrates the stronger statement: at matched mixedness the bound
does not care about the coupling magnitude at all (only its sign).
Run:  python demos/bound_vs_mixedness.py
"""
import csv

from qurel import (
    ModelParams,
    SweepGrid,
    check_single_valued,
    closed_form_mixedness,
    match_mixedness,
    qc_vur,
    sweep_csv,
    thermal_state,
    xz_control_setup,
)

setup = xz_control_setup(theta=0.5)

grid = SweepGrid(d_range=(1.0, 1.0, 1), j_range=(1.0, 1.0, 1), t_range=(0.05, 5.0, 120))
sweep_csv(grid, setup, "bound_vs_mixedness.csv")
# read the dataset back; an empty field is an undefined ratio
with open("bound_vs_mixedness.csv", newline="") as fh:
    rows = [{k: float(v) if v else None for k, v in row.items()} for row in csv.DictReader(fh)]
print(f"wrote bound_vs_mixedness.csv ({len(rows)} rows: t, gamma, C, w, u, ...)")

print("\nw rises with gamma while concurrence falls:")
for r in rows[::24]:
    print(f"  t = {r['t']:5.2f}  gamma = {r['gamma']:.4f}  C = {r['concurrence']:.4f}  "
          f"w = {r['w']:.4f}  u = {r['u']:.4f}")

# --- matched-mixedness comparison ----------------------------------------
print("\nsame mixedness, different couplings, identical bound:")
target = closed_form_mixedness(ModelParams(1.0, 1.0, 1.0))
for j in (0.5, 1.0, 2.0, 4.0):
    t = match_mixedness(1.0, j, target)
    w = qc_vur(thermal_state(ModelParams(1.0, j, t)), setup).w
    print(f"  j = {j:3.1f}: gamma matched at t = {t:.6f}, w = {w:.12f}")

res = check_single_valued(1.0, [0.5, 1.0, 2.0], setup)
print(f"\nspread across j in {{0.5, 1, 2}} over 20 matched targets: "
      f"w {res.w_spread:.2e}, u {res.u_spread:.2e}")

print("\n...but the coupling SIGN matters:")
t_neg = match_mixedness(1.0, -1.0, target)
w_pos = qc_vur(thermal_state(ModelParams(1.0, 1.0, 1.0)), setup).w
w_neg = qc_vur(thermal_state(ModelParams(1.0, -1.0, t_neg)), setup).w
print(f"  j = +1: w = {w_pos:.6f}    j = -1 at the same gamma: w = {w_neg:.6f}")
