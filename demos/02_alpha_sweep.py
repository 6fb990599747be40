"""Sweep the complement scaling alpha and tabulate the three functionals.

P_alpha = Q(alpha(I - VV') + V(I_r + D)V')Q' rescales everything the
rank-r correction did not touch.  Three curves as a function of alpha:

  * kappa2 of the preconditioned matrix: flat on an interval [l, L]
    given by the extreme unselected eigenvalues of I + E,
  * the log-det divergence D_LD(A, P_alpha): strictly convex with a
    unique minimum at alpha* = mean of the unselected 1 + theta,
  * ln K(P_alpha^-1 A): same minimizer, same minimum value.

Writes the table to out/alpha_sweep.csv for external plotting and the
summary to out/alpha_sweep.csv.json.
"""

import os

from bld_kaporin import make_sparse_network, sweep_alpha
from bld_kaporin.harness import emit

os.makedirs("out", exist_ok=True)

# A network-structured sparse SPD matrix of the same order as the
# classic 494-bus power system; zero-fill incomplete Cholesky, rank 49.
A = make_sparse_network(494, seed=494)

rows, summary = sweep_alpha(A, factor="ic0", rank=49)
emit(rows, summary, "out/alpha_sweep.csv")

lo, hi = summary["interval"]
print(f"n = {summary['n']}, rank = {summary['rank']}, ic0 shift = {summary['factor_shift']}")
print(f"alpha* = {summary['alpha_star']:.6f}  (inside [{lo:.6f}, {hi:.6f}]: "
      f"{summary['alpha_star_in_interval']})")
print(f"D_LD at alpha* = {summary['d_ld_at_alpha_star']:.6f}")

# ## A slice of the table
#
# kappa2 sits at its floor everywhere inside [l, L]; the divergence and
# ln K agree at alpha* and split apart away from it (divergence above).

print(f"\n{'alpha':>10} {'kappa2':>12} {'d_ld':>12} {'ln_k':>12}")
for row in rows[:: max(1, len(rows) // 12)]:
    print(f"{row['alpha']:10.4f} {row['kappa2']:12.6f} {row['d_ld']:12.6f} {row['ln_k']:12.6f}")
print(f"\nfull table: out/alpha_sweep.csv ({len(rows)} rows)")
