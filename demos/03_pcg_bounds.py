"""Instrumented PCG against its convergence bounds.

Solves one system with a low-rank corrected ic0 preconditioner at the
optimal complement scaling and overlays, per iteration:

  * the residual in the P^-1 norm (what the superlinear bounds control),
  * (K^(1/k) - 1)^(k/2) from the Kaporin condition number,
  * (e^(D/k) - 1)^(k/2) from the divergence (identical here because the
    optimal scaling makes trace(P^-1 A) = n),
  * the A-norm error bound (3D/k)^(k/2) on its validity window.

Also compares the a-priori iteration estimates with what actually
happened at three tolerance levels.
"""

import os

from bld_kaporin import bound_overlay, make_sparse_network
from bld_kaporin.harness import emit

os.makedirs("out", exist_ok=True)

rows, summary = bound_overlay(make_sparse_network(300, seed=7), factor="ic0", rank=30)
emit(rows, summary, "out/pcg_bounds.csv")

print(f"n = {summary['n']}, rank = {summary['rank']}, alpha = {summary['alpha']:.6f}")
print(f"kappa2 = {summary['kappa2']:.4f}   ln K = {summary['ln_k']:.6f}   "
      f"D_LD = {summary['d_ld']:.6f}")
print(f"converged in {summary['iterations']} iterations; violations: {summary['violations']}\n")

print(f"{'k':>3} {'rel res (P^-1)':>15} {'kaporin bound':>15} {'divergence bound':>17}")
for row in rows:
    bk_ = "" if row["bound_kaporin"] is None else f"{row['bound_kaporin']:15.3e}"
    bd_ = "" if row["bound_divergence"] is None else f"{row['bound_divergence']:17.3e}"
    print(f"{row['k']:3d} {row['rel_res_pinv']:15.3e} {bk_:>15} {bd_:>17}")

print("\niteration estimates vs observed:")
for entry in summary["estimates"]:
    line = (f"  eps = {entry['eps']:<7g} observed = {entry['observed_iterations']}"
            f"  i(kappa) = {entry['i_kappa']}  i_K(sigma=2) = {entry['i_kaporin_sigma2']}")
    if "i_kaporin_recommended" in entry:
        line += f"  i_K(recommended) = {entry['i_kaporin_recommended']}"
    if "i_divergence" in entry:
        line += f"  i_K via divergence = {entry['i_divergence']}"
    print(line)
