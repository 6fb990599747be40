"""Does the complement scaling change what PCG actually computes?

Scaling the whole preconditioner by a constant provably leaves the PCG
iterates untouched.  The complement scaling alpha is a *partial*
scaling, and in floating point even nominally equivalent formulations
drift apart.  This experiment runs the same system at several alphas
and reports iteration counts and the distance of each final iterate
from the first run.  Purely observational: nothing is asserted.
"""

from bld_kaporin import alpha_sensitivity, make_sparse_network

rows, summary = alpha_sensitivity(make_sparse_network(250, seed=33), factor="ic0", rank=25)

print(f"n = {summary['n']}, rank = {summary['rank']}, alpha* = {summary['alpha_star']:.6f}\n")
print(f"{'alpha':>10} {'iterations':>11} {'final rel res':>15} {'gap vs first run':>18}")
for row in rows:
    print(f"{row['alpha']:10.4f} {row['iterations']:11d} "
          f"{row['rel_final_residual']:15.3e} {row['iterate_gap_vs_first']:18.3e}")
