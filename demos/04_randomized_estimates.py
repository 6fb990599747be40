"""Matrix-free estimation of the conditioning functionals.

The exact quantities need the full spectrum of the preconditioned
matrix.  Stochastic Lanczos quadrature gets both trace(M) and
trace(ln M) from a handful of matrix-vector products, which is enough
to assemble every derived quantity:

  ln K_hat = n ln(tr_hat / n) - Gamma
  alpha_hat = (tr_hat(P^-1 A) - r)/(n - r)
  D_hat = -Gamma + (n - r) ln(alpha_hat)

This demo compares them with the exact values on an instance small
enough to solve densely, across a few probe budgets.
"""

from bld_kaporin import ProbeConfig, estimator_study, make_sparse_network

rows, _ = estimator_study(
    make_sparse_network(400, seed=21),
    factor="ic0",
    rank=40,
    probes=[ProbeConfig(m=m, n_v=n_v, seed=99) for m, n_v in ((10, 5), (20, 10), (40, 30))],
)

print(f"{'m':>4} {'n_v':>4} {'steps':>6} {'ln K exact':>12} {'ln K hat':>12} "
      f"{'alpha exact':>12} {'alpha hat':>12} {'D exact':>10} {'D hat':>10} {'sign':>5}")
for row in rows:
    print(f"{row['m']:4d} {row['n_v']:4d} {row['steps']:6.1f} {row['ln_k_exact']:12.6f} {row['ln_k_hat']:12.6f} "
          f"{row['alpha_exact']:12.6f} {row['alpha_hat']:12.6f} "
          f"{row['d_ld_exact']:10.6f} {row['d_ld_hat']:10.6f} {row['sign_ln_k_gap']:5d}")

# steps is the mean Lanczos depth per probe: the depth rule stops a probe
# once its log-det quadrature has settled, so a larger m need not buy
# more steps.  The sign column records whether the surrogate over- or under-shot
# ln K on this run.  No inequality between them holds in general: the
# estimator is unbiased in its trace ingredients, not one-sided.
