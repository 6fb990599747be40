"""Run every identity and inequality battery on random instances.

The batteries are the rows of harness.BATTERIES, each a name, a
tolerance and a function returning one trial's violation.  Each trial
draws random SPD pairs and a factored sparse instance that the batteries
share.  Failures would be reported as data, not exceptions.
"""

import json

from bld_kaporin import verify_theorems

report = verify_theorems(trials=100, n_range=(10, 60), seed=7)

width = max(len(name) for name in report["results"])
for name, res in report["results"].items():
    status = "pass" if res["pass"] else "FAIL"
    print(f"{status}  {name:<{width}}  worst = {res['worst']:.3e}  tol = {res['tol']:.1e}")

print(f"\nviolations: {report['violations'] or 'none'}")
print("\nfull report as JSON:")
print(json.dumps(report["spec_echo"], indent=2))
