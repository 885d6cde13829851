"""Co-simulation of both observer variants: arbitrary-diameter convergence
with the inter-sample predictor, the hard sampling threshold without it,
and the certified error envelope under measurement noise.

Run:  python3 demos/04_predictor_vs_hold.py
Writes CSV series into demos/output/.
"""

import math
import os

import numpy as np

from parobs.analysis import check_ios_bound, run_example_31

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)


def dump(name, times, *cols):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        for row in zip(times, *cols):
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")
    print(f"  wrote {path}")


print("== predictor with a large sampling diameter (h = 1.0) ==")
rep = run_example_31(p=1.0, h=1.0, omega=0.05, variant="predictor",
                     horizon=12.0, nodes=201)
tr = rep.trajectory
print(f"  Omega = {rep.report.omega:.4f} (feasible: {rep.report.feasible})")
print(f"  ||e||: {tr.error_l2[0]:.3f} -> {tr.error_l2[-1]:.2e}; "
      f"fitted rate {rep.fit.rate:.3f} vs certified {rep.kappa:.3f}")
dump("predictor_h1.csv", tr.times, tr.error_l2)

print("\n== hold variant around its uniform-sampling threshold ==")
h_crit = 4.0 / math.pi**2
for fac in (0.9, 1.1):
    rep = run_example_31(p=1.0, h=fac * h_crit, omega=0.0, variant="zoh",
                         nodes=201)
    tr = rep.trajectory
    print(f"  h = {fac:.1f} x threshold: verdict = {rep.verdict:12s} "
          f"(||e(T)||/||e(0)|| = {tr.error_l2[-1] / tr.error_l2[0]:.2e})")
    dump(f"hold_{int(100 * fac)}pct.csv", tr.times, tr.error_l2)

print("\n== certified envelope under sinusoidal measurement noise ==")
rep = run_example_31(p=1.0, h=0.5, omega=0.2, variant="predictor",
                     noise={"kind": "sinusoid", "amplitude": 0.01, "omega": 2.0},
                     horizon=30.0, nodes=201)
tr = rep.trajectory
ios = rep.ios
print(f"  Omega = {rep.report.omega:.4f}; violations beyond 2% slack: {ios.violations}")
print(f"  steady-state error vs envelope at T: "
      f"{tr.error_l2[-1]:.5f} <= {ios.rhs[-1]:.5f}")
dump("noise_envelope.csv", tr.times, tr.error_l2, ios.rhs)
