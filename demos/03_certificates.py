"""Observer synthesis and small-gain certificates for the two worked
designs: gain values, feasibility regions, maximal sampling diameters.

Run:  python3 demos/03_certificates.py
"""

import math

import numpy as np

from parobs import max_diameter, select_Q, small_gain_predictor, small_gain_zoh
from parobs.analysis import example31_design, example32_design
from parobs.errors import InfeasibleAtZero
from parobs.observer_design import certificate_summary

d31 = example31_design(p=1.0)
print(certificate_summary(d31))

print("\n== small-gain values over the sampling diameter (kappa = 0) ==")
print("      h     predictor        hold")
for h in (0.05, 0.1, 0.1468, 0.2, 0.5, 2.0):
    op = small_gain_predictor(d31, h, 0.0).omega
    oz = small_gain_zoh(d31, h, 0.0).omega
    print(f"  {h:6.4f}  {op:10.6f}  {oz:10.6f}{'   <-- infeasible' if oz >= 1 else ''}")

print("\n== maximal feasible diameters ==")
hz = max_diameter(d31, 0.0, "zoh")
print(f"  hold variant, kappa=0:      h* = {hz:.10f}  (= (sqrt6 - 1)/pi^2)")
print(f"  predictor,   kappa=0:       h* = {max_diameter(d31, 0.0, 'predictor')}")
kappa = 0.3 * d31.mu
print(f"  predictor,   kappa=0.3 mu:  h* = {max_diameter(d31, kappa, 'predictor'):.6f}")

print("\n== decay-rate / diameter trade-off (predictor) ==")
print("   omega      kappa       h*")
for w in (0.1, 0.3, 0.5, 0.7, 0.9):
    k = w * d31.mu
    try:
        print(f"   {w:4.1f}   {k:9.5f}  {max_diameter(d31, k, 'predictor'):9.5f}")
    except InfeasibleAtZero as exc:  # Omega exceeds 1 even as h -> 0
        print(f"   {w:4.1f}   {k:9.5f}  infeasible ({exc})")

print("\n== tail-weight selection ==")
q, om = select_Q(d31, [2.0, 4.0, 8.0], h=0.3, kappa=0.0, variant="predictor")
print(f"  best Q on the candidate grid: {q} (Omega = {om:.6f})")

print("\n== boundary-measurement design ==")
d32 = example32_design(p=1.0, q=0.0)
print(certificate_summary(d32))
kappa32 = 0.3 * d32.mu
print(f"\n  h* at kappa = 0.3 mu: {max_diameter(d32, kappa32, 'predictor'):.6f}")
print(f"  Omega at h*/2:        "
      f"{small_gain_predictor(d32, 0.5 * max_diameter(d32, kappa32, 'predictor'), kappa32).omega:.6f}")
