"""Folding a measure into a cap and spreading it back over the disk.

A cap (r, p) is one side of a hyperbolic geodesic.  Folding reflects the
outside mass in; rearrangement transports the folded measure back to the
full disk through a balanced conformal chain.  As the cap shrinks to a
boundary point p the rearranged measure converges to the reflection of the
original, which the distance ladder below makes visible.
"""

import numpy as np

from capfold import (
    Cap, ConformalDomain, measure_distance, rearrange, reflection_renormalizer,
)
from capfold.directions import canonicalize
from capfold.measures import pullback_measure
from capfold.moebius import reflection_disk

domain = ConformalDomain([1.0, 0.3])
canon, _ = canonicalize(pullback_measure(domain, 96, 192))
print(f"domain z + 0.3 z^2: area = {domain.area:.6f}")

cap = Cap(0.5, 1.0)
nu, trace = rearrange(canon, cap)
print(f"\nrearranged at cap (r=0.5, p=1):")
print(f"  folded-measure balancing point   xi  = {trace.xi_a:.6f}")
print(f"  image cap parameter              r_b = {trace.b.r:+.6f}")
print(f"  post-map balancing point         eta = {trace.eta_a:.6f}")
print(f"  reflected-surrogate closed form zeta = {reflection_renormalizer(cap):.6f}")
print(f"  mass preserved: {nu.total_mass:.12f}")

print("\nflip-flop ladder (distance to the reflected measure):")
for p in (1.0 + 0j, 1j):
    target = canon.with_points(reflection_disk(p, canon.points))
    row = []
    for r in (0.9, 0.95, 0.99, 0.995):
        nu, _ = rearrange(canon, Cap(r, p))
        row.append(measure_distance(nu, target))
    pretty = "  ->  ".join(f"{d:.5f}" for d in row)
    print(f"  p = {p}:  {pretty}")
print("strictly decreasing toward zero, as the flip-flop limit demands")
