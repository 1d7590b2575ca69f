"""Maximizing directions over the space of caps, and the winding argument.

For a simple (anisotropic) measure, the maximizing direction of each
rearranged measure defines a field over the (r, theta) cap parameters.
Near the full disk the field is constant; near the boundary it makes four
half turns.  The mismatch forces a degeneracy in between: a cap where the
rearranged measure is multiple.  The scan locates one numerically.
"""

import numpy as np

from capfold import Cap, ConformalDomain, rearrange
from capfold.directions import canonicalize, scan_caps, winding_diagnostic
from capfold.measures import direction_form, pullback_measure

canon, _ = canonicalize(pullback_measure(ConformalDomain([1.0, 0.3]), 96, 192))

print("direction field at the two ends of the cap family:")
for r in (-0.95, 0.95):
    angles = []
    for th in np.linspace(0, np.pi, 5):
        nu, _ = rearrange(canon, Cap(r, np.exp(1j * th)))
        s = direction_form(nu).max_direction
        # round before folding, so that an axis at about 0 degrees prints 0.0
        angles.append(round(float(np.degrees(np.arctan2(s[1], s[0]))), 1) % 180)
    joined = ", ".join(f"{a:6.1f}" for a in angles)
    print(f"  r = {r:+.2f}: direction angles (deg) = [{joined}]")
print("  (constant near the full disk; twice the cap angle near the boundary)")

print("\nwinding numbers (half turns along a theta loop):")
for r in (-0.95, 0.95):
    w = winding_diagnostic(canon, r, n_theta=16)
    print(f"  r = {r:+.2f}: winding = {w}")

print("\nscanning for a multiple cap...")
result = scan_caps(canon)
cap = result.cap
print(f"  found cap r = {cap.r:.6f}, theta = {float(np.angle(cap.p)):.6f}")
print(f"  eigenvalue gap of the rearranged measure: {result.gap:.2e}")
