#!/usr/bin/env python3
"""Randomization of digital nets: nested scrambling and digital shifts.

Shows that both schemes keep the net structure intact while making each
point uniform on the unit cube, and that scrambling is pointwise, so a
scrambled prefix equals scrambling the prefix.
"""

import numpy as np

from qmcrisk import NetParams, digital_shift, is_net, owen_scramble, sobol_points

base = sobol_points(256, 2)

print("=== nested uniform scrambling preserves the net property ===")
for seed in range(5):
    out = owen_scramble(base, seed)
    res = is_net(out, NetParams(t=0, m=8, d=2))
    print(f"  seed {seed}: (0,8,2)-net -> {'pass' if res.ok else 'fail'}")

print("\n=== the origin moves, marginals stay centered ===")
for seed in (1, 2, 3):
    out = owen_scramble(base, seed)
    x0, y0 = out.points[0]
    mx, my = out.points.mean(axis=0)
    print(f"  seed {seed}: origin -> ({x0:.4f}, {y0:.4f}), column means ({mx:.4f}, {my:.4f})")

print("\n=== scrambling is pointwise: prefixes agree ===")
long = owen_scramble(sobol_points(1024, 2), 42).points
short = owen_scramble(sobol_points(256, 2), 42).points
print(f"  scramble(1024)[:256] == scramble(256): {np.array_equal(long[:256], short)}")

print("\n=== digital shift: one XOR word per dimension ===")
shifted = digital_shift(base, 7)
res = is_net(shifted, NetParams(t=0, m=8, d=2))
print(f"  shifted set is still a (0,8,2)-net -> {'pass' if res.ok else 'fail'}")
restored = digital_shift(shifted, 7)
print(f"  applying the same seed twice restores the input: {np.array_equal(restored.points, base.points)}")

print("\n=== uniformity of one scrambled point across seeds ===")
vals = np.array(
    [owen_scramble(sobol_points(16, 2), s).points[0, 0] for s in range(512)]
)
counts, _ = np.histogram(vals, bins=8, range=(0.0, 1.0))
print(f"  512 seeds, 8 bins: counts = {counts.tolist()} (expected 64 each)")
