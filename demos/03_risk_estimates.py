#!/usr/bin/env python3
"""Quantile and expected-shortfall estimation on the two bundled models.

The exponential calibration model has closed-form truth, so sampler
accuracy at a fixed budget is directly visible; the activity network has
no closed form and is estimated from its simulation output.
"""

from qmcrisk import (
    ExpModel,
    SampleBatch,
    SanModel,
    empirical_cdf,
    k_hat,
    quantile_estimate,
    sample_points,
    shortfall_estimate,
)

P = 0.1
N = 1 << 16

print("=== calibration model: Exp(1), closed forms available ===")
model = ExpModel(rate=1.0)
v_true = model.true_quantile(P)
c_true = model.true_shortfall(P)
print(f"  true quantile  v = {v_true:.8f}")
print(f"  true shortfall c = {c_true:.8f}")

print(f"\n  estimates from one batch of N = 2^16, p = {P}")
print(f"  {'sampler':>10} {'quantile err':>14} {'shortfall err':>14}")
for sampler in ("mc", "qmc-sobol", "rqmc-owen", "rqmc-shift"):
    pts = sample_points(sampler, N, model.dim, seed=11, replication=0)
    batch = SampleBatch(model.evaluate(pts))
    dv = abs(quantile_estimate(batch, P) - v_true)
    dc = abs(shortfall_estimate(batch, P) - c_true)
    print(f"  {sampler:>10} {dv:>14.2e} {dc:>14.2e}")
print("  the digital sequences cut the error by orders of magnitude")

print("\n=== activity network: 15 edges, 10 paths, no closed form ===")
san = SanModel()
pts = sample_points("rqmc-owen", N, san.dim, seed=11, replication=0)
batch = SampleBatch(san.evaluate(pts))
v = quantile_estimate(batch, P)
c = shortfall_estimate(batch, P)
print(f"  completion-time sample, N = 2^16")
print(f"  p = {P} quantile estimate  v = {v:.4f}")
print(f"  expected shortfall        c = {c:.4f}")
print(f"  empirical CDF at v: {empirical_cdf(batch, v):.5f} (first value reaching p)")
print(f"  lower partial moment K(v) = {k_hat(batch, v):.6f} (equals p*(v - c) up to 1/N)")
print(f"  check: p*(v - c)          = {P * (v - c):.6f}")
