"""Inspect the dithered scalar codebooks and their two reconstruction rules.

Quantization happens in quantile space: map t through the CDF of a
variance-3 Gaussian, drop it on a randomly shifted grid, reconstruct from a
table. The biased rule reconstructs at quantile midpoints; the unbiased
rule uses a modified map so that averaging over the random shift returns
the input exactly.
"""

import numpy as np

from hadaquant import BIASED, UNBIASED, build_codebook, quantize_scalar

rng = np.random.default_rng(1)

print("== a biased codebook at 3 bits, dither 0.4 ==")
table = build_codebook(BIASED, 8, 0.4)
print("reconstruction:", np.round(table, 4))

print("\n== sample values through it ==")
for t in (-2.0, -0.3, 0.0, 1.7):
    j = quantize_scalar(t, BIASED, 8, 0.4)
    print(f"t = {t:+.2f} -> bucket {j} -> {table[j]:+.4f}")

print("\n== the unbiased rule kills the systematic error ==")
from hadaquant.codebook import cdf
from hadaquant.oracle import u_average

t, size = 0.8, 8
for mode in (BIASED, UNBIASED):
    # exact dither average by quadrature, split at the bucket-change points
    jumps = [(size * cdf(t)) % 1.0, ((size - 1) * cdf(t)) % 1.0, 0.5]

    # u holds all the nodes of one quadrature piece: one table per node
    def recon_of_dither(u, mode=mode):
        return build_codebook(mode, size, u)[np.arange(u.size), quantize_scalar(t, mode, size, u)]

    avg = u_average(recon_of_dither, breakpoints=jumps)
    print(f"{mode:>8s}: dither-averaged reconstruction of t={t} = {avg:+.7f}")

print("\n== distortion constant at 8 bits ==")
size = 256
z = rng.standard_normal(50_000)
u = rng.random(50_000)
# a fresh dither per draw: one table per dither, built in chunks of 5000 rows
err = np.empty_like(z)
for lo in range(0, z.size, 5000):
    zc, uc = z[lo : lo + 5000], u[lo : lo + 5000]
    tables = build_codebook(BIASED, size, uc)
    err[lo : lo + 5000] = zc - tables[np.arange(uc.size), quantize_scalar(zc, BIASED, size, uc)]
scaled = size**2 * err**2
stderr = scaled.std() / np.sqrt(scaled.size)
print(f"size^2 * E(z - quant z)^2 = {scaled.mean():.4f} +- {stderr:.4f} (Monte Carlo error)")
print(f"theoretical coefficient    = {np.pi * np.sqrt(3) / 2:.4f}  (pi*sqrt(3)/2)")
