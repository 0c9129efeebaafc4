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

    def recon_of_dither(u, mode=mode):
        return build_codebook(mode, size, u)[quantize_scalar(t, mode, size, u)]

    avg = u_average(recon_of_dither, breakpoints=jumps)
    print(f"{mode:>8s}: dither-averaged reconstruction of t={t} = {avg:+.7f}")

print("\n== distortion constant at 8 bits ==")
size = 256
z = rng.standard_normal(500_000)
u = rng.random(500_000)
from hadaquant.oracle import biased_quant_direct

err = z - biased_quant_direct(z, u, size)
print(f"size^2 * E(z - quant z)^2 = {size**2 * np.mean(err**2):.4f}")
print(f"theoretical coefficient    = {np.pi * np.sqrt(3) / 2:.4f}  (pi*sqrt(3)/2)")
