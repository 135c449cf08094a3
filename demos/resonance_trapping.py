"""Resonance trapping: widths bifurcate as the coupling grows.

Weak coupling broadens every resonance alike. Past a critical strength the
spectrum reorganizes: a few states align with the channels and soak up
almost all of the total width while the rest become long lived again. Seen
from outside, strong coupling removes one transmission peak per channel.
"""

import numpy as np

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    biorthogonal_spectrum,
    count_peaks,
    s_matrix,
    track_sweep,
)

# ---------------------------------------------------------------
# Dimer with one open channel: exact bifurcation at alpha = sqrt(2)
# ---------------------------------------------------------------
LAT2 = LatticeSpec(2, 1)


def dimer(alpha):
    return CavityModel(
        LAT2, (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 0.0)), alpha
    )


alphas = (0.6, 1.0, 1.3, 1.6, 2.0, 3.0)
tracked = track_sweep(dimer, alphas, 0.0)
print("dimer, one open channel (critical alpha = sqrt 2 = 1.414...)")
print("alpha    gamma_a      gamma_b      2/alpha^2")
for a, sp in zip(alphas, tracked):
    ga, gb = np.sort(sp.widths)
    print(f"{a:4.1f}   {ga:10.6f}   {gb:10.6f}   {2 / a**2:10.6f}")
print("Below the critical coupling both widths grow together; above it one")
print("state keeps broadening while the other narrows toward 2/alpha^2.")
print()

# ---------------------------------------------------------------
# Eight-site chain, both ends open: width hierarchy at alpha = 2
# ---------------------------------------------------------------
N = 8


def chain(alpha):
    return CavityModel(
        LatticeSpec(N, 1),
        (LeadSpec((0, 0), 1.0), LeadSpec((N - 1, 0), 1.0)),
        alpha,
    )


print(f"{N}-site chain, two channels, alpha = 2")
sp = biorthogonal_spectrum(assemble_heff(chain(2.0), 0.0), 0.0)
widths = np.sort(sp.widths)[::-1]
total = widths.sum()
for k, g in enumerate(widths):
    bar = "#" * max(1, int(40 * g / widths[0]))
    print(f"  state {k}: gamma = {g:9.5f}  {bar}")
print(f"  top 2 of {N} states hold {widths[:2].sum() / total:.1%} "
       "of the total width")
print()

# ---------------------------------------------------------------
# Transmission peaks: strong coupling loses one peak per channel
# ---------------------------------------------------------------
grid = np.linspace(-1.95, 1.95, 401)
print("alpha    peaks in |t| above 0.5")
for alpha in (0.5, 1.0, 1.5, 2.0):
    model = chain(alpha)
    abs_t = np.abs(s_matrix(model, grid)[:, 1, 0])
    print(f"{alpha:4.1f}     {count_peaks(abs_t, floor=0.5)}")
print("(at matched coupling, alpha = 1, the spectrum is a flat plateau")
print(" with no isolated peaks at all)")
