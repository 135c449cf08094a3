"""Wigner-Smith delay: how long the wave dwells in the cavity.

For the single site the delay at resonance is known in closed form. On a
longer chain at strong coupling the delay separates the two kinds of
states left after trapping: short dwell on the broad background, long
dwell on the narrow trapped resonances.
"""

import numpy as np

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    biorthogonal_spectrum,
    wigner_delay,
)

# ---------------------------------------------------------------
# Single site: tau(0) = (1 - w_eff^2) / w_eff^2
# ---------------------------------------------------------------
print("single site, two leads, w = 0.5")
print("alpha    tau(0)        (1 - w2)/w2")
for alpha in (0.5, 1.0, 1.5):
    w2 = (alpha * 0.5) ** 2
    model = CavityModel(
        LatticeSpec(1, 1),
        (LeadSpec((0, 0), 0.5), LeadSpec((0, 0), 0.5)),
        alpha,
    )
    print(f"{alpha:4.1f}   {wigner_delay(model, 0.0):10.6f}   "
          f"{(1 - w2) / w2:10.6f}")
print()

# ---------------------------------------------------------------
# Eight-site chain at alpha = 2: trapped states hold the wave
# ---------------------------------------------------------------
N = 8
model = CavityModel(
    LatticeSpec(N, 1),
    (LeadSpec((0, 0), 1.0), LeadSpec((N - 1, 0), 1.0)),
    2.0,
)
sp = biorthogonal_spectrum(assemble_heff(model, 0.0), 0.0)
narrow = np.argsort(sp.widths, kind="stable")[:3]
print(f"{N}-site chain, alpha = 2; narrowest resonances:")
for j in narrow:
    print(f"  E = {sp.values[j].real:8.4f}   gamma = {sp.widths[j]:.4f}")
print()
print("      E        tau")
grid = np.linspace(0.0, 1.9, 20)
for e, tau in zip(grid, wigner_delay(model, grid)):
    bar = "#" * max(0, int(2 * tau))
    print(f"  {e:7.3f}   {tau:8.3f}  {bar}")
print()
print("The delay spikes where a trapped resonance sits and stays near the")
print("baseline on the plateau between them.")
