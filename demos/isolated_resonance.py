"""One site between two leads: the isolated-resonance baseline.

The cavity is a single level at the band center. Its resonance picks up a
width from the two attached channels, transmission through it is a
Lorentzian of unit peak, and the width scales with the square of the
coupling strength.
"""

import numpy as np

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    fixed_point_poles,
    s_matrix,
    transmission_direct,
)

W = 0.5


def single_site(alpha):
    return CavityModel(
        LatticeSpec(1, 1),
        (LeadSpec((0, 0), W), LeadSpec((0, 0), W)),
        alpha,
    )


# ---------------------------------------------------------------
# Peak transmission and resonance width as the coupling grows
# ---------------------------------------------------------------
print("alpha      gamma_pole     4(alpha w)^2   peak |t|")
for alpha in (0.02, 0.05, 0.1, 0.3, 1.0):
    model = single_site(alpha)
    (pole,) = fixed_point_poles(model)
    grid = np.linspace(-0.05, 0.05, 4001)
    # One array call: t(E) = S_RL(E) over the whole grid.
    peak = np.abs(s_matrix(model, grid)[:, 1, 0]).max()
    print(
        f"{alpha:5.2f}   {pole.gamma_pole:12.6e}  {4 * (alpha * W) ** 2:12.6e}"
        f"   {peak:.8f}"
    )

# ---------------------------------------------------------------
# The line shape at weak coupling against the Lorentzian
# ---------------------------------------------------------------
alpha = 0.1
model = single_site(alpha)
hwhm = 2 * (alpha * W) ** 2
print()
print(f"alpha = {alpha}: |t|^2 against 1 / (1 + (E / hwhm)^2)")
print("     E/hwhm     |t|^2      lorentzian")
for x in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
    e = x * hwhm
    t2 = abs(transmission_direct(model, e)) ** 2
    print(f"{x:9.1f}   {t2:9.6f}   {1.0 / (1.0 + x * x):9.6f}")

print()
print("At the band center the site transmits perfectly; the width of the")
print("dip in reflection is set entirely by the channel coupling.")
