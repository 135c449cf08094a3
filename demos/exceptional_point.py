"""Finding exceptional points and the antiresonance they pin.

First the textbook two-level matrix, where the coalescence point is known
in closed form. Then a three-site cavity whose two lead couplings are tuned
until a pair of resonances merges; at the merged energy the transmission
shows an exact zero.
"""

import numpy as np

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    find_exceptional_point,
    transmission_direct,
)

# ---------------------------------------------------------------
# Two-level benchmark: EP at omega = 1/2, z* = -i/2
# ---------------------------------------------------------------
def two_level(p):
    return np.array([[0.0, p[0]], [p[0], -1.0j]])


p1, p2, z_star, report = find_exceptional_point(two_level, (0.3, 0.0))
print("two-level benchmark")
print(f"  omega* = {p1:.10f}   (exact 0.5)")
print(f"  z*     = {z_star:.10f}   (exact -0.5j)")
print(f"  separation {report.separation:.3e}, chirality angle "
      f"{report.angle:.3e}")
print(f"  Newton iterates: {len(report.path)}")
amax = max(a for *_, a in report.path)
print(f"  largest 1/|r| along the approach: {amax:.3e}")
print()

# ---------------------------------------------------------------
# Three-site cavity: tune (w_L, w_R) to coalescence
# ---------------------------------------------------------------
LAT = LatticeSpec(2, 2, mask=((1, 0), (1, 1)))


def cavity(w_l, w_r):
    return CavityModel(
        LAT,
        (LeadSpec((0, 0), w_l), LeadSpec((1, 0), w_r)),
        1.0,
    )


def family(p):
    return assemble_heff(cavity(abs(float(p[0])), abs(float(p[1]))), 0.0)


w_l, w_r, z_star, report = find_exceptional_point(family, (1.2, 1.6))
w_l, w_r = abs(w_l), abs(w_r)
print("three-site cavity")
print(f"  couplings at coalescence: w_L = {w_l:.8f}, w_R = {w_r:.8f}")
print(f"  merged resonance z* = {z_star:.8f}")
print(f"  separation {report.separation:.3e}")
print()

# ---------------------------------------------------------------
# Transmission through the tuned cavity: zero at Re z*
# ---------------------------------------------------------------
model = cavity(w_l, w_r)
e_star = z_star.real
print("      E        |t|")
for e in np.linspace(-1.8, 1.8, 13):
    print(f"  {e:7.3f}   {abs(transmission_direct(model, float(e))):.6f}")
print(f"  at E = Re z* = {e_star:.3f}: "
      f"|t| = {abs(transmission_direct(model, e_star)):.3e}")
print()
print("The two merged resonances interfere destructively and transmission")
print("vanishes at the degenerate energy, framed by two broad maxima.")
