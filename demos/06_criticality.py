# Critical noise levels and the slowdown around them.
#
# The security boundary of a one-parameter noise family is found by
# bisection on linear stability: it is where the spectral radius of the
# step's Jacobian at the secure (flag-diagonal) fixpoint crosses one.  That
# fixpoint is solved for by Newton's method, in a few hundred steps even at
# the binary threshold f0 = 3/4; the basin checks at the bracket ends
# iterate plainly and take most of the binary search's time.  Two families
# here: the analytically tractable binary flips, whose boundary is known to
# eight digits, and one-qubit white noise on both qubits, whose purification
# and security boundaries are a whisker apart.  Near either boundary the
# number of plain iterations to converge blows up, phase-transition style.

import numpy as np

from eppsim import (
    BinaryFlaggedState,
    BinaryNoiseModel,
    binary_family,
    find_critical,
    iterate_to_fixpoint,
    white_noise_family,
)

crit_binary = find_critical(binary_family, (0.75, 0.85))
print(f"binary family: security boundary at f0 = {crit_binary:.8f}")

crit_white = find_critical(white_noise_family, (0.88, 0.92), halvings=24, max_iter=30_000)
print(f"white-noise family: security boundary at f0 = {crit_white:.6f}")

print("\niterations to reach a 1e-12 fixpoint (binary family):")
f0s = np.concatenate(
    [
        np.linspace(0.755, crit_binary - 2e-4, 12),
        np.linspace(crit_binary + 2e-4, 0.90, 12),
    ]
)
counts = []
for f0 in f0s:
    r = iterate_to_fixpoint(
        BinaryFlaggedState(0.85, 0, 0.15, 0),
        BinaryNoiseModel.uncorrelated(float(f0)),
        max_iter=500_000,
    )
    counts.append(r.iterations)
for f0, n in zip(f0s[::3], counts[::3]):
    print(f"  f0 = {f0:.5f}  ->  {n:>7} iterations")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(f0s, counts, marker="o", ms=3, lw=0.8)
    ax.axvline(crit_binary, ls="--", c="gray", lw=0.8)
    ax.set(xlabel="f0", ylabel="iterations to 1e-12", title="critical slowing down")
    fig.tight_layout()
    fig.savefig("criticality.png", dpi=150)
    print("\nwrote criticality.png")
except ImportError:
    pass
