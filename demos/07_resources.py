# What purification costs.
#
# Each round consumes two pairs per surviving pair and discards the couples
# whose measurements disagree, so the initial ensemble per distilled pair is
# the product of 2/(keep probability) over rounds.  Both that cost and the
# security parameter eps = 1 - F_cond move exponentially in the round count,
# hence a roughly polynomial trade-off: straight-ish lines on a log-log
# plot, ordered by apparatus quality.

import numpy as np

from eppsim import BellDiagonalState, from_p1_p2, resource_curve, resources

SETTINGS = [(0.9333, 0.9466), (0.9733, 0.9786), (0.9866, 0.9833), (0.9933, 0.9946)]
initial = BellDiagonalState.werner(0.85)

curves = []
for p1, p2 in SETTINGS:
    pts = []
    for _, eps, cost in resource_curve(from_p1_p2(p1, p2), initial, 60):
        pts.append((eps, cost))
        if eps < 1e-6:
            break
    curves.append(np.array(pts))
    print(f"(p1, p2) = ({p1}, {p2})")
    for eps, cost in pts:
        if 1e-6 < eps < 0.2:
            print(f"   eps = {eps:.3e}   pairs per survivor = {cost:,.0f}")

n_req, rounds = resources(from_p1_p2(0.9733, 0.9786), initial, 1e-3)
print(f"\ntarget eps = 1e-3 with the second setting: {n_req} pairs, {rounds} rounds")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for (p1, p2), pts in zip(SETTINGS, curves):
        ax.loglog(pts[:, 0], pts[:, 1], marker="o", ms=3, label=f"p1={p1}, p2={p2}")
    ax.invert_xaxis()
    ax.set(xlabel="eps = 1 - F_cond", ylabel="initial pairs per survivor",
           title="resource scaling")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("resources.png", dpi=150)
    print("wrote resources.png")
except ImportError:
    pass
