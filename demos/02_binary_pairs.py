# Binary pairs: the solvable corner of the problem.
#
# With only spin-flip errors the ensemble stays inside {Phi+, Psi+} and a
# one-bit error flag suffices.  The four weights (A0, A1, B0, B1) -- state
# by flag -- follow a quadratic recurrence.  Two things to see here:
#
#  1. During distillation the cross weights A1, B0 die off exponentially:
#     flags become perfectly correlated with the states.
#  2. Sweeping the flip probability exposes three regimes, with the
#     asymptotic conditional fidelity rising from 0.5 like a square root
#     above f0 = 0.75 and pinning to 1 beyond the critical point.

import numpy as np

from eppsim import (
    BinaryFlaggedState,
    BinaryNoiseModel,
    binary_fixpoint_analytic,
    binary_step,
    fit_intermediate,
    iterate_to_fixpoint,
)

# -- 1. trajectory at a fixed noise level ----------------------------------

noise = BinaryNoiseModel(0.8575, 0.0475, 0.0475, 0.0475)
state = BinaryFlaggedState(0.8, 0.0, 0.2, 0.0)
history = [state]
for _ in range(25):
    state = binary_step(state, noise)
    history.append(state)

print("step   A0        A1        B0        B1")
for n, s in enumerate(history):
    if n <= 6 or n % 5 == 0:
        print(f"{n:>4}   {s.a0:.6f}  {s.a1:.2e}  {s.b0:.2e}  {s.b1:.6f}")

# -- 2. fixpoint map over the flip probability -------------------------------

f0s = np.linspace(0.70, 1.0, 61)
curves = {"A0": [], "A1": [], "B0": [], "B1": [], "F": [], "F_cond": []}
for f0 in f0s:
    r = iterate_to_fixpoint(
        BinaryFlaggedState(0.85, 0, 0.15, 0),
        BinaryNoiseModel.uncorrelated(float(f0)),
        max_iter=300_000,
    )
    s = r.state
    for key, val in zip(
        curves, (s.a0, s.a1, s.b0, s.b1, s.fidelity, s.conditional_fidelity)
    ):
        curves[key].append(val)

print("\nconditional fidelity at the fixpoint:")
for f0, fc in zip(f0s[::10], curves["F_cond"][::10]):
    print(f"  f0 = {f0:.3f}  ->  {fc:.6f}")

inter = []
for f0 in np.linspace(0.7515, 0.7710, 10):
    r = iterate_to_fixpoint(
        BinaryFlaggedState(0.85, 0, 0.15, 0),
        BinaryNoiseModel.uncorrelated(float(f0)),
        max_iter=500_000,
    )
    inter.append((float(f0), r.conditional_fidelity))
c0, c1, x0 = fit_intermediate(inter)
print(f"\nintermediate window fits {c0:.3f} + {c1:.2f} * sqrt(f0 - {x0:.4f})")

crit = 0.77184451
fp = binary_fixpoint_analytic(0.9)
print(f"closed-form fixpoint at f0=0.9: A0 = {fp.a0:.9f} (B1 = {fp.b1:.9f})")
print(f"marginal stability sits at f0 = {crit}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    steps = np.arange(len(history))
    for key in ("a0", "a1", "b0", "b1"):
        ax1.semilogy(steps, [getattr(s, key) + 1e-300 for s in history], label=key.upper())
    ax1.set(xlabel="step", ylabel="weight", title="binary trajectory", ylim=(1e-12, 1.5))
    ax1.legend()
    for key in ("A0", "B1", "F", "F_cond"):
        ax2.plot(f0s, curves[key], label=key)
    ax2.axvline(crit, ls="--", c="gray", lw=0.8)
    ax2.set(xlabel="f0", ylabel="fixpoint value", title="fixpoint map")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("binary_pairs.png", dpi=150)
    print("wrote binary_pairs.png")
except ImportError:
    pass
