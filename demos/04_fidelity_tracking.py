# Analytic recurrence vs the pair-level Monte Carlo.
#
# The recurrence predicts the per-round ensemble exactly in the infinite
# limit; the Monte Carlo plays the actual game: couple the pairs, sample one
# joint Pauli error per couple, run the circuit, keep or discard.  With a
# million pairs the two agree to within binomial noise, and the shrinking
# ensemble makes the scatter grow round by round.

import numpy as np

from eppsim import BellDiagonalState, MCConfig, NoiseModel, analytic_trajectory
from eppsim.montecarlo import run

f = np.full((4, 4), 0.0020968)
f[0, :] = 0.0113896
f[:, 0] = 0.0113896
f[0, 0] = 0.91279120
noise = NoiseModel(f)

config = MCConfig(
    n_pairs=10**6,
    initial=BellDiagonalState.werner(0.85),
    noise=noise,
    rounds=10,
    seed=20240521,
)
stats = run(config)
traj = analytic_trajectory(noise, config.initial, config.rounds)

print("round   pairs left    F (mc / analytic)      F_cond (mc / analytic)")
for st in stats:
    state, _ = traj[st.round]
    print(
        f"{st.round:>5}   {st.pairs_remaining:>10}    "
        f"{st.f_hat:.5f} / {state.fidelity:.5f}     "
        f"{st.f_cond_hat:.6f} / {state.conditional_fidelity:.6f}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    rounds = [st.round for st in stats]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(rounds, [traj[r][0].fidelity for r in rounds], label="F (analytic)")
    ax.plot(rounds, [traj[r][0].conditional_fidelity for r in rounds], label="F_cond (analytic)")
    ax.plot(rounds, [st.f_hat for st in stats], "o", ms=4, label="F (mc)")
    ax.plot(rounds, [st.f_cond_hat for st in stats], "s", ms=4, label="F_cond (mc)")
    for st in stats:
        ax.annotate(str(st.pairs_remaining), (st.round, st.f_cond_hat),
                    textcoords="offset points", xytext=(0, 6), fontsize=7)
    ax.set(xlabel="round", ylabel="fidelity", title="distillation: prediction vs simulation")
    ax.legend()
    fig.tight_layout()
    fig.savefig("fidelity_tracking.png", dpi=150)
    print("\nwrote fidelity_tracking.png")
except ImportError:
    pass
