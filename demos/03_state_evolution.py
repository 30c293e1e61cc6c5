# Full 16-variable picture: Bell state x error flag.
#
# For a general Pauli channel the bookkeeping needs two flag bits per pair,
# so the ensemble is a 4x4 table of weights.  Starting from a Werner state
# with every flag at zero, the first column empties out into the full table,
# and at the fixpoint all the weight sits on the diagonal: each surviving
# pair's flag determines its Bell state exactly.

import numpy as np

from eppsim import BellDiagonalState, NoiseModel, embed, generate_map, iterate_to_fixpoint, step
from eppsim.recurrence import LETTER_OF_BELL

f = np.full((4, 4), 0.003712)
f[0, :] = 0.021131
f[:, 0] = 0.021131
f[0, 0] = 0.83981
noise = NoiseModel(f)
qmap = generate_map(noise)


def show(title, state):
    print(f"\n{title}  (F = {state.fidelity:.4f}, F_cond = {state.conditional_fidelity:.6f})")
    print("        flag 00    flag 01    flag 10    flag 11")
    for bell in range(4):
        row = "  ".join(f"{state.a[bell, flag]:9.5f}" for flag in range(4))
        print(f"  {LETTER_OF_BELL[bell]}:  {row}")


state = embed(BellDiagonalState.werner(0.70))
show("initially (all flags zero)", state)

snapshots = {}
for n in range(1, 121):
    state, _ = step(state, qmap)
    if n in (4, 12):
        snapshots[n] = state
for n, snap in snapshots.items():
    show(f"after {n} steps (everything populated)", snap)

fix = iterate_to_fixpoint(embed(BellDiagonalState.werner(0.70)), qmap)
show(f"fixpoint (after {fix.iterations} steps)", fix.state)
print(f"\noff-diagonal weight at the fixpoint: {fix.state.off_diagonal_mass():.2e}")
print("F converges to a maximum below one while F_cond reaches one: given the")
print("flags, the surviving ensemble is a mixture of *known* Bell states.")
