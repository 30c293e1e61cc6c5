"""Invariants of the recurrence map, checked on generated channels and states."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from eppsim.noisemodels import general
from eppsim.recurrence import EnsembleAnnihilated, generate_map

weights16 = st.lists(
    st.floats(0.0, 1.0, allow_subnormal=False), min_size=16, max_size=16
).filter(lambda w: sum(w) > 1e-3)


def normalized(w):
    w = np.array(w)
    return w / w.sum()


@given(channel=weights16, state=weights16)
def test_apply_keeps_weights_on_the_simplex(channel, state):
    qmap = generate_map(general(normalized(channel)))
    try:
        image, keep = qmap.apply(normalized(state))
    except EnsembleAnnihilated:
        assume(False)
    assert image.min() >= 0.0
    assert abs(image.sum() - 1.0) <= 1e-12
    assert 0.0 < keep <= 1.0 + 1e-12


@given(channel=weights16)
def test_flag_diagonal_subspace_is_invariant_for_any_channel(channel):
    # no route from two flag-diagonal cells (flag equal to Bell index) ends
    # in an off-diagonal cell, whatever the channel's weights
    diag = [0, 5, 10, 15]
    off = [j for j in range(16) if j not in diag]
    m = generate_map(general(normalized(channel))).m
    assert not m[np.ix_(off, diag, diag)].any()
