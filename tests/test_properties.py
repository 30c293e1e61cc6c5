"""Invariants of the recurrence map, checked on generated channels and states."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from eppsim.noisemodels import (
    BinaryNoiseModel,
    NoiseModel,
    compose,
    general,
    noise_from_config,
    noise_to_config,
)
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


def keep_form(f):
    """Keep probability of a (source, target) cell pair, from the parity check
    alone: a couple survives iff the errored source and target Bell indices
    have equal parity (Bell indices xor with the packed Pauli indices)."""
    parity = [(b >> 1) ^ (b & 1) for b in range(4)]
    k = np.zeros((4, 4))
    for s in range(4):
        for t in range(4):
            for mu in range(4):
                for nu in range(4):
                    if parity[s ^ mu] == parity[t ^ nu]:
                        k[s, t] += f[mu, nu]
    k = 0.5 * (k + k.T)  # the map's forms are symmetrized
    return np.kron(k, np.ones((4, 4)))  # flags do not enter the check


@given(channel=weights16)
def test_map_forms_are_nonnegative_symmetric_and_sum_to_the_keep_form(channel):
    noise = general(normalized(channel))
    m = generate_map(noise).m
    assert m.min() >= 0.0
    assert np.array_equal(m, m.transpose(0, 2, 1))
    assert np.allclose(m.sum(axis=0), keep_form(noise.f), rtol=0.0, atol=1e-15)


@given(a=weights16, b=weights16, c=weights16)
def test_compose_is_commutative_and_associative(a, b, c):
    n1, n2, n3 = (general(normalized(w)) for w in (a, b, c))
    assert np.allclose(compose(n1, n2).f, compose(n2, n1).f, rtol=0.0, atol=1e-15)
    left, right = compose(compose(n1, n2), n3), compose(n1, compose(n2, n3))
    assert np.allclose(left.f, right.f, rtol=0.0, atol=1e-15)


@given(channel=weights16)
def test_general_channel_config_round_trip(channel):
    noise = general(normalized(channel))
    back = noise_from_config(noise_to_config(noise))
    assert isinstance(back, NoiseModel)
    assert np.allclose(back.f, noise.f, rtol=1e-15, atol=0.0)


@given(weights=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=4, max_size=4)
       .filter(lambda w: sum(w) > 1e-3))
def test_binary_channel_config_round_trip(weights):
    noise = BinaryNoiseModel(*normalized(weights))
    back = noise_from_config(noise_to_config(noise))
    assert isinstance(back, BinaryNoiseModel)
    got = np.array([back.f00, back.f01, back.f10, back.f11])
    want = np.array([noise.f00, noise.f01, noise.f10, noise.f11])
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
