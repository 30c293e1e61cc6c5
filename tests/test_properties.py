"""Invariants of the recurrence map, checked on generated channels and states."""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eppsim.montecarlo import RoundStats, _round_rng, purification_round
from eppsim.noisemodels import (
    PAULI_LABELS,
    BinaryNoiseModel,
    NoiseModel,
    compose,
    noise_from_config,
)
from eppsim.dynamics import jacobian
from eppsim.recurrence import EnsembleAnnihilated, generate_map

weights16 = st.lists(
    st.floats(0.0, 1.0, allow_subnormal=False), min_size=16, max_size=16
).filter(lambda w: sum(w) > 1e-3)


def normalized(w):
    w = np.array(w)
    return w / w.sum()


@given(channel=weights16, state=weights16)
def test_apply_keeps_weights_on_the_simplex(channel, state):
    qmap = generate_map(NoiseModel(normalized(channel)))
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
    m = generate_map(NoiseModel(normalized(channel))).m
    assert not m[np.ix_(off, diag, diag)].any()


weights4 = st.lists(
    st.floats(0.0, 1.0, allow_subnormal=False), min_size=4, max_size=4
).filter(lambda w: sum(w) > 1e-3)


@given(channel=weights16, diagonal=weights4)
def test_the_restricted_map_is_the_step_on_the_flag_diagonal_subspace(channel, diagonal):
    # at a flag-diagonal state the map restricted to the flag-diagonal cells
    # D gives the whole map's image on D and its Jacobian block J[D, D], and
    # the block J[O, D] of the other cells O is exactly zero: J is
    # block-triangular there, and its spectral radius is the larger of the
    # two diagonal blocks'
    diag = [0, 5, 10, 15]
    off = [j for j in range(16) if j not in diag]
    qmap = generate_map(NoiseModel(normalized(channel)))
    sub = qmap.restricted(diag)
    x = normalized(diagonal)
    full = np.zeros(16)
    full[diag] = x
    try:
        image, keep = qmap.apply(full)
        sub_image, sub_keep = sub.apply(x)
    except EnsembleAnnihilated:
        assume(False)
    assert np.array_equal(sub.m, qmap.m[np.ix_(diag, diag, diag)])
    assert np.allclose(sub_image, image[diag], rtol=0.0, atol=1e-15)
    assert not image[off].any()
    assert abs(sub_keep - keep) <= 1e-15
    jac = jacobian(qmap, full)
    assert np.allclose(jacobian(sub, x), jac[np.ix_(diag, diag)], rtol=0.0, atol=1e-15)
    assert not jac[np.ix_(off, diag)].any()


def bell_marginal(w):
    """The Bell weights of a 16-cell state: cell 4 * bell + flag, summed over flags."""
    return w.reshape(4, 4).sum(1)


#: Bell marginals on the edge of the separable set: the largest weight is 1/2.
EDGE_MARGINALS = sorted(
    set(itertools.permutations((0.5, 0.5, 0.0, 0.0)))
    | set(itertools.permutations((0.5, 0.25, 0.25, 0.0)))
    | set(itertools.permutations((0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3)))
)


def capped(w):
    """Four weights moved toward the uniform ones until none exceeds 1/2."""
    b = normalized(w)
    if b.max() > 0.5:
        t = 0.25 / (b.max() - 0.25)
        b = t * b + (1.0 - t) * 0.25
    return b


separable_marginals = st.one_of(st.sampled_from(EDGE_MARGINALS).map(np.array), weights4.map(capped))
flag_tables = st.lists(weights4.map(normalized), min_size=4, max_size=4).map(np.array)


def with_flags(bell, flags):
    """The 16-cell state of Bell weights ``bell`` and, in row b, the flag
    weights of Bell state b."""
    return (bell[:, None] * flags).ravel()


@given(channel=weights16, bell=separable_marginals, flags=flag_tables)
def test_a_step_keeps_a_separable_bell_marginal_separable(channel, bell, flags):
    # the step is LOCC, so a pair with no Bell weight above 1/2 (separable)
    # stays so: the regime verdict settles a trajectory there as high-noise
    qmap = generate_map(NoiseModel(normalized(channel)))
    try:
        image, _ = qmap.apply(with_flags(bell, flags))
    except EnsembleAnnihilated:
        assume(False)
    assert bell_marginal(image).max() <= 0.5 + 1e-15


@given(channel=weights16, state=st.one_of(
    weights16.map(normalized),
    st.builds(with_flags, separable_marginals, flag_tables),
))
def test_the_keep_probability_is_at_least_half_the_channels_trace(channel, state):
    # coincident errors mu = nu flip both pairs' parities alike, so a couple
    # passes with the probability p**2 + (1 - p)**2 >= 1/2 that two draws of
    # the state have equal parity: no step annihilates where tr(f)/2 does not
    f = normalized(channel)
    keep = state @ generate_map(NoiseModel(f)).forms[16] @ state
    assert keep >= 0.5 * np.trace(f.reshape(4, 4)) - 1e-15


@given(channel=weights16, bell=weights4, flags=flag_tables, other=flag_tables)
def test_the_images_bell_marginal_depends_on_the_bell_marginal_alone(channel, bell, flags, other):
    # the Bell labels transform apart from the flags, and the parity check
    # reads them alone
    qmap = generate_map(NoiseModel(normalized(channel)))
    b = normalized(bell)
    try:
        one, keep_one = qmap.apply(with_flags(b, flags))
        two, keep_two = qmap.apply(with_flags(b, other))
    except EnsembleAnnihilated:
        assume(False)
    assert abs(keep_one - keep_two) <= 1e-15
    assert np.allclose(bell_marginal(one), bell_marginal(two), rtol=0.0, atol=1e-15)


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
    noise = NoiseModel(normalized(channel))
    m = generate_map(noise).m
    assert m.min() >= 0.0
    assert np.array_equal(m, m.transpose(0, 2, 1))
    assert np.allclose(m.sum(axis=0), keep_form(noise.f), rtol=0.0, atol=1e-15)


@given(channel=weights16)
def test_the_last_slab_of_a_maps_forms_is_its_keep_form(channel):
    noise = NoiseModel(normalized(channel))
    qmap = generate_map(noise)
    assert np.array_equal(qmap.forms[16], qmap.m.sum(axis=0))
    assert np.allclose(qmap.forms[16], keep_form(noise.f), rtol=0.0, atol=1e-15)


@given(first=weights16, second=weights16, share=st.floats(0.0, 1.0))
def test_the_map_is_linear_in_the_channel(first, second, share):
    # the map of a convex combination of two channels is that combination
    # of their maps, so its derivative along a family is the map of the
    # channel's derivative
    f, g = normalized(first), normalized(second)
    mixed = generate_map(NoiseModel(share * f + (1.0 - share) * g)).m
    map_f, map_g = (generate_map(NoiseModel(w)).m for w in (f, g))
    assert np.allclose(mixed, share * map_f + (1.0 - share) * map_g, rtol=0.0, atol=1e-15)


@settings(max_examples=20)
@given(channel=weights16, state=weights16, seed=st.integers(0, 2**32 - 1))
def test_one_mc_round_is_within_binomial_error_of_the_map(channel, state, seed):
    # flagged start cells too, so the flag half of the circuit table is reached
    noise, weights = NoiseModel(normalized(channel)), normalized(state)
    try:
        predicted, _ = generate_map(noise).apply(weights)
    except EnsembleAnnihilated:
        assume(False)
    cells = _round_rng(seed, 0).choice(16, size=200_000, p=weights)
    stats = RoundStats.of(1, purification_round(cells, noise, _round_rng(seed, 1)))
    n = stats.pairs_remaining
    assume(n > 0)
    # each survivor's cell is an independent draw from the predicted weights;
    # 5 sigma, since 16 cells of every example are checked at once
    sigma = np.sqrt(np.maximum(predicted * (1.0 - predicted), 1e-12) / n)
    assert (np.abs(stats.cells / n - predicted) <= 5.0 * sigma).all()


@given(a=weights16, b=weights16, c=weights16)
def test_compose_is_commutative_and_associative(a, b, c):
    n1, n2, n3 = (NoiseModel(normalized(w)) for w in (a, b, c))
    assert np.allclose(compose(n1, n2).f, compose(n2, n1).f, rtol=0.0, atol=1e-15)
    left, right = compose(compose(n1, n2), n3), compose(n1, compose(n2, n3))
    assert np.allclose(left.f, right.f, rtol=0.0, atol=1e-15)


@given(channel=weights16)
def test_general_channel_config_round_trip(channel):
    noise = NoiseModel(normalized(channel))
    cfg = {
        f"f.{PAULI_LABELS[mu]}{PAULI_LABELS[nu]}": repr(float(w))
        for (mu, nu), w in np.ndenumerate(noise.f)
    }
    back = noise_from_config({"model": "general", **cfg})
    assert isinstance(back, NoiseModel)
    assert np.allclose(back.f, noise.f, rtol=1e-15, atol=0.0)


@given(weights=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=4, max_size=4)
       .filter(lambda w: sum(w) > 1e-3))
def test_binary_channel_config_round_trip(weights):
    noise = BinaryNoiseModel(*normalized(weights))
    cfg = {key: repr(getattr(noise, key)) for key in ("f00", "f01", "f10", "f11")}
    back = noise_from_config({"model": "binary", **cfg})
    assert isinstance(back, BinaryNoiseModel)
    got = np.array([back.f00, back.f01, back.f10, back.f11])
    want = np.array([noise.f00, noise.f01, noise.f10, noise.f11])
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
