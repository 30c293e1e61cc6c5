"""The map generator against its closed forms, exactly where possible.

The noiseless and binary reductions are checked coefficient by coefficient
in rational arithmetic: evaluating the generator at unit noise tables (all
weight on one Pauli pair) recovers the exact polynomial coefficient of that
table entry in every quadratic form, because the matrices are linear in the
noise weights.
"""

import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from eppsim.bellbits import BellIndex, FlagPair, epp_unitary, flag_update, keep_predicate
from eppsim import montecarlo
from eppsim.noisemodels import BinaryNoiseModel, NoiseModel, binary, general, product
from eppsim.recurrence import (
    _ROUTE_CELL,
    _ROUTE_PAULI,
    BINARY_NAMES,
    CIRCUIT,
    COEFF_NAMES,
    DISCARDED,
    NOISY_CIRCUIT,
    BellDiagonalState,
    BinaryFlaggedState,
    EnsembleAnnihilated,
    FlaggedEnsembleState,
    QuadraticMap,
    binary_quadratic_map,
    binary_step,
    cell_index,
    cell_parts,
    embed,
    generate_map,
    ideal_step,
    step,
)

from route_reference import routed_terms

IDENTITY_TABLE = np.outer([1, 0, 0, 0], [1, 0, 0, 0])

# variable order (A0, A1, B0, B1) at cells (Phi+ flag 00, Phi+ flag 01,
# Psi+ flag 00, Psi+ flag 01)
BINARY_CELLS = {0: 0, 1: 1, 4: 2, 5: 3}


def exact_unit_matrices(mu, nu, cells=None):
    """Generator matrices for the unit noise table e_(mu,nu), as Fractions.

    With ``cells`` a cell->variable map, restricts to that sub-family and
    asserts closure.
    """
    dim = 16 if cells is None else len(cells)
    out = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for s, t, m, n, o in routed_terms():
        if (m, n) != (mu, nu) or o is None:
            continue
        if cells is None:
            out[o][s][t] += 1
        elif s in cells and t in cells:
            assert o in cells, "sub-family not closed"
            out[cells[o]][cells[s]][cells[t]] += 1
    return [symmetrized(m) for m in out]


def symmetrized(m):
    dim = len(m)
    return [[(m[r][c] + m[c][r]) / 2 for c in range(dim)] for r in range(dim)]


def form_matrix(dim, entries):
    """Symmetric matrix of a quadratic form given {(i, j): coefficient}."""
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), c in entries.items():
        c = Fraction(c)
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += c / 2
            m[j][i] += c / 2
    return m


# --- exact closed-form recoveries ------------------------------------------


def test_noiseless_generator_is_ideal_recurrence_exactly():
    """Flag-0 restriction of the noiseless map, summed over output flags,
    equals the ideal quadratic forms with integer coefficients."""
    unit = exact_unit_matrices(0, 0)
    flag0 = [4 * b for b in range(4)]
    a, c, d, b = range(4)  # Bell-index order: letters A, C, D, B
    want = {
        a: form_matrix(4, {(a, a): 1, (b, b): 1}),
        c: form_matrix(4, {(c, c): 1, (d, d): 1}),
        d: form_matrix(4, {(a, b): 2}),
        b: form_matrix(4, {(c, d): 2}),
    }
    for out_bell in range(4):
        got = [
            [sum(unit[4 * out_bell + of][r][cc] for of in range(4)) for cc in flag0]
            for r in flag0
        ]
        assert symmetrized(got) == want[out_bell]
    # noiseless + flag-zero input leaves no mass on nonzero output flags
    for out_cell in range(16):
        if out_cell % 4 == 0:
            continue
        assert all(unit[out_cell][r][cc] == 0 for r in flag0 for cc in flag0)


def test_binary_generator_matches_recurrence_coefficients_exactly():
    """Unit-table evaluation reproduces every monomial coefficient of the
    binary recurrence: the f00/f11 brackets, the one-sided-flip bracket once
    per table entry, and the keep probability."""
    a0, a1, b0, b1 = range(4)
    flip_bracket = [
        form_matrix(4, {(a0, b1): 1, (a1, b1): 1, (a0, b0): 1}),
        form_matrix(4, {(a1, b0): 1}),
        form_matrix(4, {(b0, a1): 1, (b1, a1): 1, (b0, a0): 1}),
        form_matrix(4, {(b1, a0): 1}),
    ]
    want = {
        (0, 0): [
            form_matrix(4, {(a0, a0): 1, (a0, a1): 2}),
            form_matrix(4, {(a1, a1): 1}),
            form_matrix(4, {(b0, b0): 1, (b0, b1): 2}),
            form_matrix(4, {(b1, b1): 1}),
        ],
        (1, 1): [
            form_matrix(4, {(b1, b1): 1, (b0, b1): 2}),
            form_matrix(4, {(b0, b0): 1}),
            form_matrix(4, {(a1, a1): 1, (a0, a1): 2}),
            form_matrix(4, {(a0, a0): 1}),
        ],
        (0, 1): flip_bracket,
        (1, 0): flip_bracket,
    }
    keep_same = form_matrix(4, {(a0, a0): 1, (a0, a1): 2, (a1, a1): 1,
                                (b0, b0): 1, (b0, b1): 2, (b1, b1): 1})
    keep_cross = form_matrix(
        4, {(a0, b0): 2, (a0, b1): 2, (a1, b0): 2, (a1, b1): 2}
    )
    for mu, nu in itertools.product((0, 1), repeat=2):
        got = exact_unit_matrices(mu, nu, cells=BINARY_CELLS)
        assert got == want[(mu, nu)], f"component mismatch for table entry {(mu, nu)}"
        total = [
            [sum(got[j][r][c] for j in range(4)) for c in range(4)] for r in range(4)
        ]
        assert total == (keep_same if mu == nu else keep_cross)


def test_binary_step_matches_restricted_generator():
    rng = np.random.default_rng(7)
    for _ in range(100):
        noise = binary(*rng.dirichlet(np.ones(4)))
        state = BinaryFlaggedState(*rng.dirichlet(np.ones(4)))
        expect, _ = binary_quadratic_map(noise).apply(state.as_array)
        got = binary_step(state, noise)
        assert np.abs(got.as_array - expect).max() < 1e-12


def test_binary_map_is_the_binary_slice_of_the_full_map_to_the_bit():
    # binary_quadratic_map slices generate_map's map, so this pins the slice's
    # cells and names
    rng = np.random.default_rng(9)
    cells = np.ix_([0, 1, 4, 5], [0, 1, 4, 5], [0, 1, 4, 5])
    channels = [BinaryNoiseModel.uncorrelated(f0) for f0 in rng.uniform(0.0, 1.0, 100)]
    channels += [binary(*rng.dirichlet(np.ones(4))) for _ in range(100)]
    for noise in channels:
        qmap = binary_quadratic_map(noise)
        assert np.array_equal(qmap.m, generate_map(noise).m[cells])
        assert qmap.names == BINARY_NAMES


def test_full_generator_matches_binary_step_on_embedded_states():
    rng = np.random.default_rng(8)
    for _ in range(25):
        noise = binary(*rng.dirichlet(np.ones(4)))
        state = BinaryFlaggedState(*rng.dirichlet(np.ones(4)))
        full, n_full = step(state.embed(), generate_map(noise.embed()))
        small = binary_step(state, noise)
        assert full.a[0, 0] == pytest.approx(small.a0, abs=1e-12)
        assert full.a[0, 1] == pytest.approx(small.a1, abs=1e-12)
        assert full.a[1, 0] == pytest.approx(small.b0, abs=1e-12)
        assert full.a[1, 1] == pytest.approx(small.b1, abs=1e-12)


# --- quadratic map properties ------------------------------------------------


def test_generate_map_equals_route_by_route_accumulation():
    # reference: np.add.at over the kept routes, in route order
    kept = [(o, s, t, mu, nu) for s, t, mu, nu, o in routed_terms() if o is not None]
    out, src, tgt, mu, nu = (np.array(col) for col in zip(*kept))

    def reference_map(f):
        m = np.zeros((16, 16, 16))
        np.add.at(m, (out, src, tgt), f[mu, nu])
        return 0.5 * (m + m.transpose(0, 2, 1))

    rng = np.random.default_rng(14)
    channels = []
    for k in range(40):
        w = rng.dirichlet(np.ones(16))
        if k % 4 == 0:  # sparse tables too
            w[rng.random(16) < 0.6] = 0.0
            w[0] += 0.5
        channels.append(general(w / w.sum()))
    for noise in channels:
        assert np.array_equal(generate_map(noise).m, reference_map(noise.f))
    binary_noise = BinaryNoiseModel(0.81, 0.07, 0.05, 0.07)
    assert np.array_equal(generate_map(binary_noise).m, reference_map(binary_noise.embed().f))


def test_map_matrices_symmetric_nonnegative():
    rng = np.random.default_rng(9)
    qm = generate_map(general(rng.dirichlet(np.ones(16))))
    assert qm.m.shape == (16, 16, 16)
    assert np.allclose(qm.m, qm.m.transpose(0, 2, 1))
    assert qm.m.min() >= 0.0
    assert qm.names == COEFF_NAMES


def test_keep_probability_at_most_one():
    rng = np.random.default_rng(10)
    for _ in range(10):
        qm = generate_map(general(rng.dirichlet(np.ones(16))))
        a = rng.dirichlet(np.ones(16))
        _, keep = qm.apply(a)
        assert 0.0 < keep <= 1.0 + 1e-12


def test_routed_terms_count():
    terms = list(routed_terms())
    assert len(terms) == 4096
    kept = [t for t in terms if t[-1] is not None]
    assert len(kept) == 2048  # half of all routings pass the keep test


def test_circuit_table_matches_bellbits_on_every_couple():
    kept = 0
    for src, tgt in itertools.product(range(16), repeat=2):
        src_bell, tgt_bell = BellIndex.from_index(src // 4), BellIndex.from_index(tgt // 4)
        out_s, out_t = epp_unitary(src_bell, tgt_bell)
        if keep_predicate(out_t):
            flag = flag_update(FlagPair.from_index(src % 4), FlagPair.from_index(tgt % 4))
            assert CIRCUIT[src, tgt] == 4 * out_s.index + flag.index
            kept += 1
        else:
            assert CIRCUIT[src, tgt] == DISCARDED
    assert kept == 128


def test_cell_parts_decodes_a_packed_cell():
    bell, flag = cell_parts(4 * 2 + 1)
    assert tuple(bell) == (1, 0)
    assert tuple(flag) == (0, 1)
    assert all(cell_index(*cell_parts(c)) == c for c in range(16))


def test_noisy_circuit_table_equals_routed_terms_on_every_term():
    for src, tgt, mu, nu, out in routed_terms():
        assert NOISY_CIRCUIT[4 * mu + nu, src, tgt] == (DISCARDED if out is None else out)
    assert NOISY_CIRCUIT.dtype == np.uint8 and not NOISY_CIRCUIT.flags.writeable
    # the Monte Carlo routes through the same table, not a second tabulation
    assert np.shares_memory(montecarlo._NOISY_CIRCUIT, NOISY_CIRCUIT)


def test_route_arrays_equal_those_built_from_routed_terms():
    # generate_map's routes come from CIRCUIT with the noise as a cell
    # relabelling; routed_terms routes every term through bellbits
    rows = [((o * 16 + s) * 16 + t, 4 * mu + nu)
            for s, t, mu, nu, o in routed_terms() if o is not None]
    cell, pauli = (np.array(col) for col in zip(*rows))
    assert np.array_equal(_ROUTE_CELL, cell)
    assert np.array_equal(_ROUTE_PAULI, pauli)


# --- states and observables ---------------------------------------------------


def test_ideal_step_spot_values():
    s = ideal_step(BellDiagonalState.werner(0.7))
    assert s.a == pytest.approx(0.5 / 0.68, abs=1e-12)
    assert s.d == pytest.approx(0.14 / 0.68, abs=1e-12)
    pure = BellDiagonalState.from_abcd(1, 0, 0, 0)
    assert ideal_step(pure).a == 1.0


def test_ideal_step_attracts_above_half():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rest = rng.dirichlet(np.ones(3)) * 0.35
        s = BellDiagonalState.from_abcd(0.65, *rest)
        for _ in range(200):
            s = ideal_step(s)
        assert s.a == pytest.approx(1.0, abs=1e-9)


def test_noiseless_map_matches_ideal_step():
    # the noiseless channel's 16-cell map keeps an embedded state's flags zero
    qm = generate_map(general(IDENTITY_TABLE))
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = BellDiagonalState(rng.dirichlet(np.ones(4)))
        got, _ = qm.apply(embed(s).flat)
        got = got.reshape(4, 4)
        assert np.allclose(got[:, 0], ideal_step(s).coeffs, rtol=0.0, atol=1e-14)
        assert not got[:, 1:].any()


def test_step_noiseless_fixpoint_and_werner():
    qm = generate_map(general(IDENTITY_TABLE))
    pure = embed(BellDiagonalState.from_abcd(1, 0, 0, 0))
    nxt, keep = step(pure, qm)
    assert keep == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(nxt.a, pure.a)
    werner, keep = step(embed(BellDiagonalState.werner(0.7)), qm)
    assert keep == pytest.approx(0.68, abs=1e-12)
    assert werner.marginal().a == pytest.approx(0.5 / 0.68, abs=1e-12)


def test_step_preserves_normalization_and_positivity():
    rng = np.random.default_rng(13)
    qm = generate_map(general(rng.dirichlet(np.ones(16))))
    s = FlaggedEnsembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
    for _ in range(50):
        s, _ = step(s, qm)
        assert s.a.min() >= 0.0
        assert s.a.sum() == pytest.approx(1.0, abs=1e-12)


def test_step_annihilation():
    # all weight on an X error on the target qubit: double Phi+ always discarded
    f = np.zeros((4, 4))
    f[0, 1] = 1.0
    qm = generate_map(NoiseModel(f))
    with pytest.raises(EnsembleAnnihilated):
        step(embed(BellDiagonalState.from_abcd(1, 0, 0, 0)), qm)


def test_perfect_correlation_closure():
    """Mass sitting only where flag equals Bell index stays that way."""
    rng = np.random.default_rng(14)
    for _ in range(20):
        noise = general(rng.dirichlet(np.ones(16)))
        a = np.zeros((4, 4))
        np.fill_diagonal(a, rng.dirichlet(np.ones(4)))
        s = FlaggedEnsembleState(a)
        assert s.conditional_fidelity == pytest.approx(1.0)
        out, _ = step(s, generate_map(noise))
        assert out.off_diagonal_mass() < 1e-14


def test_fidelity_and_conditional_fidelity():
    s = embed(BellDiagonalState.werner(0.7))
    assert s.fidelity == pytest.approx(0.7)
    assert s.conditional_fidelity == pytest.approx(0.7)  # only the flag-0 diagonal cell
    a = np.zeros((4, 4))
    np.fill_diagonal(a, [0.4, 0.3, 0.2, 0.1])
    assert FlaggedEnsembleState(a).conditional_fidelity == pytest.approx(1.0)


def test_embed_marginal_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(100):
        s = BellDiagonalState(rng.dirichlet(np.ones(4)))
        back = embed(s).marginal()
        assert np.allclose(back.coeffs, s.coeffs, atol=1e-15)


def test_letter_accessors_and_werner():
    s = BellDiagonalState.from_abcd(0.4, 0.3, 0.2, 0.1)
    assert (s.a, s.b, s.c, s.d) == pytest.approx((0.4, 0.3, 0.2, 0.1))
    assert s.fidelity == pytest.approx(0.4)
    w = BellDiagonalState.werner(0.85)
    assert w.a == pytest.approx(0.85)
    assert w.b == w.c == w.d == pytest.approx(0.05)


def test_state_validation():
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([0.9, 0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        FlaggedEnsembleState(-np.ones((4, 4)) / 16.0)
    with pytest.raises(ValueError):
        BinaryFlaggedState(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: BellDiagonalState(np.array([v, 0.5, 0.5, 0.0])),
        lambda v: FlaggedEnsembleState(np.r_[v, np.full(15, 1 / 15)].reshape(4, 4)),
    ],
    ids=["BellDiagonalState", "FlaggedEnsembleState"],
)
def test_non_finite_state_weights_rejected(build, bad):
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BellDiagonalState(np.array([0.9, 0.2, -0.1, 0.0])), "negative weight D = -0.1"),
        (lambda: BellDiagonalState.from_abcd(0.5, np.nan, 0.5, 0.0), "non-finite weight B = nan"),
        (lambda: FlaggedEnsembleState(np.r_[1.1, -0.1, np.zeros(14)].reshape(4, 4)),
         "negative weight A01 = -0.1"),
        (lambda: BinaryFlaggedState(0.5, 0.5, np.inf, 0.0), "non-finite weight B0 = inf"),
    ],
    ids=["BellDiagonalState", "from_abcd", "FlaggedEnsembleState", "BinaryFlaggedState"],
)
def test_a_bad_state_weight_is_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_named_coeffs_and_json_roundtrip():
    rng = np.random.default_rng(16)
    s = FlaggedEnsembleState(rng.dirichlet(np.ones(16)).reshape(4, 4))
    named = s.named_coeffs()
    assert set(named) == set(COEFF_NAMES)
    assert named["A00"] == s.a[0, 0]
    back = FlaggedEnsembleState.from_named(json.loads(json.dumps(named)))
    assert np.allclose(back.a, s.a, atol=0)


def test_quadratic_map_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="shape"):
        QuadraticMap(m=np.ones((4, 4)), names=("a",) * 4)
    with pytest.raises(ValueError, match="shape"):
        QuadraticMap(m=np.ones((4, 4, 4)), names=BINARY_NAMES[:3])


@pytest.mark.parametrize(
    "entry, value, match",
    [(5, float("nan"), "finite"), (5, float("inf"), "finite"), (5, -0.25, "nonnegative"),
     (1, 0.25, "symmetric")],
    ids=["nan", "inf", "negative", "asymmetric"],
)
def test_quadratic_map_json_with_a_bad_entry_is_rejected(entry, value, match):
    # entry 5 of A1's matrix is its diagonal [1, 1]; entry 1 is [0, 1] without [1, 0]
    qm = binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.9))
    d = json.loads(json.dumps(qm.to_json_dict()))
    d["matrices"]["A1"][entry] = value
    with pytest.raises(ValueError, match=match):
        QuadraticMap.from_json_dict(d)
    m = qm.m.copy()  # the same entry in a map made in code
    m[1].flat[entry] = value
    with pytest.raises(ValueError, match=match):
        QuadraticMap(m, qm.names)


def test_quadratic_map_json_roundtrip():
    qm = binary_quadratic_map(BinaryNoiseModel.uncorrelated(0.9))
    assert qm.names == BINARY_NAMES
    back = QuadraticMap.from_json_dict(json.loads(json.dumps(qm.to_json_dict())))
    assert np.allclose(back.m, qm.m, atol=0)
    assert back.names == qm.names
