import itertools

import pytest

from eppsim.bellbits import (
    ALL_BELLS,
    ALL_FLAGS,
    ALL_PAULIS,
    IDENTITY,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BellIndex,
    FlagPair,
    PauliIndex,
    bcnot,
    bilateral_xrot,
    epp_unitary,
    epp_with_errors,
    error_corrector,
    flag_flip,
    flag_update,
    keep_predicate,
    pauli_on_bell,
)


def test_bell_name_mapping():
    assert PHI_PLUS == BellIndex(0, 0)
    assert PSI_PLUS == BellIndex(0, 1)
    assert PHI_MINUS == BellIndex(1, 0)
    assert PSI_MINUS == BellIndex(1, 1)
    assert sorted(b.index for b in ALL_BELLS) == [0, 1, 2, 3]


def test_pauli_name_mapping():
    assert IDENTITY == PauliIndex(0, 0)
    assert SIGMA_X == PauliIndex(0, 1)
    assert SIGMA_Z == PauliIndex(1, 0)
    assert SIGMA_Y == PauliIndex(1, 1)


@pytest.mark.parametrize(
    "op,b,expected",
    [
        (SIGMA_X, BellIndex(0, 0), BellIndex(0, 1)),
        (IDENTITY, BellIndex(1, 0), BellIndex(1, 0)),
        (SIGMA_Y, BellIndex(1, 0), BellIndex(0, 1)),
    ],
)
def test_pauli_on_bell(op, b, expected):
    assert pauli_on_bell(op, b) == expected


def test_pauli_on_bell_involution():
    for op, b in itertools.product(ALL_PAULIS, ALL_BELLS):
        assert pauli_on_bell(op, pauli_on_bell(op, b)) == b


@pytest.mark.parametrize(
    "b,expected",
    [
        (BellIndex(0, 0), BellIndex(0, 0)),
        (BellIndex(1, 1), BellIndex(1, 0)),
        (BellIndex(1, 0), BellIndex(1, 1)),
    ],
)
def test_bilateral_xrot(b, expected):
    assert bilateral_xrot(b) == expected


@pytest.mark.parametrize(
    "src,tgt,out",
    [
        ((0, 0), (0, 0), ((0, 0), (0, 0))),
        ((1, 0), (0, 1), ((1, 0), (0, 1))),
        ((1, 1), (1, 1), ((0, 1), (1, 0))),
    ],
)
def test_bcnot(src, tgt, out):
    s, t = bcnot(BellIndex(*src), BellIndex(*tgt))
    assert (tuple(s), tuple(t)) == out


@pytest.mark.parametrize(
    "src,tgt,out",
    [
        ((0, 0), (0, 0), ((0, 0), (0, 0))),
        ((1, 1), (1, 1), ((0, 0), (1, 0))),
        ((1, 0), (1, 0), ((0, 1), (1, 0))),
    ],
)
def test_epp_unitary(src, tgt, out):
    s, t = epp_unitary(BellIndex(*src), BellIndex(*tgt))
    assert (tuple(s), tuple(t)) == out


def test_epp_with_errors_no_error_case():
    for src, tgt in itertools.product(ALL_BELLS, repeat=2):
        assert epp_with_errors(src, tgt, IDENTITY, IDENTITY) == epp_unitary(src, tgt)


def test_epp_with_errors_spot_values():
    # X on both pairs turns two Phi+ into two Psi+ before the circuit
    assert epp_with_errors(PHI_PLUS, PHI_PLUS, SIGMA_X, SIGMA_X) == (
        BellIndex(0, 1),
        BellIndex(0, 0),
    )
    assert epp_with_errors(PSI_MINUS, PSI_MINUS, SIGMA_X, SIGMA_X) == (
        BellIndex(0, 1),
        BellIndex(1, 0),
    )


def test_epp_with_errors_equals_corrector_after_circuit():
    """Exhaustive: the error pair commutes through the circuit as its corrector."""
    for src, tgt in itertools.product(ALL_BELLS, repeat=2):
        for e_src, e_tgt in itertools.product(ALL_PAULIS, repeat=2):
            with_err = epp_with_errors(src, tgt, e_src, e_tgt)
            c_src, c_tgt = error_corrector(e_src, e_tgt)
            s, t = epp_unitary(src, tgt)
            assert with_err == (pauli_on_bell(c_src, s), pauli_on_bell(c_tgt, t))


@pytest.mark.parametrize(
    "tgt_out,kept",
    [(BellIndex(0, 0), True), (BellIndex(1, 0), True), (BellIndex(0, 1), False)],
)
def test_keep_predicate(tgt_out, kept):
    assert keep_predicate(tgt_out) is kept


@pytest.mark.parametrize(
    "e_src,e_tgt,out",
    [
        ((0, 0), (0, 0), ((0, 0), (0, 0))),
        ((0, 1), (0, 0), ((0, 1), (0, 1))),
        ((1, 0), (1, 1), ((0, 1), (1, 1))),
    ],
)
def test_error_corrector_values(e_src, e_tgt, out):
    c_src, c_tgt = error_corrector(PauliIndex(*e_src), PauliIndex(*e_tgt))
    assert (tuple(c_src), tuple(c_tgt)) == out


@pytest.mark.parametrize(
    "f,op,expected",
    [
        ((0, 0), SIGMA_X, (0, 1)),
        ((1, 1), IDENTITY, (1, 1)),
        ((0, 1), SIGMA_Y, (1, 0)),
    ],
)
def test_flag_flip(f, op, expected):
    assert tuple(flag_flip(FlagPair(*f), op)) == expected


# updated flag per (source flag, target flag), source down, target across
FLAG_UPDATE_TABLE = {
    (0, 0): {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 0)},
    (0, 1): {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (0, 0)},
    (1, 0): {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 1), (1, 1): (0, 0)},
    (1, 1): {(0, 0): (1, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 0)},
}


def test_flag_update_full_table():
    for f_src, row in FLAG_UPDATE_TABLE.items():
        for f_tgt, expected in row.items():
            assert tuple(flag_update(FlagPair(*f_src), FlagPair(*f_tgt))) == expected


def test_flag_update_reduces_to_and_without_phase_errors():
    # one-bit flags: the update is the logical AND of the amplitude-error bits
    for a, a2 in itertools.product((0, 1), repeat=2):
        out = flag_update(FlagPair(0, a), FlagPair(0, a2))
        assert out == FlagPair(0, a & a2)


def test_flag_roundtrip_types():
    for k in range(4):
        assert FlagPair.from_index(k).index == k
        assert BellIndex.from_index(k).index == k
        assert PauliIndex.from_index(k).index == k
    assert len(ALL_FLAGS) == 4
