"""Exact integer-bit algebra of Bell pairs, Pauli errors, and the 2-EPP circuit.

A Bell state is labelled by a phase bit i and an amplitude bit j,

    |B_ij> = (|0 j> + (-1)^i |1 (1-j)>) / sqrt(2),

so (0,0) = Phi+, (0,1) = Psi+, (1,0) = Phi-, (1,1) = Psi-.  Pauli operators
carry the same two-bit labels: sigma_(p,a) flips the phase bit iff p = 1 and
the amplitude bit iff a = 1, i.e. (0,0) = Id, (0,1) = X, (1,0) = Z,
(1,1) = Y.  Global phases are dropped everywhere; the dense-matrix oracle in
``matrixoracle`` verifies each identity up to a global phase.

Everything here is a pure function on immutable tuples and is safe to call
from any number of threads.
"""

from __future__ import annotations

from typing import NamedTuple


def _packed(bits) -> int:
    """Packed index 2 * (phase bit) + (amplitude bit) of a two-bit label;
    ``BellIndex``, ``PauliIndex`` and ``FlagPair`` all pack this way."""
    return 2 * bits[0] + bits[1]


def _unpacked(cls, k: int):
    """The label of packed index k, the inverse of ``index``."""
    return cls((k >> 1) & 1, k & 1)


class BellIndex(NamedTuple):
    """Bell state as (phase bit, amplitude bit); index order Phi+, Psi+, Phi-, Psi-."""

    phase: int
    amplitude: int
    index = property(_packed)
    from_index = classmethod(_unpacked)


class PauliIndex(NamedTuple):
    """Pauli operator as (phase-flip bit, amplitude-flip bit); index order I, X, Z, Y."""

    phase_flip: int
    amplitude_flip: int
    index = property(_packed)
    from_index = classmethod(_unpacked)


class FlagPair(NamedTuple):
    """Error flag carried by one pair: (phase-error bit, amplitude-error bit)."""

    phase_error: int
    amplitude_error: int
    index = property(_packed)
    from_index = classmethod(_unpacked)


PHI_PLUS = BellIndex(0, 0)
PSI_PLUS = BellIndex(0, 1)
PHI_MINUS = BellIndex(1, 0)
PSI_MINUS = BellIndex(1, 1)

IDENTITY = PauliIndex(0, 0)
SIGMA_X = PauliIndex(0, 1)
SIGMA_Z = PauliIndex(1, 0)
SIGMA_Y = PauliIndex(1, 1)

BELL_NAMES = {PHI_PLUS: "Phi+", PSI_PLUS: "Psi+", PHI_MINUS: "Phi-", PSI_MINUS: "Psi-"}
PAULI_NAMES = {IDENTITY: "I", SIGMA_X: "X", SIGMA_Z: "Z", SIGMA_Y: "Y"}

ALL_BELLS = (PHI_PLUS, PSI_PLUS, PHI_MINUS, PSI_MINUS)
ALL_PAULIS = (IDENTITY, SIGMA_X, SIGMA_Z, SIGMA_Y)
ALL_FLAGS = tuple(FlagPair.from_index(k) for k in range(4))


def pauli_on_bell(op: PauliIndex, b: BellIndex) -> BellIndex:
    """Apply a Pauli (on either side of the pair) to a Bell state, phase-free."""
    return BellIndex(b.phase ^ op.phase_flip, b.amplitude ^ op.amplitude_flip)


def bilateral_xrot(b: BellIndex) -> BellIndex:
    """Bilateral x-rotation of the 2-EPP: (i, j) -> (i, j xor i)."""
    return BellIndex(b.phase, b.amplitude ^ b.phase)


def bcnot(src: BellIndex, tgt: BellIndex) -> tuple[BellIndex, BellIndex]:
    """Bilateral CNOT: amplitude information flows source -> target, phase
    information target -> source."""
    s = BellIndex(src.phase ^ tgt.phase, src.amplitude)
    t = BellIndex(tgt.phase, tgt.amplitude ^ src.amplitude)
    return s, t


def epp_unitary(src: BellIndex, tgt: BellIndex) -> tuple[BellIndex, BellIndex]:
    """Unitary part of one 2-EPP step: bilateral x-rotations, then BCNOT."""
    i, j = src
    i2, j2 = tgt
    s = BellIndex(i ^ i2, i ^ j)
    t = BellIndex(i2, i2 ^ j2 ^ i ^ j)
    return s, t


def epp_with_errors(
    src: BellIndex, tgt: BellIndex, e_src: PauliIndex, e_tgt: PauliIndex
) -> tuple[BellIndex, BellIndex]:
    """One 2-EPP step with Pauli errors applied to both pairs beforehand."""
    return epp_unitary(pauli_on_bell(e_src, src), pauli_on_bell(e_tgt, tgt))


def keep_predicate(tgt_out: BellIndex) -> bool:
    """A couple is kept iff the measured target pair has amplitude bit zero
    (measurement results on the two sides then coincide)."""
    return tgt_out.amplitude == 0


def error_corrector(e_src: PauliIndex, e_tgt: PauliIndex) -> tuple[PauliIndex, PauliIndex]:
    """Pauli pair that undoes, *after* the 2-EPP unitary, an error pair that
    acted before it."""
    p, a = e_src
    p2, a2 = e_tgt
    c_src = PauliIndex(p ^ p2, p ^ a)
    c_tgt = PauliIndex(p2, p2 ^ a2 ^ p ^ a)
    return c_src, c_tgt


def flag_flip(f: FlagPair, op: PauliIndex) -> FlagPair:
    """Record a Pauli error in a pair's flag: X inverts the amplitude-error
    bit, Z the phase-error bit, Y both."""
    return FlagPair(f.phase_error ^ op.phase_flip, f.amplitude_error ^ op.amplitude_flip)


def flag_update(f_src: FlagPair, f_tgt: FlagPair) -> FlagPair:
    """Flag of the kept source pair as a function of both parents' flags.

    The corrector bits are propagated when the target carries no amplitude
    error; otherwise the flag is reset to (0,0).  The reset is what builds up
    strict state/flag correlations during distillation.
    """
    p, a = f_src
    p2, a2 = f_tgt
    if p2 ^ a2 ^ p ^ a:
        return FlagPair(0, 0)
    return FlagPair(p ^ p2, p ^ a)
