"""The flagged 2-EPP recurrence map and its closed-form special cases.

State conventions
-----------------
A Bell-diagonal pair is described by four weights in Bell-index order
(Phi+, Psi+, Phi-, Psi-); the traditional letters map as A = Phi+,
B = Psi-, C = Psi+, D = Phi-.  The flagged ensemble tracks a 4x4 table
``a[bell, flag]`` of weights over (Bell state, error flag), 16 variables in
total; cell index = 4 * bell + flag.  Coefficients are named by letter plus
flag bits, e.g. ``A00`` or ``C01``.

One noisy purification step is a normalized quadratic form: sixteen
symmetric matrices M_j, one per output cell, with

    a'_j = (a M_j a) / N,    N = sum_j a M_j a,

where N is the keep probability.  The circuit itself is fixed: ``CIRCUIT``
tabulates, from the exact bit algebra of ``bellbits``, the kept source
pair's output cell for each (source cell, target cell), or ``DISCARDED``.
Pauli noise only relabels cells: an error mu flips a pair's Bell bits and
its flag bits alike, so cell c becomes c ^ 5 mu (``noisy_circuit``, with
``NOISY_CIRCUIT`` its table).  ``generate_map`` derives the matrices for
any noise channel by routing all 16 * 16 * 4 * 4 = 4096 weighted source /
target / error combinations through that table.  It is the one map
builder: the binary sub-family's map (``binary_quadratic_map``) is its map
sliced to the four binary cells, and the noiseless map is ``generate_map``
of the channel with f[I, I] = 1.  The closed forms ``binary_step`` and
``ideal_step`` are kept as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bellbits import (
    BellIndex,
    FlagPair,
    epp_unitary,
    flag_update,
    keep_predicate,
)
from .noisemodels import BinaryNoiseModel, NoiseModel, _validated_vector

ANNIHILATION_EPS = 1e-15

LETTER_OF_BELL = ("A", "C", "D", "B")  # Bell-index order -> traditional letter
COEFF_NAMES = tuple(
    f"{LETTER_OF_BELL[bell]}{flag >> 1}{flag & 1}" for bell in range(4) for flag in range(4)
)
BINARY_NAMES = ("A0", "A1", "B0", "B1")


class EnsembleAnnihilated(RuntimeError):
    """Raised when a step's keep probability vanishes."""


#: Output mark of ``CIRCUIT`` for a couple that fails the parity check.
DISCARDED = 16


def cell_index(bell: BellIndex, flag: FlagPair) -> int:
    return 4 * bell.index + flag.index


def cell_parts(cell: int) -> tuple[BellIndex, FlagPair]:
    """Inverse of ``cell_index``."""
    return BellIndex.from_index(cell >> 2), FlagPair.from_index(cell & 3)


def _circuit_table() -> np.ndarray:
    table = np.full((16, 16), DISCARDED, dtype=np.uint8)
    for src, tgt in itertools.product(range(16), repeat=2):
        (src_bell, src_flag), (tgt_bell, tgt_flag) = cell_parts(src), cell_parts(tgt)
        out_s, out_t = epp_unitary(src_bell, tgt_bell)
        if keep_predicate(out_t):
            table[src, tgt] = cell_index(out_s, flag_update(src_flag, tgt_flag))
    table.setflags(write=False)
    return table


#: The noiseless step on single couples: the kept source pair's output cell
#: for each (source cell, target cell), or ``DISCARDED``; 128 of 256 are kept.
CIRCUIT = _circuit_table()


def noisy_circuit(src, tgt, mu, nu):
    """Output cells (or ``DISCARDED``) of couples whose source and target
    pairs suffered the packed Paulis mu and nu before the circuit."""
    return CIRCUIT[src ^ 5 * mu, tgt ^ 5 * nu]


def _noisy_circuit_table() -> np.ndarray:
    joint, src, tgt = np.ogrid[:16, :16, :16]
    table = noisy_circuit(src, tgt, joint >> 2, joint & 3)
    table.setflags(write=False)
    return table


#: ``noisy_circuit`` of every couple: entry [4 mu + nu, source cell, target
#: cell].  The map's routes and the Monte Carlo's round both read it.
NOISY_CIRCUIT = _noisy_circuit_table()


def _kept_route_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the kept routes, in (source, target, mu, nu) order: the
    (output, source, target) cell of a 16 x 16 x 16 table, and the (mu, nu)
    entry of the 4 x 4 Pauli table."""
    src, tgt, joint = np.ogrid[:16, :16, :16]
    out = NOISY_CIRCUIT.transpose(1, 2, 0).astype(np.intp)
    kept = out != DISCARDED
    cell = ((out * 16 + src) * 16 + tgt)[kept]
    pauli = np.broadcast_to(joint, out.shape)[kept]
    return cell, pauli


_ROUTE_CELL, _ROUTE_PAULI = _kept_route_arrays()

# The binary sub-family, closed under a binary channel's step: Bell states
# {Phi+, Psi+} with a one-bit (amplitude) flag; variables (A0, A1, B0, B1)
# live at cells (Phi+, 00), (Phi+, 01), (Psi+, 00), (Psi+, 01).
_BINARY_CELLS = [0, 1, 4, 5]


@dataclass(frozen=True)
class QuadraticMap:
    """One purification step as normalized quadratic forms a'_j = a M_j a / N.

    Every map, however made, is checked here: construction raises ValueError
    unless ``m`` is an (n, n, n) cube of finite, nonnegative entries for n
    names and every M_j is symmetric, which ``jacobian`` assumes.
    """

    m: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        n = len(self.names)
        if m.shape != (n, n, n):
            raise ValueError(f"map of shape {m.shape} for {n} names; expected {(n, n, n)}")
        if not (m.min() >= 0.0 and m.max() < np.inf):  # a NaN fails both
            raise ValueError("map entries must be finite and nonnegative")
        if not (m == m.transpose(0, 2, 1)).all():
            raise ValueError("every matrix M_j of the map must be symmetric")
        object.__setattr__(self, "m", m)
        m.setflags(write=False)
        object.__setattr__(self, "_m2", m.reshape(n, -1))

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def apply(self, a: np.ndarray) -> tuple[np.ndarray, float]:
        """Contract with a weight vector; returns (normalized image, keep probability)."""
        q = self._m2 @ np.multiply.outer(a, a).ravel()
        n = q.sum()
        if n <= ANNIHILATION_EPS:
            raise EnsembleAnnihilated(f"keep probability {n} <= {ANNIHILATION_EPS}")
        return q / n, float(n)

    def restricted(self, cells) -> "QuadraticMap":
        """The forms M_j[k, l] with j, k and l among ``cells``.

        This is the step on the subspace the cells span, exactly, where the
        step maps that subspace into itself (M_j[k, l] = 0 for every j off
        the cells and k, l on them).
        """
        cells = list(cells)
        return QuadraticMap(
            m=self.m[np.ix_(cells, cells, cells)], names=tuple(self.names[c] for c in cells)
        )

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "matrices": {name: self.m[j].ravel().tolist() for j, name in enumerate(self.names)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuadraticMap":
        """The map ``to_json_dict`` wrote; the constructor checks its entries."""
        names = tuple(d["names"])
        n = len(names)
        m = np.array([d["matrices"][name] for name in names], dtype=float).reshape(n, n, n)
        return cls(m=m, names=names)


def generate_map(noise: NoiseModel | BinaryNoiseModel) -> QuadraticMap:
    """Derive the 16-variable step matrices for a noise channel.

    A binary channel enters through its embedded Pauli table.
    """
    # bincount adds the routes in index order, as np.add.at would
    weights = noise.f.take(_ROUTE_PAULI)
    m = np.bincount(_ROUTE_CELL, weights=weights, minlength=16**3).reshape(16, 16, 16)
    return QuadraticMap(m=0.5 * (m + m.transpose(0, 2, 1)), names=COEFF_NAMES)


def binary_quadratic_map(noise: BinaryNoiseModel) -> QuadraticMap:
    """The step matrices of the closed binary sub-family: ``generate_map``'s
    map sliced to the binary cells, with the variables (A0, A1, B0, B1)."""
    cells = np.ix_(_BINARY_CELLS, _BINARY_CELLS, _BINARY_CELLS)
    return QuadraticMap(generate_map(noise).m[cells], BINARY_NAMES)


# --- states ---------------------------------------------------------------

@dataclass(frozen=True)
class BellDiagonalState:
    """Four Bell weights in Bell-index order (Phi+, Psi+, Phi-, Psi-)."""

    coeffs: np.ndarray

    def __post_init__(self):
        w = _validated_vector(np.reshape(self.coeffs, 4), LETTER_OF_BELL, 1e-9, 1e-12)
        object.__setattr__(self, "coeffs", w)
        w.setflags(write=False)

    @classmethod
    def from_abcd(cls, a: float, b: float, c: float, d: float) -> "BellDiagonalState":
        return cls(np.array([a, c, d, b]))

    @classmethod
    def werner(cls, fidelity: float) -> "BellDiagonalState":
        r = (1.0 - fidelity) / 3.0
        return cls(np.array([fidelity, r, r, r]))

    @property
    def a(self) -> float:
        return float(self.coeffs[0])

    @property
    def b(self) -> float:
        return float(self.coeffs[3])

    @property
    def c(self) -> float:
        return float(self.coeffs[1])

    @property
    def d(self) -> float:
        return float(self.coeffs[2])

    @property
    def fidelity(self) -> float:
        return self.a


@dataclass(frozen=True)
class FlaggedEnsembleState:
    """Weights a[bell, flag] over (Bell state, error flag)."""

    a: np.ndarray

    def __post_init__(self):
        w = _validated_vector(np.reshape(self.a, 16), COEFF_NAMES, 1e-7, 1e-12).reshape(4, 4)
        object.__setattr__(self, "a", w)
        w.setflags(write=False)

    @property
    def flat(self) -> np.ndarray:
        return self.a.ravel()

    @property
    def fidelity(self) -> float:
        """Total Phi+ weight, the fidelity Alice and Bob observe."""
        return float(self.a[0].sum())

    @property
    def conditional_fidelity(self) -> float:
        """Fidelity given the flags: total weight with flag equal to Bell index."""
        return float(np.trace(self.a))

    def off_diagonal_mass(self) -> float:
        """Weight with flag different from Bell index."""
        return float(self.a.sum() - np.trace(self.a))

    def marginal(self) -> BellDiagonalState:
        return BellDiagonalState(self.a.sum(axis=1))

    def named_coeffs(self) -> dict[str, float]:
        return {name: float(self.flat[k]) for k, name in enumerate(COEFF_NAMES)}

    @classmethod
    def from_named(cls, coeffs: dict[str, float]) -> "FlaggedEnsembleState":
        flat = np.array([coeffs[name] for name in COEFF_NAMES])
        return cls(flat.reshape(4, 4))


def embed(state: BellDiagonalState) -> FlaggedEnsembleState:
    """Attach all-zero error flags to a Bell-diagonal ensemble."""
    a = np.zeros((4, 4))
    a[:, 0] = state.coeffs
    return FlaggedEnsembleState(a)


@dataclass(frozen=True)
class BinaryFlaggedState:
    """Binary sub-family state: Phi+/Psi+ weights split by a one-bit flag."""

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self):
        vec = _validated_vector([self.a0, self.a1, self.b0, self.b1], BINARY_NAMES, 1e-9, 1e-12)
        for name, v in zip(("a0", "a1", "b0", "b1"), vec):
            object.__setattr__(self, name, float(v))

    @property
    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.b0, self.b1])

    @property
    def fidelity(self) -> float:
        return self.a0 + self.a1

    @property
    def conditional_fidelity(self) -> float:
        return self.a0 + self.b1

    def embed(self) -> FlaggedEnsembleState:
        a = np.zeros(16)
        a[_BINARY_CELLS] = self.as_array
        return FlaggedEnsembleState(a.reshape(4, 4))


# --- stepping -------------------------------------------------------------

def step(state: FlaggedEnsembleState, qmap: QuadraticMap) -> tuple[FlaggedEnsembleState, float]:
    """One noisy purification step; returns the next state and the keep probability."""
    out, n = qmap.apply(state.flat)
    return FlaggedEnsembleState(out.reshape(4, 4)), n


def ideal_step(state: BellDiagonalState) -> BellDiagonalState:
    """Noiseless recurrence on the four Bell weights."""
    a, b, c, d = state.a, state.b, state.c, state.d
    n = (a + b) ** 2 + (c + d) ** 2  # at least 1/2, as a + b + c + d = 1
    return BellDiagonalState.from_abcd(
        (a * a + b * b) / n, 2.0 * c * d / n, (c * c + d * d) / n, 2.0 * a * b / n
    )


def binary_step_raw(
    a0: float, a1: float, b0: float, b1: float, f00: float, f11: float, fs: float
) -> tuple[float, float, float, float, float]:
    """Scalar kernel of the binary recurrence (unvalidated, for hot loops)."""
    n = (f00 + f11) * ((a0 + a1) ** 2 + (b0 + b1) ** 2) + 2.0 * fs * (a0 + a1) * (b0 + b1)
    if n <= ANNIHILATION_EPS:
        raise EnsembleAnnihilated(f"keep probability {n} <= {ANNIHILATION_EPS}")
    na0 = f00 * (a0 * a0 + 2.0 * a0 * a1) + f11 * (b1 * b1 + 2.0 * b0 * b1) + fs * (
        a0 * b1 + a1 * b1 + a0 * b0
    )
    na1 = f00 * a1 * a1 + f11 * b0 * b0 + fs * a1 * b0
    nb0 = f00 * (b0 * b0 + 2.0 * b0 * b1) + f11 * (a1 * a1 + 2.0 * a0 * a1) + fs * (
        b0 * a1 + b1 * a1 + b0 * a0
    )
    nb1 = f00 * b1 * b1 + f11 * a0 * a0 + fs * b1 * a0
    return na0 / n, na1 / n, nb0 / n, nb1 / n, n


def binary_step(state: BinaryFlaggedState, noise: BinaryNoiseModel) -> BinaryFlaggedState:
    """One purification step of the binary sub-family."""
    a0, a1, b0, b1, _ = binary_step_raw(
        state.a0, state.a1, state.b0, state.b1, noise.f00, noise.f11, noise.fs
    )
    return BinaryFlaggedState(a0, a1, b0, b1)
