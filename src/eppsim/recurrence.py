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

    a'_j = (a M_j a) / N,    N = sum_j a M_j a = a S a,

where N is the keep probability and S = sum_j M_j the keep form, which a
``QuadraticMap`` carries as one more slab after the M_j, so that one
matrix-vector product gives a step's image and N together.  The circuit
itself is fixed: ``CIRCUIT`` tabulates, from the exact bit algebra of
``bellbits`` on the Bell pairs and the flag pairs apart, the kept source
pair's output cell for each (source cell, target cell), or ``DISCARDED``.
Pauli noise only relabels cells: an error mu flips a pair's Bell bits and
its flag bits alike, so cell c becomes c ^ 5 mu (``noisy_circuit``, with
``NOISY_CIRCUIT`` its table).  Of its 4096 (source, target, mu, nu) routes
2048 are kept, and they reach 1024 (output, source, target) cells, each
exactly twice.  At import ``NOISY_CIRCUIT`` is scattered once into a 0/1
tensor over (record 4 mu + nu, output, source, target), and one route table
(``_route_table``) keeps its reached cells: a 0/1 matrix of the records
that reach each cell, and the position of each cell's transpose.  A map is
a gather over it (``_gathered``): the route tensor P = f @ records, one
product, which is the step before symmetrisation, and the map's
M_j[k, l] = (P[j, k, l] + P[j, l, k]) / 2.  That gather is the one map
builder: ``generate_map`` gathers over every cell, the binary sub-family's
map (``binary_quadratic_map``) over the four binary cells alone, which is
``generate_map``'s map restricted to them, and the noiseless map is
``generate_map`` of the channel with f[I, I] = 1.  The closed forms
``binary_step`` and ``ideal_step`` are kept as oracles.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .bellbits import (
    ALL_BELLS,
    ALL_FLAGS,
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
    """``CIRCUIT``, built from the Bell pairs and the flag pairs apart: Bell
    labels and flags transform separately, and the Bell part alone decides
    whether a couple is kept."""
    flags = {pair: flag_update(*pair) for pair in itertools.product(ALL_FLAGS, repeat=2)}
    table = np.full((16, 16), DISCARDED, dtype=np.uint8)
    for src, tgt in itertools.product(ALL_BELLS, repeat=2):
        out_s, out_t = epp_unitary(src, tgt)
        if keep_predicate(out_t):
            for (f_src, f_tgt), flag in flags.items():
                table[cell_index(src, f_src), cell_index(tgt, f_tgt)] = cell_index(out_s, flag)
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


# The binary sub-family, closed under a binary channel's step: Bell states
# {Phi+, Psi+} with a one-bit (amplitude) flag; variables (A0, A1, B0, B1)
# live at cells (Phi+, 00), (Phi+, 01), (Psi+, 00), (Psi+, 01).
_BINARY_CELLS = [0, 1, 4, 5]


def _route_table(keep) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The route table of the map restricted to the cells ``keep``, in their
    order: (cells, records, transposed, n), with n the number of cells.

    ``NOISY_CIRCUIT`` is scattered once into a 0/1 tensor over (record
    4 mu + nu, output, source, target), whose output ``DISCARDED`` catches
    the discarded couples, and its three cell axes are restricted to
    ``keep``.  ``cells`` holds the flat positions, in the n x n x n cube over
    ``keep``, of the (output, source, target) cells that some record
    reaches, and exactly two records reach each; ``records[4 mu + nu, k]``
    is 1 where record (mu, nu) reaches cell k and 0 elsewhere; and
    ``transposed`` is the position in ``cells`` of each cell's transpose
    (output, target, source), which the swapped couple reaches.  So the
    route tensor P = f @ records on ``cells``, and the map is
    0.5 (P + P[transposed]) there and zero elsewhere (``_gathered``).
    """
    n = len(keep)
    joint, src, tgt = np.ogrid[:16, :16, :16]
    reached = np.zeros((16, DISCARDED + 1, 16, 16), dtype=bool)
    reached[joint, NOISY_CIRCUIT, src, tgt] = True
    reached = reached.take(keep, 1).take(keep, 2).take(keep, 3).reshape(16, -1)
    cells = np.flatnonzero(reached.any(axis=0))
    out, src, tgt = np.unravel_index(cells, (n, n, n))
    tables = (
        cells,
        reached[:, cells].astype(float),
        np.searchsorted(cells, (out * n + tgt) * n + src),
    )
    for table in tables:
        table.setflags(write=False)
    return (*tables, n)


#: The route tables of the 16-cell map and of the binary sub-family's map.
_ROUTES = _route_table(range(16))
_BINARY_ROUTES = _route_table(_BINARY_CELLS)


@dataclass(frozen=True)
class QuadraticMap:
    """One purification step as normalized quadratic forms a'_j = a M_j a / N.

    A map is its forms and nothing else.  Every map, however made, is
    checked here: construction raises ValueError unless ``m`` is an
    (n, n, n) cube of finite, nonnegative entries and every M_j is
    symmetric, which ``jacobian`` assumes.  The map holds one read-only
    (n + 1, n, n) buffer ``forms``: its first n slabs are a copy of the
    M_j, which ``m`` views, and slab n is the keep form S = sum_j M_j, so
    that N = a S a.  One product with ``forms`` gives a state's image and
    its keep probability together.  The caller's array stays writable.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 3 or len(set(m.shape)) != 1:
            raise ValueError(f"map of shape {m.shape}; expected an (n, n, n) cube")
        n = len(m)
        if n == 0:
            raise ValueError("map of shape (0, 0, 0) has no cells")
        if not (m.min() >= 0.0 and m.max() < np.inf):  # a NaN fails both
            raise ValueError("map entries must be finite and nonnegative")
        if not (m == m.transpose(0, 2, 1)).all():
            raise ValueError("every matrix M_j of the map must be symmetric")
        forms = np.empty((n + 1, n, n))
        forms[:n] = m
        forms[:n].sum(axis=0, out=forms[n])
        forms.setflags(write=False)  # before the view, which inherits it
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "m", forms[:n])

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def apply(self, a: np.ndarray) -> tuple[np.ndarray, float]:
        """Contract with a weight vector; returns (normalized image, keep
        probability).  Raises ValueError unless ``a`` has one entry per cell."""
        _check_fit(self, a)
        q = self.forms.reshape(len(self.forms), -1) @ np.multiply.outer(a, a).ravel()
        n = q[-1]
        if n <= ANNIHILATION_EPS:
            raise EnsembleAnnihilated(f"keep probability {n} <= {ANNIHILATION_EPS}")
        return q[:-1] / n, float(n)

    def restricted(self, cells) -> "QuadraticMap":
        """The map of the forms M_j[k, l] with j, k and l among ``cells``, in
        the cells' order; its keep form is summed afresh over those M_j.

        This is the step on the subspace the cells span, exactly, where the
        step maps that subspace into itself (M_j[k, l] = 0 for every j off
        the cells and k, l on them).  ``binary_quadratic_map`` is one such
        restriction.  Raises ValueError, naming the cells, unless they are
        at least one, distinct, and cells of this map.
        """
        cells = [operator.index(cell) for cell in cells]
        if not cells:
            raise ValueError("no cells to restrict the map to: cells []")
        outside = [cell for cell in cells if not 0 <= cell < self.dim]
        if outside:
            raise ValueError(f"cells {outside} are not among the map's {self.dim}")
        if len(set(cells)) < len(cells):
            repeated = sorted({cell for cell in cells if cells.count(cell) > 1})
            raise ValueError(f"cells {repeated} are repeated in {cells}")
        return QuadraticMap(self.m.take(cells, 0).take(cells, 1).take(cells, 2))


def _check_fit(qmap: QuadraticMap, a) -> None:
    """Raise ValueError unless the weight vector ``a`` has one entry per cell
    of ``qmap``."""
    if len(a) != qmap.dim:
        raise ValueError(f"state has {len(a)} variables but map has {qmap.dim}")


def _gathered(f: np.ndarray, routes) -> QuadraticMap:
    """The map of the Pauli table ``f`` on a route table of ``_route_table``:
    the one gather through which every map is built.

    The route tensor P = f @ records is one product.  Each cell has two
    records, so P there is the sum that ``np.bincount`` makes of the cell's
    two routes, rounded once, to the bit: the product's other terms are
    exact zeros.  The map is 0.5 (P + P at the transposed cells), the
    symmetric part 0.5 (m + m^T) of the cube m that holds P, scattered into
    a cube of zeros."""
    cells, records, transposed, n = routes
    p = f.reshape(-1) @ records
    cube = np.zeros(n**3)
    cube[cells] = 0.5 * (p + p.take(transposed))
    return QuadraticMap(cube.reshape(n, n, n))


def generate_map(noise: NoiseModel | BinaryNoiseModel) -> QuadraticMap:
    """Derive the 16-variable step matrices for a noise channel: a gather of
    its Pauli weights over the route table ``_ROUTES``.

    A binary channel enters through its embedded Pauli table.
    """
    return _gathered(noise.f, _ROUTES)


def binary_quadratic_map(noise: BinaryNoiseModel) -> QuadraticMap:
    """The step matrices of the closed binary sub-family, with the variables
    (A0, A1, B0, B1): ``generate_map``'s map restricted to the binary cells,
    gathered over those cells' routes alone (``_BINARY_ROUTES``), so no
    16-cell map is made."""
    return _gathered(noise.f, _BINARY_ROUTES)


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
