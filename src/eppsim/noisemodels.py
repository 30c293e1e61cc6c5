"""Pauli-diagonal two-qubit noise channels.

A channel is a joint probability table f[mu, nu] over Pauli labels
(mu on the source-pair qubit, nu on the target-pair qubit, both in Alice's
laboratory).  Labels are the two-bit (phase-flip, amplitude-flip) indices of
``bellbits``, packed as 2*p + a, so the index order is (I, X, Z, Y).

Channels compose by xor-convolution of their labels, which makes the
one- and two-qubit depolarizing channels and their combinations easy to
build exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

PAULI_LABELS = ("00", "01", "10", "11")  # sigma_(p,a): I, X, Z, Y

_SUM_TOL = 1e-3  # printed channel tables carry ~5 significant digits
_NEG_TOL = 1e-15


def _validated_vector(vec, labels: tuple[str, ...], sum_tol: float, neg_tol: float) -> np.ndarray:
    """The weights clipped at zero and scaled to sum to one: the one check of
    channels and states.  Raises ValueError, naming the weight by its label,
    for a weight that is not finite or is below -neg_tol, and for a sum off 1
    by more than sum_tol (so a table of zeros too)."""
    vec = np.asarray(vec, dtype=float)
    bad = ~np.isfinite(vec)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"non-finite weight {labels[k]} = {vec[k]}")
    lo = vec.min()
    if lo < -neg_tol:
        raise ValueError(f"negative weight {labels[int(vec.argmin())]} = {lo}")
    vec = np.clip(vec, 0.0, None)
    total = vec.sum()
    if abs(total - 1.0) > sum_tol:
        raise ValueError(f"weights sum to {total}, expected 1")
    return vec / total


_JOINT_LABELS = tuple(f"f[{m}{n}]" for m in PAULI_LABELS for n in PAULI_LABELS)


def _validated(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float).reshape(4, 4)
    return _validated_vector(f.ravel(), _JOINT_LABELS, _SUM_TOL, _NEG_TOL).reshape(4, 4)


@dataclass(frozen=True)
class NoiseModel:
    """Joint Pauli error probabilities f[mu, nu] on the (source, target) qubits."""

    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _validated(self.f))
        self.f.setflags(write=False)

    @property
    def f00(self) -> float:
        """Probability that no error occurs."""
        return float(self.f[0, 0])

    def source_marginal(self) -> np.ndarray:
        return self.f.sum(axis=1)

    def target_marginal(self) -> np.ndarray:
        return self.f.sum(axis=0)

    def to_binary(self) -> "BinaryNoiseModel":
        """Inverse of :meth:`BinaryNoiseModel.embed`; requires support on {I, X}^2."""
        outside = self.f.sum() - self.f[:2, :2].sum()
        if outside > 1e-12:
            raise ValueError(f"channel has weight {outside} outside the (I, X) block")
        b = self.f[:2, :2]
        return BinaryNoiseModel(b[0, 0], b[0, 1], b[1, 0], b[1, 1])


@dataclass(frozen=True)
class BinaryNoiseModel:
    """Two-bit correlated spin-flip channel: I or X on each of the two qubits."""

    f00: float
    f01: float
    f10: float
    f11: float

    def __post_init__(self):
        names = ("f00", "f01", "f10", "f11")
        vec = _validated_vector([getattr(self, k) for k in names], names, _SUM_TOL, _NEG_TOL)
        for name, v in zip(names, vec):
            object.__setattr__(self, name, float(v))

    @property
    def fs(self) -> float:
        """Combined weight of the one-sided flips."""
        return self.f01 + self.f10

    def _table(self) -> np.ndarray:
        f = np.zeros((4, 4))
        f[:2, :2] = [[self.f00, self.f01], [self.f10, self.f11]]
        return f

    @cached_property
    def f(self) -> np.ndarray:
        """The joint Pauli table f[mu, nu] of the embedded channel, read-only.

        It is made once, and equals ``embed().f`` to the bit.
        """
        f = _validated(self._table())
        f.setflags(write=False)
        return f

    def embed(self) -> NoiseModel:
        return NoiseModel(self._table())

    @classmethod
    def uncorrelated(cls, f0: float) -> "BinaryNoiseModel":
        """Independent flips: no-flip probability f0 on each qubit."""
        if not 0.0 <= f0 <= 1.0:
            raise ValueError(f"f0 = {f0} outside [0, 1]")
        f1 = 1.0 - f0
        return cls(f0 * f0, f0 * f1, f1 * f0, f1 * f1)


def general(f16) -> NoiseModel:
    """Validate an arbitrary 16-entry probability table (any 4x4-shapeable array)."""
    return NoiseModel(np.asarray(f16, dtype=float).reshape(4, 4))


def product(fa, fb) -> NoiseModel:
    """Uncorrelated noise f[mu, nu] = fa[mu] * fb[nu] from two single-qubit tables."""
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if fa.shape != (4,) or fb.shape != (4,):
        raise ValueError("product expects two length-4 probability vectors")
    return NoiseModel(np.outer(fa, fb))


def one_qubit_white(f0: float) -> np.ndarray:
    """Single-qubit white noise: weight f0 on I, the rest split evenly."""
    if not 0.0 <= f0 <= 1.0:
        raise ValueError(f"f0 = {f0} outside [0, 1]")
    r = (1.0 - f0) / 3.0
    return np.array([f0, r, r, r])


def compose(n1: NoiseModel, n2: NoiseModel) -> NoiseModel:
    """Concatenation of two channels: xor-convolution of the label tables."""
    out = np.zeros((4, 4))
    labels = np.arange(4)
    for (m1, k1), w in np.ndenumerate(n1.f):
        out += w * n2.f[np.ix_(labels ^ m1, labels ^ k1)]
    return NoiseModel(out)


def _depolarizing_one(p: float) -> np.ndarray:
    # rho -> p rho + (1-p) * maximally mixed, as Pauli weights
    return np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)


def _depolarizing_two(p: float) -> NoiseModel:
    f = np.full((4, 4), (1.0 - p) / 16.0)
    f[0, 0] += p
    return NoiseModel(f)


def from_p1_p2(p1: float, p2: float, both_labs: bool = False) -> NoiseModel:
    """Combined one- and two-qubit white noise with reliabilities p1 and p2.

    Each qubit sees a one-qubit depolarizing channel (reliability p1) and the
    pair sees a two-qubit depolarizing channel (reliability p2).  With
    ``both_labs`` the parameters describe identical apparatus in both labs;
    depolarizing channels form a semigroup, so that equals a single-lab
    channel with squared reliabilities.
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError(f"reliabilities (p1, p2) = ({p1}, {p2}) outside [0, 1]")
    if both_labs:
        p1, p2 = p1 * p1, p2 * p2
    single = _depolarizing_one(p1)
    return compose(product(single, single), _depolarizing_two(p2))


def binary(f00: float, f01: float, f10: float, f11: float) -> BinaryNoiseModel:
    return BinaryNoiseModel(f00, f01, f10, f11)


# --- flat key-value (de)serialization ------------------------------------

def noise_to_config(model: NoiseModel | BinaryNoiseModel) -> dict[str, str]:
    if isinstance(model, BinaryNoiseModel):
        return {
            "model": "binary",
            "f00": repr(model.f00),
            "f01": repr(model.f01),
            "f10": repr(model.f10),
            "f11": repr(model.f11),
        }
    cfg = {"model": "general"}
    for mu in range(4):
        for nu in range(4):
            cfg[f"f.{PAULI_LABELS[mu]}{PAULI_LABELS[nu]}"] = repr(float(model.f[mu, nu]))
    return cfg


def _white_from_config(cfg: Mapping[str, str]) -> NoiseModel:
    w = one_qubit_white(float(cfg["f0"]))
    return product(w, w)


def _ideal_from_config(cfg: Mapping[str, str]) -> NoiseModel:
    w = one_qubit_white(1.0)
    return product(w, w)


_BINARY_KEYS = ("f00", "f01", "f10", "f11")


def _binary_from_config(cfg: Mapping[str, str]) -> BinaryNoiseModel:
    if "f0" not in cfg:
        return BinaryNoiseModel(*(float(cfg[key]) for key in _BINARY_KEYS))
    if any(key in cfg for key in _BINARY_KEYS):
        raise ValueError("model 'binary' takes f0 or f00..f11, not both")
    return BinaryNoiseModel.uncorrelated(float(cfg["f0"]))


def _p1p2_from_config(cfg: Mapping[str, str]) -> NoiseModel:
    both = cfg.get("both_labs", "false").strip().lower()
    if both not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"both_labs must be 1/true/yes or 0/false/no, got {cfg['both_labs']!r}")
    return from_p1_p2(float(cfg["p1"]), float(cfg["p2"]), both_labs=both in ("1", "true", "yes"))


_GENERAL_KEYS = tuple(f"f.{mu}{nu}" for mu in PAULI_LABELS for nu in PAULI_LABELS)


def _general_from_config(cfg: Mapping[str, str]) -> NoiseModel:
    missing = [key for key in _GENERAL_KEYS if key not in cfg]
    if missing:
        raise KeyError(f"missing channel weight {missing[0]}")
    return NoiseModel(np.array([float(cfg[key]) for key in _GENERAL_KEYS]).reshape(4, 4))


#: Every noise model a config can name: the keys it reads and its builder.
NOISE_MODELS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "white": (("f0",), _white_from_config),
    "binary": (("f0", *_BINARY_KEYS), _binary_from_config),
    "p1p2": (("p1", "p2", "both_labs"), _p1p2_from_config),
    "general": (_GENERAL_KEYS, _general_from_config),
    "ideal": ((), _ideal_from_config),
}
#: The keys of every model: a config holds only those of the model it names.
NOISE_KEYS = tuple(dict.fromkeys(key for keys, _ in NOISE_MODELS.values() for key in keys))


def noise_from_config(cfg: Mapping[str, str]) -> NoiseModel | BinaryNoiseModel:
    """Build a channel from flat key-value settings.

    ``model`` selects the family: ``white`` (key f0), ``ideal`` (no keys:
    the noiseless channel, white with f0 = 1), ``binary`` (keys f00..f11, or
    f0 for uncorrelated flips, not both), ``p1p2`` (keys p1, p2, optional
    both_labs: 1/true/yes or 0/false/no in any case, default false), or
    ``general`` (16 keys f.<mu><nu> with two-bit labels);
    ``NOISE_MODELS`` lists them.  Keys that are no model's are ignored.
    Raises ValueError for an unknown model or a key of another model, and
    KeyError for a missing key.
    """
    kind = cfg.get("model", "general")
    if kind not in NOISE_MODELS:
        raise ValueError(f"unknown noise model kind {kind!r}")
    keys, build = NOISE_MODELS[kind]
    foreign = [key for key in NOISE_KEYS if key in cfg and key not in keys]
    if foreign:
        raise ValueError(
            f"model {kind!r} does not read {', '.join(foreign)} "
            f"(its keys: {', '.join(keys) or 'none'})"
        )
    return build(cfg)
