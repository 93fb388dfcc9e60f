"""Dense state-vector register over named two-level subsystems.

A register holds a complex amplitude vector over the tensor product of its
subsystems.  Indexing is big-endian in subsystem order: the first subsystem
is the most significant bit of the flat index.  Amplitudes are not forced to
unit norm; a squared norm below one encodes the survival probability of a
photon that has met lossy optics, so norm bookkeeping is part of the state.

Subsystems come in three kinds with fixed basis conventions:

* polarization, basis (|R>, |L>) for right and left circular,
* spatial, basis (|mode1>, |mode2>) for the two rails,
* spin, basis (|up>, |down>).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * SQRT_HALF


class SubsystemKindError(ValueError):
    """An operation was applied to a subsystem of the wrong kind."""


class ZeroNormError(ValueError):
    """The register carries no amplitude, so probabilities are undefined."""


class Kind(enum.Enum):
    POLARIZATION = "polarization"
    SPATIAL = "spatial"
    SPIN = "spin"


@dataclass(frozen=True)
class Subsystem:
    """A named two-level degree of freedom."""

    name: str
    kind: Kind


class BellState(enum.Enum):
    """The four maximally entangled states of two spatial qubits."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def even_parity(self) -> bool:
        """True when both photons occupy the same-numbered rail."""
        return self in (BellState.PHI_PLUS, BellState.PHI_MINUS)

    @classmethod
    def from_string(cls, text: str) -> "BellState":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown Bell state label {text!r}")


class RailOp(enum.Enum):
    """Single-photon operations on the two spatial rails.

    These four operations move a shared Bell state anywhere in the Bell
    basis while touching only one photon, which is what dense coding needs.
    """

    IDENTITY = "identity"
    SWAP = "swap"
    PHASE = "phase"
    SWAP_PHASE = "swap_phase"


_RAIL_OP_MATRICES = {
    RailOp.IDENTITY: np.eye(2, dtype=complex),
    RailOp.SWAP: np.array([[0, 1], [1, 0]], dtype=complex),
    RailOp.PHASE: np.array([[1, 0], [0, -1]], dtype=complex),
    RailOp.SWAP_PHASE: np.array([[0, 1], [-1, 0]], dtype=complex),
}

# Measurement bases per kind.  Columns are the basis kets expressed in the
# subsystem's native basis.  "da" is the circular-diagonal pair
# (|R> + i|L>)/sqrt2, (|R> - i|L>)/sqrt2 used for the readout photon.
_BASES = {
    Kind.SPATIAL: {
        "z": np.eye(2, dtype=complex),
        "x": HADAMARD.copy(),
    },
    Kind.SPIN: {
        "z": np.eye(2, dtype=complex),
        "x": HADAMARD.copy(),
    },
    Kind.POLARIZATION: {
        "rl": np.eye(2, dtype=complex),
        "da": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) * SQRT_HALF,
    },
}


def basis_vectors(kind: Kind, basis: str) -> np.ndarray:
    """Return the 2x2 matrix whose columns are the kets of a named basis."""
    try:
        return _BASES[kind][basis]
    except KeyError:
        raise ValueError(f"no basis {basis!r} for kind {kind.value}") from None


def _pick(w0, w1, u):
    """Outcome 0 or 1 of one uniform ``u`` against the weights ``w0``, ``w1``.

    The outcome is 1 when ``u`` reaches the conditional probability of 0;
    a pick of a zero-weight outcome flips to the other one, a case only
    floating-point corners reach.  That makes the rule ``u >= w0 / (w0 + w1)``
    while ``w1`` is nonzero, and 0 otherwise.  It works elementwise, on
    floats and on arrays alike.
    """
    return (u >= w0 / (w0 + w1)) & (w1 != 0.0)


class QuantumRegister:
    """A pure state over an ordered list of named two-level subsystems."""

    def __init__(self, subsystems, amplitudes):
        subsystems = list(subsystems)
        names = [s.name for s in subsystems]
        if len(set(names)) != len(names):
            raise ValueError("duplicate subsystem names")
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2 ** len(subsystems),):
            raise ValueError(
                f"expected {2 ** len(subsystems)} amplitudes, got {amps.shape[0]}"
            )
        self.subsystems = subsystems
        self.amplitudes = amps

    @property
    def n(self) -> int:
        return len(self.subsystems)

    def axis(self, name: str) -> int:
        for k, sub in enumerate(self.subsystems):
            if sub.name == name:
                return k
        raise KeyError(f"no subsystem named {name!r}")

    def subsystem(self, name: str) -> Subsystem:
        return self.subsystems[self.axis(name)]

    def require_kind(self, name: str, kind: Kind) -> None:
        sub = self.subsystem(name)
        if sub.kind is not kind:
            raise SubsystemKindError(
                f"subsystem {name!r} is {sub.kind.value}, expected {kind.value}"
            )

    def copy(self) -> "QuantumRegister":
        return QuantumRegister(list(self.subsystems), self.amplitudes.copy())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.n)

    def _set_tensor(self, psi: np.ndarray) -> None:
        self.amplitudes = np.ascontiguousarray(psi).reshape(-1)

    def apply_one(self, name: str, matrix) -> "QuantumRegister":
        """Apply a 2x2 matrix to one subsystem, in place."""
        k = self.axis(name)
        m = np.asarray(matrix, dtype=complex)
        psi = np.tensordot(m, self._tensor(), axes=([1], [k]))
        self._set_tensor(np.moveaxis(psi, 0, k))
        return self

    def apply_diagonal(self, names, diag) -> "QuantumRegister":
        """Multiply amplitudes by a diagonal factor over the named subsystems.

        ``diag`` holds one complex factor per joint basis state of the named
        subsystems, in big-endian order over ``names``.
        """
        axes = [self.axis(name) for name in names]
        if len(set(axes)) != len(axes):
            raise ValueError("apply_diagonal needs distinct subsystems")
        d = np.asarray(diag, dtype=complex).reshape([2] * len(axes))
        front = list(range(len(axes)))
        psi = np.moveaxis(self._tensor(), axes, front)
        psi = psi * d.reshape(list(d.shape) + [1] * (self.n - len(axes)))
        self._set_tensor(np.moveaxis(psi, front, axes))
        return self

    def probabilities(self, name: str, basis: str) -> np.ndarray:
        """Outcome probabilities for measuring one subsystem in a named basis.

        Probabilities are conditioned on the register's current norm, so they
        sum to one even when the state has been attenuated by lossy optics.
        """
        norm2 = self.norm_squared()
        if norm2 <= 0.0:
            raise ZeroNormError("cannot take probabilities of a zero state")
        comp = self._components(name, basis)
        p = (np.abs(comp) ** 2).reshape(2, -1).sum(axis=1)
        return p / p.sum()

    def _components(self, name: str, basis: str) -> np.ndarray:
        vs = basis_vectors(self.subsystem(name).kind, basis)
        k = self.axis(name)
        return np.tensordot(vs.conj().T, self._tensor(), axes=([1], [k]))

    def measure(self, name: str, basis: str, rng) -> tuple[int, "QuantumRegister", float]:
        """Projectively measure one subsystem, collapsing the register.

        The outcome index (0 or 1, ordering the basis kets) is chosen by
        cumulative-probability inversion of a single uniform draw from
        ``rng``.  The collapsed register keeps its pre-measurement norm, so
        accumulated loss survives the collapse; on a unit-norm register this
        is ordinary renormalization.  Returns (outcome, register, the
        conditional probability of the chosen outcome).
        """
        norm2 = self.norm_squared()
        if norm2 <= 0.0:
            raise ZeroNormError("cannot measure a zero state")
        k = self.axis(name)
        vs = basis_vectors(self.subsystem(name).kind, basis)
        comp = self._components(name, basis)
        weights = (np.abs(comp) ** 2).reshape(2, -1).sum(axis=1)
        p = weights / weights.sum()
        outcome = int(_pick(weights[0], weights[1], rng.random()))
        branch = comp[outcome]
        scale = np.sqrt(norm2 / weights[outcome])
        psi = np.multiply.outer(vs[:, outcome], branch) * scale
        self._set_tensor(np.moveaxis(psi, 0, k))
        return outcome, self, float(p[outcome])

    def add_subsystem(self, sub: Subsystem, state) -> "QuantumRegister":
        """Tensor a fresh subsystem onto the end of the register."""
        if any(s.name == sub.name for s in self.subsystems):
            raise ValueError(f"subsystem {sub.name!r} already present")
        chi = np.asarray(state, dtype=complex).reshape(-1)
        if chi.shape != (2,):
            raise ValueError("subsystem state must have two amplitudes")
        self.subsystems.append(sub)
        self.amplitudes = np.kron(self.amplitudes, chi)
        return self

    def equal_up_to_global_phase(self, other: "QuantumRegister", atol: float = 1e-9) -> bool:
        """True when both registers hold the same state modulo a global phase."""
        if [(s.name, s.kind) for s in self.subsystems] != [
            (s.name, s.kind) for s in other.subsystems
        ]:
            return False
        overlap = abs(np.vdot(self.amplitudes, other.amplitudes))
        scale = np.linalg.norm(self.amplitudes) * np.linalg.norm(other.amplitudes)
        return bool(abs(overlap - scale) <= atol)


_BELL_AMPLITUDES = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQRT_HALF,
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQRT_HALF,
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQRT_HALF,
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQRT_HALF,
}

_POLARIZATION_KETS = {
    "R": np.array([1, 0], dtype=complex),
    "L": np.array([0, 1], dtype=complex),
}


def make_bell(label: BellState, with_polarization: str | None = None) -> QuantumRegister:
    """Build a two-photon spatial Bell state on subsystems "a" and "b".

    With ``with_polarization`` set to "R" or "L", each photon also gets a
    polarization subsystem ("a_pol", "b_pol") in that circular state.
    """
    reg = QuantumRegister(
        [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
        _BELL_AMPLITUDES[label].copy(),
    )
    if with_polarization is not None:
        try:
            ket = _POLARIZATION_KETS[with_polarization]
        except KeyError:
            raise ValueError(
                f"polarization must be 'R' or 'L', got {with_polarization!r}"
            ) from None
        reg.add_subsystem(Subsystem("a_pol", Kind.POLARIZATION), ket)
        reg.add_subsystem(Subsystem("b_pol", Kind.POLARIZATION), ket)
    return reg


def apply_bs(reg: QuantumRegister, name: str) -> QuantumRegister:
    """Mix the two rails of one spatial qubit on a balanced beam splitter.

    The splitter acts as the real Hadamard: mode1 -> (mode1 + mode2)/sqrt2,
    mode2 -> (mode1 - mode2)/sqrt2.  Applying it to both photons of a Bell
    state permutes the Bell basis while leaving phi+ and psi- fixed.
    """
    reg.require_kind(name, Kind.SPATIAL)
    return reg.apply_one(name, HADAMARD)


def apply_spatial_unitary(reg: QuantumRegister, name: str, op: RailOp) -> QuantumRegister:
    """Apply one of the four rail operations to a spatial qubit."""
    reg.require_kind(name, Kind.SPATIAL)
    return reg.apply_one(name, _RAIL_OP_MATRICES[op])

