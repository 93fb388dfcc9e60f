"""Dense state-vector register over named two-level subsystems.

A register holds a complex amplitude vector over the tensor product of its
subsystems.  Indexing is big-endian in subsystem order: the first subsystem
is the most significant bit of the flat index.  Amplitudes are not forced to
unit norm; a squared norm below one encodes the survival probability of a
photon that has met lossy optics, so norm bookkeeping is part of the state.
A register is the analyzer's input and the reference its exact branch maps
are checked against; it is never measured.  A session's measurement
collapse follows ``qsdc.measure_photon``'s rule, on pair rows, by ``_pick``.

Subsystems come in three kinds with fixed basis conventions:

* polarization, basis (|R>, |L>) for right and left circular,
* spatial, basis (|mode1>, |mode2>) for the two rails,
* spin, basis (|up>, |down>).
"""

from typing import NamedTuple

import numpy as np

# What the analyzer's maps and the session use lives in ``states``, which the
# commands import without this module; it is re-exported here.
from .states import (  # noqa: F401
    _BELL_AMPLITUDES,
    DA_BASIS,
    HADAMARD,
    SQRT_HALF,
    BellState,
    Kind,
    ZeroNormError,
    _pick,
)


class SubsystemKindError(ValueError):
    """An operation was applied to a subsystem of the wrong kind."""


class Subsystem(NamedTuple):
    """A named two-level degree of freedom."""

    name: str
    kind: Kind


# Measurement bases per kind.  Columns are the basis kets expressed in the
# subsystem's native basis.  "da" is the readout photon's circular-diagonal
# pair, ``states.DA_BASIS``.
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
        "da": DA_BASIS,
    },
}


def basis_vectors(kind: Kind, basis: str) -> np.ndarray:
    """Return the 2x2 matrix whose columns are the kets of a named basis."""
    try:
        return _BASES[kind][basis]
    except KeyError:
        raise ValueError(f"no basis {basis!r} for kind {kind.value}") from None


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
        if self.norm_squared() <= 0.0:
            raise ZeroNormError("cannot take probabilities of a zero state")
        vs = basis_vectors(self.subsystem(name).kind, basis)
        comp = np.tensordot(vs.conj().T, self._tensor(), axes=([1], [self.axis(name)]))
        p = (np.abs(comp) ** 2).reshape(2, -1).sum(axis=1)
        return p / p.sum()

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

