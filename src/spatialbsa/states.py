"""Bell states, subsystem kinds, the balanced splitter and the outcome rule.

The analyzer's branch maps and the session's pair arrays are built from
these alone: the four Bell states and their amplitudes over (rail of photon
a, rail of photon b), the three subsystem kinds, the balanced splitter's
real Hadamard, the circular-diagonal basis the readout photon is measured
in, and ``_pick``, the package's one rule for turning a uniform into an
outcome.  The statevector register in ``register`` re-exports them; this
module never imports it, so a command does not load the register.
"""

import enum

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * SQRT_HALF

# The "da" basis of a polarization: columns (|R> + i|L>)/sqrt2 and
# (|R> - i|L>)/sqrt2 over (|R>, |L>), in which the readout photon is measured.
DA_BASIS = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) * SQRT_HALF


class ZeroNormError(ValueError):
    """A state carries no amplitude, so its outcome probabilities are undefined."""


class BellState(enum.Enum):
    """The four maximally entangled states of two spatial qubits."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


class Kind(enum.Enum):
    POLARIZATION = "polarization"
    SPATIAL = "spatial"
    SPIN = "spin"


_BELL_AMPLITUDES = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQRT_HALF,
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQRT_HALF,
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQRT_HALF,
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQRT_HALF,
}


def _pick(w0, w1, u):
    """Outcome 0 or 1 of one uniform ``u`` against the weights ``w0``, ``w1``.

    The outcome is 1 when ``u`` reaches the conditional probability of 0;
    a pick of a zero-weight outcome flips to the other one, a case only
    floating-point corners reach.  That makes the rule ``u >= w0 / (w0 + w1)``
    while ``w1`` is nonzero, and 0 otherwise.  It works elementwise, on
    floats and on arrays alike.
    """
    return (u >= w0 / (w0 + w1)) & (w1 != 0.0)
