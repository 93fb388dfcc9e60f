"""Deterministic Bell-state analyzer for two spatial-mode qubits.

The analyzer distinguishes all four Bell states of two dual-rail photons in
three stages:

1. Parity check: rail 1 of each photon is routed through the dot-cavity and
   bounces twice, the second pass after a half-wave correction that cancels
   the sign left on |L>.  Even-parity states (both photons on equal rails)
   leave a spin prepared in |+> untouched; odd-parity states flip it to |->.
2. Spin readout: the spin is Hadamard-rotated and probed with one auxiliary
   photon in a single pass; measuring the photon in the circular-diagonal
   basis reveals whether the spin flipped without touching the signal pair.
3. Sign check: each photon's rails interfere on a balanced splitter and both
   photons are detected.  Coincidences on equal-numbered detectors versus
   mixed pairs separate the + from the - superpositions.

Together the flip bit and the detector pair identify the Bell state:

    unchanged, equal pair  -> phi+        changed, equal pair  -> psi+
    unchanged, mixed pair  -> phi-        changed, mixed pair  -> psi-

``analyze`` does not run the stages gate by gate on every call.  The
analyzer is a fixed linear map on the two photons' rails and polarizations,
so the stage functions are driven once per operating point over the 16 input
basis kets, giving one linear map per outcome branch (flip bit, detector of
photon a, detector of photon b).  An input's exact joint distribution over
those eight branches is a contraction with these maps, cached per Bell-state
label; a run then draws three uniforms, for the readout photon, photon a and
photon b in that order, which is the draw order the stages themselves use.

The module also scores the analyzer against realistic cavity amplitudes:
fidelity and efficiency of the two measurement rounds as functions of the
cold and hot reflection moduli, and the extra fidelity factor from electron
spin dephasing between the rounds.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, reflection, scatter_factors, scatter_photon
from .register import (
    BellState,
    Kind,
    QuantumRegister,
    SQRT_HALF,
    Subsystem,
    ZeroNormError,
    apply_bs,
    basis_vectors,
    hadamard_spin,
    make_bell,
)

SPIN_NAME = "spin"
AUX_NAME = "aux_pol"
_PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)


class DetectorPair(enum.Enum):
    """Which detector clicked for photon a (c side) and photon b (d side)."""

    C1D1 = "c1d1"
    C1D2 = "c1d2"
    C2D1 = "c2d1"
    C2D2 = "c2d2"

    @property
    def equal_numbered(self) -> bool:
        return self in (DetectorPair.C1D1, DetectorPair.C2D2)


@dataclass(frozen=True)
class BsaRecord:
    """Outcome of one analyzer run."""

    spin_changed: bool
    detectors: DetectorPair
    inferred: BellState
    success_probability: float


@dataclass(frozen=True)
class QualityPoint:
    """Analyzer quality figures at one cavity operating point.

    F1/eta1 score the odd-parity round (two double passes), F2/eta2 the even
    round including the single-pass readout.  eta2 is reported exactly as the
    even-round formula gives it; it reaches 1.5 in the lossless limit because
    that formula counts the heralded readout photon on top of the pair.
    """

    g_over_ktot: float
    ks_over_k: float
    abs_r0: float
    abs_rh: float
    F1: float
    eta1: float
    F2: float
    eta2: float


@dataclass(frozen=True)
class DecoherenceParams:
    """Spin dephasing between the two rounds: gap delta_t and coherence time t2e."""

    delta_t: float
    t2e: float

    def __post_init__(self):
        if not (self.delta_t > 0.0):
            raise ValueError("delta_t must be positive")
        if not (self.t2e > 0.0):
            raise ValueError("t2e must be positive")


def parity_qnd(
    reg: QuantumRegister,
    spin_name: str = SPIN_NAME,
    params: CavityParams | None = None,
    ideal: bool = True,
) -> QuantumRegister:
    """Imprint the rail parity of a photon pair onto the cavity spin.

    Each photon's rail 1 is routed through the cavity for a corrected double
    pass while rail 2 flies by.  A spin prepared in |+> stays in |+> for
    even parity and ends in |-> for odd parity, up to a global sign, without
    measuring the photons.  The spin must enter in |+> or |-> exactly.
    """
    reg.require_kind(spin_name, Kind.SPIN)
    p_minus = reg.probabilities(spin_name, "x")[1]
    if 1e-9 < p_minus < 1.0 - 1e-9:
        raise ValueError(
            f"spin {spin_name!r} must start in |+> or |-> "
            f"(|-> weight {p_minus:.3g})"
        )
    factors = scatter_factors(params, ideal, passes=2)
    for spatial_name, pol_name in (("a", "a_pol"), ("b", "b_pol")):
        reg.require_kind(spatial_name, Kind.SPATIAL)
        reg.require_kind(pol_name, Kind.POLARIZATION)
        # Rail 1 (index 0) scatters, rail 2 passes untouched.
        diag = np.ones((2, 2, 2), dtype=complex)
        diag[0] = factors.reshape(2, 2)
        reg.apply_diagonal([spatial_name, pol_name, spin_name], diag)
        # Half-wave correction on the cavity rail flips the sign of |L>.
        correction = np.ones((2, 2), dtype=complex)
        correction[0, 1] = -1.0
        reg.apply_diagonal([spatial_name, pol_name], correction)
    return reg


def _probe_spin(
    reg: QuantumRegister, spin_name: str, params: CavityParams | None, ideal: bool
) -> QuantumRegister:
    """Hadamard-rotate the spin and bounce one linearly polarized photon off it once."""
    hadamard_spin(reg, spin_name)
    reg.add_subsystem(Subsystem(AUX_NAME, Kind.POLARIZATION), _PLUS)
    return scatter_photon(reg, AUX_NAME, spin_name, params, passes=1, ideal=ideal)


def spin_readout(
    reg: QuantumRegister,
    spin_name: str = SPIN_NAME,
    params: CavityParams | None = None,
    ideal: bool = True,
    rng=None,
) -> tuple[bool, QuantumRegister]:
    """Read whether the spin left the |+> state, using one auxiliary photon.

    The spin is Hadamard-rotated, a linearly polarized photon makes a single
    cavity pass, and the photon is measured in the circular-diagonal basis.
    Outcome (|R> - i|L>)/sqrt2 flags a flipped spin.  The auxiliary photon is
    removed again before returning.
    """
    if rng is None:
        rng = np.random.default_rng()
    _probe_spin(reg, spin_name, params, ideal)
    outcome, _, _ = reg.measure(AUX_NAME, "da", rng)
    reg.remove_subsystem(AUX_NAME)
    return outcome == 1, reg


_DETECTOR_MAP = {
    (0, 0): DetectorPair.C1D1,
    (0, 1): DetectorPair.C1D2,
    (1, 0): DetectorPair.C2D1,
    (1, 1): DetectorPair.C2D2,
}


def detect(reg: QuantumRegister, rng) -> DetectorPair:
    """Measure both spatial qubits after the splitters and name the click pair."""
    a_out, _, _ = reg.measure("a", "z", rng)
    b_out, _, _ = reg.measure("b", "z", rng)
    return _DETECTOR_MAP[(a_out, b_out)]


def classify(spin_changed: bool, detectors: DetectorPair) -> BellState:
    """Map the flip bit and detector pair to the identified Bell state."""
    if spin_changed:
        return BellState.PSI_PLUS if detectors.equal_numbered else BellState.PSI_MINUS
    return BellState.PHI_PLUS if detectors.equal_numbered else BellState.PHI_MINUS


# The analyzer's input: both photons' rails and polarizations, in this order.
_INPUTS = (
    Subsystem("a", Kind.SPATIAL),
    Subsystem("b", Kind.SPATIAL),
    Subsystem("a_pol", Kind.POLARIZATION),
    Subsystem("b_pol", Kind.POLARIZATION),
)


@functools.lru_cache(maxsize=64)
def _branch_maps(params: CavityParams | None, ideal: bool) -> np.ndarray:
    """The analyzer's linear map onto each outcome branch, shape (8, 8, 2, 2, 2, 2).

    Entry [(k, j, l), out, a, b, a_pol, b_pol] is the amplitude with which
    the input ket |a, b, a_pol, b_pol> leaves the readout photon on outcome
    k, photons a and b on detectors c(j+1) and d(l+1), and (a_pol, b_pol,
    spin) in ket ``out``.  Each input ket runs through the stage functions;
    the branches are projections instead of measurements.
    """
    readout_kets = basis_vectors(Kind.POLARIZATION, "da")
    columns = []
    for ket in np.eye(16, dtype=complex):
        reg = QuantumRegister(_INPUTS, ket)
        reg.add_subsystem(Subsystem(SPIN_NAME, Kind.SPIN), _PLUS)
        parity_qnd(reg, SPIN_NAME, params, ideal)
        _probe_spin(reg, SPIN_NAME, params, ideal)
        apply_bs(reg, "a")
        apply_bs(reg, "b")
        # Axes (a, b, a_pol+b_pol+spin, aux); project aux on the readout kets.
        psi = reg.amplitudes.reshape(2, 2, 8, 2)
        columns.append(np.einsum("xk,jlox->kjlo", readout_kets.conj(), psi))
    maps = np.stack(columns, axis=-1).reshape(8, 8, 2, 2, 2, 2)
    maps.setflags(write=False)
    return maps


class OutcomeDistribution:
    """Exact outcome probabilities of one analyzer run on one input.

    ``joint[k, j, l]`` is the probability that every photon arrives, the
    readout photon gives k (1 flags a changed spin), and photons a and b
    click detectors c(j+1) and d(l+1).  ``success`` is the sum of all eight,
    the survival probability.  The three draws of a run choose between the
    pairs of weights ``readout``, then ``photon_a[k]``, then
    ``photon_b[k][j]``, each pair summing the joint entries below it.
    """

    def __init__(self, joint: np.ndarray):
        joint.setflags(write=False)
        self.joint = joint
        self.photon_b = tuple(tuple(tuple(pair) for pair in rows) for rows in joint.tolist())
        self.photon_a = tuple(tuple(b0 + b1 for b0, b1 in rows) for rows in self.photon_b)
        self.readout = tuple(a0 + a1 for a0, a1 in self.photon_a)
        self.success = self.readout[0] + self.readout[1]


def _distribution(reg: QuantumRegister, maps: np.ndarray) -> OutcomeDistribution:
    present = {s.name for s in reg.subsystems}
    for name in (SPIN_NAME, AUX_NAME):
        if name in present:
            raise ValueError(f"subsystem {name!r} already present")
    axes, inputs = [], []
    for sub in _INPUTS:
        if sub.kind is Kind.POLARIZATION and sub.name not in present:
            inputs.append(0)  # a missing polarization enters as |R>
        else:
            reg.require_kind(sub.name, sub.kind)
            axes.append(reg.axis(sub.name))
            inputs.append(slice(None))
    branch = maps[(slice(None), slice(None), *inputs)].reshape(8, 8, -1)
    psi = np.moveaxis(reg.amplitudes.reshape([2] * reg.n), axes, range(len(axes)))
    out = branch @ psi.reshape(branch.shape[-1], -1)
    return OutcomeDistribution((out.real**2 + out.imag**2).sum(axis=(1, 2)).reshape(2, 2, 2))


@functools.lru_cache(maxsize=256)
def _label_distribution(
    label: BellState, params: CavityParams | None, ideal: bool
) -> OutcomeDistribution:
    return _distribution(
        make_bell(label, with_polarization="R"), _branch_maps(params, ideal)
    )


def outcome_distribution(
    state: BellState | QuantumRegister,
    params: CavityParams | None = None,
    ideal: bool = True,
) -> OutcomeDistribution:
    """Exact joint distribution of the analyzer's outcomes on one input.

    The input is read as in ``analyze``.  The branch maps are built once per
    operating point (every ideal call shares one), and a Bell-state label's
    distribution is cached with them.
    """
    point = (None, True) if ideal else (params, False)
    if isinstance(state, BellState):
        return _label_distribution(state, *point)
    return _distribution(state, _branch_maps(*point))


def _pick(weights: tuple[float, float], rng) -> int:
    # QuantumRegister.measure's rule: one uniform against the conditional
    # probability of outcome 0, and a pick of a zero-weight outcome flips.
    w0, w1 = weights
    outcome = 0 if rng.random() < w0 / (w0 + w1) else 1
    return 1 - outcome if weights[outcome] == 0.0 else outcome


def analyze(
    state: BellState | QuantumRegister,
    params: CavityParams | None = None,
    ideal: bool = True,
    rng=None,
) -> BsaRecord:
    """Run the full analyzer once on a Bell state or a prepared register.

    A BellState label stands for the standard two-photon state with |R>
    polarizations; in a register, photons a and b without polarization
    subsystems enter with |R>.  The register is not modified.  The outcome
    is drawn from the exact joint distribution with three uniforms from
    ``rng``: readout photon, photon a, photon b.  ``success_probability``
    is the chance that both photons and the readout photon actually arrive.
    """
    if rng is None:
        rng = np.random.default_rng()
    dist = outcome_distribution(state, params, ideal)
    if not dist.success > 0.0:
        raise ZeroNormError("no amplitude reaches the detectors")
    k = _pick(dist.readout, rng)
    j = _pick(dist.photon_a[k], rng)
    pair = _DETECTOR_MAP[(j, _pick(dist.photon_b[k][j], rng))]
    changed = k == 1
    return BsaRecord(
        spin_changed=changed,
        detectors=pair,
        inferred=classify(changed, pair),
        success_probability=dist.success,
    )


def quality_from_moduli(r0: float, rh: float) -> tuple[float, float, float, float]:
    """(F1, eta1, F2, eta2) from the cold and hot reflection moduli.

    F1/eta1: fidelity and efficiency of identifying an odd-parity state, in
    which each photon makes a corrected double pass and the two rails see
    amplitude imbalance r0^2 versus rh^2 per photon.  F2/eta2: the same for
    an even-parity state, whose identification additionally spends the
    single-pass readout photon.  The formulas keep their raw normalization;
    see QualityPoint for the eta2 > 1 consequence.
    """
    r0_2, rh_2 = r0 * r0, rh * rh
    r0_3, rh_3 = r0_2 * r0, rh_2 * rh
    r0_4, rh_4 = r0_2 * r0_2, rh_2 * rh_2
    r0_5, rh_5 = r0_4 * r0, rh_4 * rh

    f1_num = (r0_3 + rh_3 + r0_2 * rh + r0 * rh_2) ** 2
    f1_den = 4.0 * (r0_3 * r0_3 + rh_3 * rh_3 + r0_4 * rh_2 + r0_2 * rh_4)
    f2_den = 8.0 * (r0_5 * r0_5 + rh_5 * rh_5 + r0_4 * r0_4 * rh_2 + r0_2 * rh_4 * rh_4)
    if f1_den == 0.0 or f2_den == 0.0:
        raise ValueError("degenerate parameters: the fidelities need nonzero reflection")
    f1 = f1_num / f1_den

    eta1 = 0.5 * r0_4 + 0.5 * rh_4

    f2_first = (r0_5 + rh_5 + r0_4 * rh + r0 * rh_4) ** 2 / f2_den
    f2_second = (r0 + rh) ** 2 / (4.0 * (r0_2 + rh_2))
    f2 = f2_first + f2_second

    eta2 = 0.5 + (0.5 * r0_4 + 0.5 * rh_4) ** 2
    return f1, eta1, f2, eta2


def quality(params: CavityParams) -> QualityPoint:
    """Score the analyzer at one cavity operating point."""
    abs_r0 = abs(reflection(params, coupled=False))
    abs_rh = abs(reflection(params, coupled=True))
    f1, eta1, f2, eta2 = quality_from_moduli(abs_r0, abs_rh)
    return QualityPoint(
        g_over_ktot=params.g_over_ktot,
        ks_over_k=params.ks_over_k,
        abs_r0=abs_r0,
        abs_rh=abs_rh,
        F1=f1,
        eta1=eta1,
        F2=f2,
        eta2=eta2,
    )


def decoherence_factor(params: DecoherenceParams) -> float:
    """Fidelity factor from spin dephasing over the gap between the rounds.

    Exponential phase damping with time constant t2e leaves the parity
    information intact with probability (1 + exp(-delta_t/t2e)) / 2, which
    decays from 1 toward the coin-flip value 1/2.
    """
    return 0.5 * (1.0 + math.exp(-params.delta_t / params.t2e))
