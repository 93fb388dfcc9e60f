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

``analyze`` does not run the stages gate by gate.  The analyzer is a fixed
linear map that the cavity enters only through the cold and hot reflection
amplitudes, so its map onto each outcome branch (flip bit, detector of
photon a, detector of photon b) is built once per operating point by array
algebra; ``parity_qnd`` (here) and ``apply_bs`` (in ``register``) stay as
its register reference.  A register comes in only as an argument, so this
module imports ``register`` for type checks alone, and no command loads it.
An input's exact joint distribution over the eight branches is a
contraction with these maps, cached per Bell-state label; a run then draws
three uniforms, for the readout photon, photon a and photon b in that order.
``analyze_pairs`` runs the ideal analyzer on every row of a pair array in
one pass: a contraction with the same maps, and the same pick.  It is the
per-row reference for ``_analyze_table``, which a session runs on its table
of distinct pair rows.
A Bell-state label's distribution is that contraction on the label's row.

The module also scores the analyzer against realistic cavity amplitudes:
fidelity and efficiency of the two measurement rounds as functions of the
cold and hot reflection moduli, and the extra fidelity factor from electron
spin dephasing between the rounds.
"""

import enum
import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .cavity import (
    CavityParams, Frozen, check_number, hot_reflection, reflection, scatter_factors,
)
from .states import (_BELL_AMPLITUDES, DA_BASIS, HADAMARD, SQRT_HALF, BellState, Kind,
                     ZeroNormError, _pick)

if TYPE_CHECKING:
    from .register import QuantumRegister

SPIN_NAME = "spin"
AUX_NAME = "aux_pol"


class DetectorPair(enum.Enum):
    """Detectors c(j+1) and d(l+1) clicked for photons a and b, in order of 2*j + l."""

    C1D1 = "c1d1"
    C1D2 = "c1d2"
    C2D1 = "c2d1"
    C2D2 = "c2d2"


class BsaRecord(NamedTuple):
    """Outcome of one analyzer run."""

    spin_changed: bool
    detectors: DetectorPair
    inferred: BellState
    success_probability: float


class QualityPoint(NamedTuple):
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


QUALITY_FIELDS = QualityPoint._fields


class DecoherenceParams(Frozen):
    """Spin dephasing between the two rounds: gap delta_t and coherence time t2e."""

    __slots__ = ("delta_t", "t2e")

    def __init__(self, delta_t: float, t2e: float):
        delta_t, t2e = check_number("delta_t", delta_t), check_number("t2e", t2e)
        if not (delta_t > 0.0):
            raise ValueError("delta_t must be positive")
        if not (t2e > 0.0):
            raise ValueError("t2e must be positive")
        self._set(delta_t, t2e)


# Diagonal over (rail, polarization): the half-wave correction on rail 1
# flips the sign of |L>.
_HALF_WAVE = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)


def _double_pass(params: CavityParams | None) -> np.ndarray:
    """Factors over (rail, polarization, spin): rail 1 scatters twice, rail 2 flies by."""
    diag = np.ones((2, 2, 2), dtype=complex)
    diag[0] = scatter_factors(params, passes=2).reshape(2, 2)
    return diag


def parity_qnd(reg: "QuantumRegister", params: CavityParams | None = None) -> "QuantumRegister":
    """Imprint the rail parity of a photon pair onto the cavity spin.

    Each photon's rail 1 is routed through the cavity for a corrected double
    pass while rail 2 flies by.  A spin prepared in |+> stays in |+> for
    even parity and ends in |-> for odd parity, up to a global sign, without
    measuring the photons.  The spin must enter in |+> or |-> exactly.
    ``params`` None is the ideal cavity.
    """
    reg.require_kind(SPIN_NAME, Kind.SPIN)
    p_minus = reg.probabilities(SPIN_NAME, "x")[1]
    if 1e-9 < p_minus < 1.0 - 1e-9:
        raise ValueError(
            f"spin {SPIN_NAME!r} must start in |+> or |-> "
            f"(|-> weight {p_minus:.3g})"
        )
    double_pass = _double_pass(params)
    for spatial_name, pol_name in (("a", "a_pol"), ("b", "b_pol")):
        reg.require_kind(spatial_name, Kind.SPATIAL)
        reg.require_kind(pol_name, Kind.POLARIZATION)
        reg.apply_diagonal([spatial_name, pol_name, SPIN_NAME], double_pass)
        reg.apply_diagonal([spatial_name, pol_name], _HALF_WAVE)
    return reg


# The analyzer's input: both photons' rails and polarizations, in this order,
# each with its subsystem kind.
_INPUTS = (("a", Kind.SPATIAL), ("b", Kind.SPATIAL),
           ("a_pol", Kind.POLARIZATION), ("b_pol", Kind.POLARIZATION))


@functools.lru_cache(maxsize=64)
def _branch_maps(params: CavityParams | None) -> np.ndarray:
    """The analyzer's linear map onto each outcome branch, shape (8, 8, 2, 2, 2, 2).

    Entry [(k, j, l), out, a, b, a_pol, b_pol] is the amplitude with which
    the input ket |a, b, a_pol, b_pol> leaves the readout photon on outcome
    k, photons a and b on detectors c(j+1) and d(l+1), and (a_pol, b_pol,
    spin) in ket ``out``.  Every stage but the spin Hadamard and the readout
    projection is a product over the axes (a, b, a_pol, b_pol, spin, readout
    photon); they run in the order ``parity_qnd``, the probe and ``apply_bs``
    apply them on a register, which fixes every bit of the result.
    """
    rail = _double_pass(params)
    # Parity pass, photon a then photon b, on a spin that enters in |+>.
    psi = SQRT_HALF * rail[:, None, :, None, :] * _HALF_WAVE[:, None, :, None, None]
    psi = psi * rail[None, :, None, :, :] * _HALF_WAVE[None, :, None, :, None]
    # Probe: spin Hadamard, then one pass of a readout photon in |R> + |L>.
    psi = np.moveaxis(np.tensordot(HADAMARD, psi, axes=([1], [4])), 0, 4)
    probe = scatter_factors(params, passes=1).reshape(2, 2)  # (photon, spin)
    psi = psi[..., None] * SQRT_HALF * probe.T
    # Splitters, photon a then photon b: axes (j, l, a, b, a_pol, b_pol, spin, photon).
    psi = HADAMARD.reshape(2, 1, 2, 1, 1, 1, 1, 1) * psi
    psi = HADAMARD.reshape(1, 2, 1, 2, 1, 1, 1, 1) * psi
    out = np.einsum("xk,...x->k...", DA_BASIS.conj(), psi)
    # Polarizations leave as they entered: the map is zero off that diagonal.
    maps = np.zeros((8, 8, 2, 2, 2, 2), dtype=complex)
    np.einsum("kjlpqsabpq->kjlabpqs", maps.reshape((2,) * 10))[...] = out
    maps.setflags(write=False)
    return maps


def _branch_weights(photon_b: np.ndarray) -> np.ndarray:
    """The 14 weights the three draws of a run compare, from joint (..., 8).

    In order: ``readout`` (2), ``photon_a[k][j]`` (4) and ``photon_b[k][j][l]``
    (8), each pair summing the joint entries below it.
    """
    photon_a = photon_b[..., 0::2] + photon_b[..., 1::2]
    readout = photon_a[..., 0::2] + photon_a[..., 1::2]
    return np.concatenate([readout, photon_a, photon_b], axis=-1)


def _pick_branch(weights, u_readout, u_a, u_b, base=0):
    """Walk the three draws of a run down the flat branch weights.

    ``weights`` holds the 14 weights of ``_branch_weights`` at offset
    ``base``.  Called with a tuple, three floats and base 0 it picks one
    run's (k, j, l); called with the rows' weights flattened, three arrays of
    uniforms and ``base`` the row offsets, it picks every row's at once.
    """
    k = _pick(weights[base], weights[base + 1], u_readout)
    i = base + 2 + 2 * k
    j = _pick(weights[i], weights[i + 1], u_a)
    i = base + 6 + 4 * k + 2 * j
    return k, j, _pick(weights[i], weights[i + 1], u_b)


class OutcomeDistribution:
    """Exact outcome probabilities of one analyzer run on one input.

    ``joint[k, j, l]`` is the probability that every photon arrives, the
    readout photon gives k (1 flags a changed spin), and photons a and b
    click detectors c(j+1) and d(l+1).  ``success`` is the sum of all eight,
    the survival probability.  ``weights`` holds the 14 weights of
    ``_branch_weights`` that the three draws of a run choose between: the
    readout photon's ``[0:2]``, photon a's ``[2:4]`` or ``[4:6]`` after
    k = 0 or 1, and photon b's pairs in ``[6:14]``.
    """

    def __init__(self, joint: np.ndarray):
        self.weights = w = tuple(_branch_weights(joint).tolist())
        self.joint = joint.reshape(2, 2, 2)
        self.joint.setflags(write=False)
        self.success = w[0] + w[1]


def _joint(branch: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Branch probabilities of input columns: (m, 8) from ``cols`` (d, m).

    ``branch`` (8, o, d) maps the d input amplitudes to each branch's o
    output kets, 8 or a leading 2 of them; a row of the result sums a
    column's squared moduli over those kets.
    """
    # (m, 8 * o) is the contraction's largest array, so its real and
    # imaginary parts are squared in place, and it is freed by the first add.
    parts = (cols.T @ branch.reshape(-1, branch.shape[-1]).T).view(float)
    parts **= 2
    # re + im, then the output kets, in pairwise adds: the tree that numpy's
    # sum takes over eight terms, without its loop per row.  The kets a
    # narrow branch leaves out are exact zeros there, which add nothing.
    while parts.shape[-1] > 8:
        parts = parts[..., 0::2] + parts[..., 1::2]
    return parts


def _distribution(reg: "QuantumRegister", maps: np.ndarray) -> OutcomeDistribution:
    present = {s.name for s in reg.subsystems}
    for name in (SPIN_NAME, AUX_NAME):
        if name in present:
            raise ValueError(f"subsystem {name!r} already present")
    axes, inputs = [], []
    for name, kind in _INPUTS:
        if kind is Kind.POLARIZATION and name not in present:
            inputs.append(0)  # a missing polarization enters as |R>
        else:
            reg.require_kind(name, kind)
            axes.append(reg.axis(name))
            inputs.append(slice(None))
    branch = maps[(slice(None), slice(None), *inputs)].reshape(8, 8, -1)
    psi = np.moveaxis(reg.amplitudes.reshape([2] * reg.n), axes, range(len(axes)))
    return OutcomeDistribution(_joint(branch, psi.reshape(branch.shape[-1], -1)).sum(axis=0))


@functools.lru_cache(maxsize=256)
def _label_distribution(label: BellState, params: CavityParams | None) -> OutcomeDistribution:
    return OutcomeDistribution(_pair_joint(_BELL_AMPLITUDES[label].reshape(1, 2, 2), params)[0])


def outcome_distribution(
    state: "BellState | QuantumRegister", params: CavityParams | None = None
) -> OutcomeDistribution:
    """Exact joint distribution of the analyzer's outcomes on one input.

    The input and ``params`` are read as in ``analyze``.  The branch maps are
    built once per operating point, and a Bell-state label's distribution is
    cached with them.
    """
    if isinstance(state, BellState):
        return _label_distribution(state, params)
    return _distribution(state, _branch_maps(params))


def analyze(
    state: "BellState | QuantumRegister", params: CavityParams | None = None, rng=None
) -> BsaRecord:
    """Run the full analyzer once on a Bell state or a prepared register.

    A BellState label stands for the standard two-photon state with |R>
    polarizations; in a register, photons a and b without polarization
    subsystems enter with |R>.  The register is not modified.  ``params``
    is the cavity's operating point, and None the ideal cavity.  The outcome
    is drawn from the exact joint distribution with three uniforms from
    ``rng``: readout photon, photon a, photon b.  ``success_probability``
    is the chance that both photons and the readout photon actually arrive.
    """
    if rng is None:
        rng = np.random.default_rng()
    dist = outcome_distribution(state, params)
    if not dist.success > 0.0:
        raise ZeroNormError("no amplitude reaches the detectors")
    k, j, l = _pick_branch(dist.weights, rng.random(), rng.random(), rng.random())
    pair = _DETECTOR_PAIRS[2 * j + l]
    return BsaRecord(
        spin_changed=k,
        detectors=pair,
        inferred=classify(k, pair),
        success_probability=dist.success,
    )


# Flip bit k on detectors c(j+1), d(l+1) is the outcome code 2 * (j ^ l) + k: a mixed
# pair adds 2 (minus sign), a changed spin 1 (odd parity).  CODE_BELL names its state.
CODE_BELL = ("phi+", "psi+", "phi-", "psi-")
_DETECTOR_PAIRS = tuple(DetectorPair)


def classify(spin_changed: bool, detectors: DetectorPair) -> BellState:
    """Map the flip bit and detector pair to the identified Bell state."""
    j, l = divmod(_DETECTOR_PAIRS.index(detectors), 2)
    return BellState(CODE_BELL[2 * (j ^ l) + spin_changed])


def _pair_joint(psi: np.ndarray, params: CavityParams | None = None) -> np.ndarray:
    """The joint outcome distribution, shape (n, 8), of each row of ``psi``,
    read as ``analyze_pairs`` reads it, at the operating point ``params``."""
    n = len(psi)
    # The cavity keeps the photons' |R>, so only the two (R, R, spin) output
    # kets are contracted.  A lone row is repeated: numpy multiplies it by its
    # vector routine, which rounds apart from the matrix product.
    branch = _branch_maps(params)[:, :2, :, :, 0, 0].reshape(8, 2, 4)
    cols = psi.reshape(n, 4) if n != 1 else psi.reshape(1, 4).repeat(2, axis=0)
    return _joint(branch, cols.T)[:n]


def _analyze_table(psi: np.ndarray, ids: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    # The codes ``analyze_pairs`` gives the pairs psi[ids]: each row of
    # ``psi`` is weighed once, and each pair picks with its own uniforms.
    weights = _branch_weights(_pair_joint(psi))
    k, j, l = _pick_branch(weights.ravel(), *uniforms.T, base=14 * ids)
    return 2 * (j ^ l) + k


def analyze_pairs(psi: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Run the ideal analyzer once on each row of a pair array.

    ``psi`` has shape (n, 2, 2): pair, rail of photon a, rail of photon b,
    with both polarizations |R>.  Row i's three uniforms ``uniforms[i]``
    are used as ``analyze`` uses its three draws, and its exact distribution
    comes from the same branch maps, so row i gets the code of the Bell
    state that ``analyze`` infers on that pair with those draws.  A row's
    code depends on that row and its draws alone, not on its neighbours: a
    session's pair table, which weighs each distinct row once, rests on this.
    """
    return _analyze_table(psi, np.arange(len(psi)), uniforms)


def quality_from_moduli(r0, rh):
    """(F1, eta1, F2, eta2) from the cold and hot reflection moduli.

    ``r0`` and ``rh`` are floats or arrays that broadcast together, and
    the figures are their float64 arithmetic.  F1/eta1: fidelity and
    efficiency of identifying an odd-parity state, in which each photon
    makes a corrected double pass.  F2/eta2: the same for an even-parity
    state, whose identification additionally spends the single-pass readout
    photon.  F1 = S D and F2 = S (Q + 1) / 2 in the spin's fidelities after
    k = 1, 2 and 4 passes, (1 + t^k)^2 / (2 (1 + t^2k)) in the moduli ratio
    t = min / max, undefined only if both moduli are 0.  The formulas keep
    their raw normalization; see QualityPoint for the eta2 > 1 consequence.
    """
    with np.errstate(all="ignore"):  # as Python floats: inf and nan without a word
        top = np.maximum(r0, rh)
        if np.any(top == 0.0):
            raise ValueError("degenerate parameters: the fidelities need nonzero reflection")
        t = np.minimum(r0, rh) / top
        t2 = t * t
        t4 = t2 * t2
        u, v, w = 1.0 + t, 1.0 + t2, 1.0 + t4
        s = u * u / (2.0 * v)
        f1 = s * (v * v / (2.0 * w))
        f2 = 0.5 * s * (w * w / (2.0 * (1.0 + t4 * t4)) + 1.0)
        r0_2, rh_2 = r0 * r0, rh * rh
        eta1 = 0.5 * (r0_2 * r0_2) + 0.5 * (rh_2 * rh_2)
        eta2 = 0.5 + eta1 * eta1
    return f1, eta1, f2, eta2


def quality_at(params: CavityParams, g: np.ndarray, out: np.recarray | None = None) -> np.recarray:
    """QualityPoint's figures at each coupling in the array ``g``.

    ``params`` gives every other rate; its own g is not used.  One record
    per coupling, with QualityPoint's field names, written into ``out`` if
    given and into a new record array if not.
    """
    abs_r0 = abs(reflection(params, coupled=False))
    r_hot = hot_reflection(params, g)
    # libm's hypot, as abs() of a Python complex; numpy's complex abs rounds
    # apart from it, and differently with and without its CPU dispatch.
    abs_rh = np.hypot(r_hot.real, r_hot.imag)
    f1, eta1, f2, eta2 = quality_from_moduli(abs_r0, abs_rh)
    if out is None:
        out = np.recarray(len(g), [(name, float) for name in QUALITY_FIELDS])
    columns = (g / (params.kappa + params.kappa_s), params.ks_over_k, abs_r0, abs_rh,
               f1, eta1, f2, eta2)
    for name, column in zip(QUALITY_FIELDS, columns):
        out[name] = column
    return out


def quality(params: CavityParams) -> QualityPoint:
    """Score the analyzer at one cavity operating point."""
    return QualityPoint(*quality_at(params, np.array([params.g])).tolist()[0])


def decoherence_factor(params: DecoherenceParams) -> float:
    """Fidelity factor from spin dephasing over the gap between the rounds.

    Exponential phase damping with time constant t2e leaves the parity
    information intact with probability (1 + exp(-delta_t/t2e)) / 2, which
    decays from 1 toward the coin-flip value 1/2.
    """
    return 0.5 * (1.0 + math.exp(-params.delta_t / params.t2e))
