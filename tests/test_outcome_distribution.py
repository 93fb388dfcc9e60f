"""The exact outcome distribution against the gate-by-gate analyzer it replaces.

``gate_by_gate_analyze`` runs the stages on a copy of the input register and
samples each detection with ``conftest.measure``, the suite's one register
measurement.  With the same scripted uniforms it must give the same record
as ``analyze``, which draws from the exact joint distribution instead.
``gate_by_gate_branch_maps`` steps the same stages over the 16 input kets,
and the array-algebra branch maps must equal it bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import ScriptedRng, measure
from spatialbsa import bsa
from spatialbsa.bsa import (
    AUX_NAME,
    SPIN_NAME,
    BsaRecord,
    DetectorPair,
    analyze,
    classify,
    outcome_distribution,
    parity_qnd,
)
from spatialbsa.cavity import operating_point, scatter_factors
from spatialbsa.cli import build_parser
from spatialbsa.register import (
    HADAMARD,
    BellState,
    Kind,
    QuantumRegister,
    SQRT_HALF,
    Subsystem,
    SubsystemKindError,
    ZeroNormError,
    apply_bs,
    basis_vectors,
    make_bell,
)

# Keep every scripted uniform this far from the conditional probability it
# is compared with, so rounding differences cannot flip a draw.
MARGIN = 1e-9

PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)

INPUTS = (
    Subsystem("a", Kind.SPATIAL),
    Subsystem("b", Kind.SPATIAL),
    Subsystem("a_pol", Kind.POLARIZATION),
    Subsystem("b_pol", Kind.POLARIZATION),
)


def probe_spin(reg, params):
    """Hadamard the spin and bounce one readout photon in |R> + |L> off it once."""
    reg.apply_one(SPIN_NAME, HADAMARD)
    reg.add_subsystem(Subsystem(AUX_NAME, Kind.POLARIZATION), PLUS)
    reg.apply_diagonal([AUX_NAME, SPIN_NAME], scatter_factors(params, passes=1))


def gate_by_gate_analyze(state, params=None, rng=None):
    if isinstance(state, BellState):
        reg = make_bell(state, with_polarization="R")
    else:
        reg = QuantumRegister(state.subsystems, state.amplitudes)
        for photon in ("a", "b"):
            pol = f"{photon}_pol"
            if not any(s.name == pol for s in reg.subsystems):
                reg.add_subsystem(
                    Subsystem(pol, Kind.POLARIZATION),
                    np.array([1.0, 0.0], dtype=complex),
                )
    reg.add_subsystem(Subsystem(SPIN_NAME, Kind.SPIN), PLUS)
    parity_qnd(reg, params)
    probe_spin(reg, params)
    # Outcome (|R> - i|L>)/sqrt2 of the readout photon flags a flipped spin.
    changed = measure(reg, AUX_NAME, "da", rng)[0] == 1
    apply_bs(reg, "a")
    apply_bs(reg, "b")
    success = reg.norm_squared()
    a_out = measure(reg, "a", "z", rng)[0]
    b_out = measure(reg, "b", "z", rng)[0]
    pair = list(DetectorPair)[2 * a_out + b_out]
    return BsaRecord(
        spin_changed=changed,
        detectors=pair,
        inferred=classify(changed, pair),
        success_probability=success,
    )


def gate_by_gate_branch_maps(params):
    """The branch maps stepped ket by ket through a register, projected, not measured."""
    readout_kets = basis_vectors(Kind.POLARIZATION, "da")
    columns = []
    for ket in np.eye(16, dtype=complex):
        reg = QuantumRegister(INPUTS, ket)
        reg.add_subsystem(Subsystem(SPIN_NAME, Kind.SPIN), PLUS)
        parity_qnd(reg, params)
        probe_spin(reg, params)
        apply_bs(reg, "a")
        apply_bs(reg, "b")
        # Axes (a, b, a_pol+b_pol+spin, aux); project aux on the readout kets.
        psi = reg.amplitudes.reshape(2, 2, 8, 2)
        columns.append(np.einsum("xk,jlox->kjlo", readout_kets.conj(), psi))
    return np.stack(columns, axis=-1).reshape(8, 8, 2, 2, 2, 2)


def conditional(weights):
    total = weights[0] + weights[1]
    return weights[0] / total, weights[1] / total


@st.composite
def registers(draw):
    """Two-rail photon registers with norm squared in (0, 1].

    Polarizations are either preset (possibly entangled with the rails) or
    left for the analyzer to default, a spectator qubit the analyzer never
    touches may ride along, and the subsystem order is shuffled.
    """
    subsystems = [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)]
    if draw(st.booleans()):
        subsystems += [
            Subsystem("a_pol", Kind.POLARIZATION),
            Subsystem("b_pol", Kind.POLARIZATION),
        ]
    if draw(st.booleans()):
        subsystems.append(Subsystem("spectator", Kind.SPATIAL))
    subsystems = draw(st.permutations(subsystems))
    dim = 2 ** len(subsystems)
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
    amps = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    amps *= np.sqrt(draw(st.floats(0.05, 1.0))) / norm
    return QuantumRegister(subsystems, amps)


operating_points = st.one_of(
    st.just(None),
    st.builds(
        operating_point,
        g_over_ktot=st.floats(0.0, 4.0),
        ks_over_k=st.floats(0.0, 1.5),
        gamma=st.floats(0.01, 0.5),
        detuning=st.floats(0.05, 1.0),
    ),
)


def golden_operating_points():
    """Every operating point a golden ``bsa`` report runs at, and the lossy default."""
    golden = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
    parser = build_parser()
    points = {operating_point(2.4)}
    for case in golden["bsa"]:
        args = parser.parse_args(case["argv"])
        point = operating_point(args.g_over_ktot, args.ks_over_k, args.gamma, args.detuning)
        points.add(point if args.lossy else None)
    return sorted(points, key=repr)


def point_id(params):
    return "ideal" if params is None else f"g={params.g_over_ktot:.3g},ks={params.ks_over_k:.3g}"


@pytest.mark.parametrize("params", golden_operating_points(), ids=point_id)
def test_branch_maps_equal_gate_by_gate_build_at_golden_points(params):
    maps = bsa._branch_maps(params)
    assert maps.shape == (8, 8, 2, 2, 2, 2)
    assert np.array_equal(maps, gate_by_gate_branch_maps(params))


# The share of psi+- with a detector pair of the right sign is 1 in exact
# arithmetic: each term of the pair passes twice, so the wrong-sign branches
# cancel.  In floats it is 4 right entries summed in order over ``success``,
# the pairwise sum of all 8: at most 3 + 7 + 1 roundings of 2**-53 on
# nonnegative terms, so within 8 ulps of 1.
SIGN_ULPS = 8 * 2.0**-52


@pytest.mark.parametrize("params", golden_operating_points(), ids=point_id)
@pytest.mark.parametrize("label", [BellState.PSI_PLUS, BellState.PSI_MINUS])
def test_psi_sign_check_is_exact_at_golden_points(label, params):
    dist = outcome_distribution(label, params)
    mixed = label is BellState.PSI_MINUS
    right = sum(dist.joint[k, j, l] for k in (0, 1) for j in (0, 1) for l in (0, 1)
                if (j ^ l) == mixed)
    assert abs(right / dist.success - 1.0) <= SIGN_ULPS


@settings(max_examples=40, deadline=None)
@given(params=operating_points)
def test_branch_maps_equal_gate_by_gate_build(params):
    assert np.array_equal(bsa._branch_maps(params), gate_by_gate_branch_maps(params))


@settings(max_examples=60, deadline=None)
@given(
    state=st.one_of(st.sampled_from(list(BellState)), registers()),
    params=operating_points,
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
)
def test_matches_gate_by_gate_analyzer(state, params, uniforms):
    dist = outcome_distribution(state, params)
    norm2 = 1.0 if isinstance(state, BellState) else state.norm_squared()

    assert dist.joint.sum() == pytest.approx(dist.success, abs=1e-12)
    assert dist.success <= norm2 + 1e-12
    w = dist.weights
    for i in range(0, 14, 2):
        if w[i] + w[i + 1] > 0.0:
            assert sum(conditional(w[i : i + 2])) == pytest.approx(1.0, abs=1e-12)

    # Walk the branch the uniforms pick and keep them clear of every
    # conditional probability on the way.
    u_readout, u_a, u_b = uniforms
    p0 = conditional(w[0:2])[0]
    assume(abs(u_readout - p0) >= MARGIN)
    k = 0 if u_readout < p0 else 1
    p0 = conditional(w[2 + 2 * k : 4 + 2 * k])[0]
    assume(abs(u_a - p0) >= MARGIN)
    j = 0 if u_a < p0 else 1
    i = 6 + 4 * k + 2 * j
    assume(abs(u_b - conditional(w[i : i + 2])[0]) >= MARGIN)

    want = gate_by_gate_analyze(state, params, ScriptedRng(uniforms))
    got = analyze(state, params, ScriptedRng(uniforms))
    assert got.spin_changed == want.spin_changed
    assert got.detectors is want.detectors
    assert got.inferred is want.inferred
    assert got.success_probability == pytest.approx(want.success_probability, abs=1e-12)


def test_label_and_register_share_one_distribution():
    params = operating_point(2.4, 0.7)
    for label in BellState:
        from_label = outcome_distribution(label, params)
        from_register = outcome_distribution(make_bell(label), params)
        assert np.allclose(from_label.joint, from_register.joint, rtol=0.0, atol=1e-15)


def register_label_joint(label, params):
    # A label's joint distribution computed as for any register input.
    register = make_bell(label, with_polarization="R")
    return bsa._distribution(register, bsa._branch_maps(params)).joint


# Ideal, then couplings from none to strong, leakage from none to above kappa,
# and detunings on both sides of the default 0.5.
LABEL_GRID = [None] + [
    operating_point(g, ks, gamma, detuning)
    for g in (0.0, 0.25, 1.0, 2.4, 4.0)
    for ks in (0.0, 0.3, 0.7, 1.5)
    for gamma in (0.01, 0.1, 0.5)
    for detuning in (0.1368, 0.5, 0.5534, 1.0)
]


def test_label_path_equals_register_path_on_grid():
    # A label's distribution is one row of the pair contraction; it must
    # equal the register path's bit for bit, as the goldens were recorded on it.
    for params in [*golden_operating_points(), *LABEL_GRID]:
        for label in BellState:
            got = bsa._label_distribution.__wrapped__(label, params).joint
            assert np.array_equal(got, register_label_joint(label, params)), (label, params)


@settings(max_examples=100, deadline=None)
@given(label=st.sampled_from(list(BellState)), params=operating_points)
def test_label_path_equals_register_path(label, params):
    got = outcome_distribution(label, params).joint
    assert np.array_equal(got, register_label_joint(label, params))


def test_passed_operating_point_is_used():
    # A CavityParams alone selects the lossy cavity; None is the ideal one.
    lossy = outcome_distribution(BellState.PHI_PLUS, operating_point(2.4, 0.7))
    assert lossy.success == 0.4742139291068077
    assert outcome_distribution(BellState.PHI_PLUS).success == 0.9999999999999989


def test_ideal_bell_states_are_deterministic():
    for label in BellState:
        dist = outcome_distribution(label)
        k = 0 if label in (BellState.PHI_PLUS, BellState.PHI_MINUS) else 1
        assert dist.weights[k] == pytest.approx(1.0, abs=1e-12)
        assert dist.success == pytest.approx(1.0, abs=1e-12)


def two_rail_register(subsystems, amps=None):
    if amps is None:
        amps = np.zeros(2 ** len(subsystems), dtype=complex)
        amps[0] = 1.0
    return QuantumRegister(subsystems, amps)


@pytest.mark.parametrize(
    "subsystems, error",
    [
        ([Subsystem("a", Kind.SPATIAL)], KeyError),
        ([Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.POLARIZATION)], SubsystemKindError),
        (
            [
                Subsystem("a", Kind.SPATIAL),
                Subsystem("b", Kind.SPATIAL),
                Subsystem("a_pol", Kind.SPIN),
            ],
            SubsystemKindError,
        ),
        (
            [
                Subsystem("a", Kind.SPATIAL),
                Subsystem("b", Kind.SPATIAL),
                Subsystem("spin", Kind.SPIN),
            ],
            ValueError,
        ),
    ],
)
def test_malformed_registers_are_rejected(subsystems, error, rng):
    reg = two_rail_register(subsystems)
    with pytest.raises(error):
        analyze(reg, rng=rng)
    with pytest.raises(error):
        gate_by_gate_analyze(reg, rng=rng)


def test_zero_register_is_rejected(rng):
    reg = two_rail_register(
        [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
        np.zeros(4, dtype=complex),
    )
    with pytest.raises(ZeroNormError):
        analyze(reg, rng=rng)


def summed_joint(branch, cols):
    """Reference ``_joint``: numpy's two-axis ``.sum`` over the squared parts."""
    out = cols.T @ branch.reshape(64, -1).T
    parts = out.view(float)
    parts **= 2
    return parts.reshape(-1, 8, 8, 2).sum(axis=3).sum(axis=2)


@pytest.mark.parametrize("m", [1, 7, 4000])
@pytest.mark.parametrize("point", [None, operating_point(2.4, 0.7)], ids=("ideal", "lossy"))
def test_joint_reduction_matches_two_axis_sum(m, point):
    maps = bsa._branch_maps(point)
    gen = np.random.default_rng(m)
    for branch, d in ((maps.reshape(8, 8, -1), 16), (maps[..., 0, 0].reshape(8, 8, 4), 4)):
        cols = gen.normal(size=(d, m)) + 1j * gen.normal(size=(d, m))
        assert np.array_equal(bsa._joint(branch, cols), summed_joint(branch, cols))


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
def test_pair_joint_equals_the_full_contraction(n):
    # _pair_joint contracts only the two output kets an |R>|R> pair reaches;
    # the other six are exact zeros, so on finite rows it must give the bits
    # of the contraction over all eight.  A lone row is contracted repeated
    # to two, as _pair_joint does.  The ideal cavity, then random lossy points.
    gen = np.random.default_rng(n)
    points = [None] + [
        operating_point(*gen.uniform((0.0, 0.0, 0.01, 0.05), (4.0, 1.5, 0.5, 1.0)))
        for _ in range(12)
    ]
    for point in points:
        psi = gen.normal(size=(n, 2, 2)) + 1j * gen.normal(size=(n, 2, 2))
        psi *= 2.0 ** gen.integers(-100, 100, size=(n, 1, 1))
        psi[gen.random((n, 2, 2)) < 0.2] = 0.0
        cols = psi.reshape(n, 4).T.repeat(2 if n == 1 else 1, axis=1)
        full = bsa._branch_maps(point)[..., 0, 0].reshape(8, 8, 4)
        want = bsa._joint(full, cols)[:n]
        assert np.array_equal(bsa._pair_joint(psi, point), want), point


@pytest.mark.parametrize("point", [None, operating_point(1.0, 0.7, detuning=0.2)])
def test_register_with_extra_subsystem_keeps_its_joint(point, monkeypatch):
    subsystems = [
        Subsystem("b", Kind.SPATIAL),
        Subsystem("spectator", Kind.SPATIAL),
        Subsystem("a", Kind.SPATIAL),
        Subsystem("a_pol", Kind.POLARIZATION),
    ]
    gen = np.random.default_rng(5)
    amps = gen.normal(size=16) + 1j * gen.normal(size=16)
    reg = QuantumRegister(subsystems, amps / np.linalg.norm(amps))
    got = outcome_distribution(reg, point).joint
    monkeypatch.setattr(bsa, "_joint", summed_joint)
    want = outcome_distribution(reg, point).joint
    assert np.array_equal(got, want)
