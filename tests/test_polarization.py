"""The paper's premise that spatial encoding is robust to polarization.

The cavity's selection rules act on circular polarization, but the branch
maps are diagonal in it and no detector reads it.  So the ideal analyzer is
blind to polarization, a lossy one sees LL as RR, and any product
polarization gives the mixture of the four circular inputs weighted by
their probabilities.  Every comparison holds to ``BOUND``, fixed before the
first run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialbsa.bsa import outcome_distribution
from spatialbsa.cavity import operating_point
from spatialbsa.register import BellState, Kind, Subsystem, make_bell

BOUND = 1e-14

CIRCULAR = {"R": np.array([1.0, 0.0], complex), "L": np.array([0.0, 1.0], complex)}

# (g/ktot, ks/k, detuning): the CLI default, a point near a pi/2 phase gap,
# strong side leakage and a weak coupling.
LOSSY = [operating_point(*point) for point in
         ((2.4, 0.0, 0.5), (2.4, 0.0, 0.5534), (2.4, 0.7, 0.5), (0.25, 0.0, 0.1368))]


def joint(label, a_pol, b_pol, params):
    """The analyzer's joint distribution with photon a in ``a_pol`` and b in ``b_pol``."""
    reg = make_bell(label)
    reg.add_subsystem(Subsystem("a_pol", Kind.POLARIZATION), a_pol)
    reg.add_subsystem(Subsystem("b_pol", Kind.POLARIZATION), b_pol)
    return outcome_distribution(reg, params).joint


def circular_joints(label, params):
    return {a + b: joint(label, CIRCULAR[a], CIRCULAR[b], params) for a in "RL" for b in "RL"}


@pytest.mark.parametrize("label", list(BellState))
def test_ideal_analyzer_is_blind_to_circular_polarization(label):
    joints = circular_joints(label, None)
    for pols in ("RL", "LR", "LL"):
        assert np.abs(joints[pols] - joints["RR"]).max() <= BOUND, pols


@pytest.mark.parametrize("params", LOSSY)
@pytest.mark.parametrize("label", list(BellState))
def test_lossy_analyzer_sees_ll_as_rr(label, params):
    joints = circular_joints(label, params)
    assert np.abs(joints["LL"] - joints["RR"]).max() <= BOUND
    # Unlike the ideal one, it tells RL from RR.
    assert np.abs(joints["RL"] - joints["RR"]).max() > 1e-3


def polarization():
    # A normalised qubit with complex amplitudes, kept away from zero norm.
    parts = st.floats(-1.0, 1.0)
    return st.tuples(parts, parts, parts, parts).map(
        lambda v: np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])).filter(
        lambda ket: np.linalg.norm(ket) > 0.1).map(lambda ket: ket / np.linalg.norm(ket))


@settings(max_examples=100, deadline=None)
@given(label=st.sampled_from(list(BellState)), params=st.sampled_from([None, *LOSSY]),
       a_pol=polarization(), b_pol=polarization())
def test_product_polarization_is_the_circular_mixture(label, params, a_pol, b_pol):
    mixture = sum(abs(a_pol["RL".index(a)]) ** 2 * abs(b_pol["RL".index(b)]) ** 2 * j
                  for (a, b), j in circular_joints(label, params).items())
    assert np.abs(joint(label, a_pol, b_pol, params) - mixture).max() <= BOUND
