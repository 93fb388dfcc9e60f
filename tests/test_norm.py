"""The norm never grows: each session kernel keeps every row's squared norm.

The kernels that move a session's pair rows are the rail flips
(``flip_rails``), the measurement collapse (``measure_photon``, on photon a
or b in Z or X) and a whole transit (``qsdc._transit``: the channel, then an
intercept-resend Eve on a fraction of the pairs, run on a session's pair
table, whose pairs are ids of its distinct rows).  In exact arithmetic each keeps every row's norm; in floats a
row's squared norm after the kernel must lie within a relative ``REL`` of its
squared norm before.  The rows are random real or complex amplitudes in
[-1, 1], lossy ones included; a row's squared norm must be a normal float, as
a relative bound on a subnormal or zero one is meaningless (a zero row has no
outcome probabilities and raises, as ``test_qsdc`` checks).  Its weights may
be subnormal: a uniform at 0 or next to 1 then picks an outcome whose weight
has lost bits, and two such rows are pinned below.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialbsa.qsdc import (
    ChannelModel, EveModel, QsdcConfig, _measure_ids, _PairTable, _transit, _trip_width,
    flip_rails, measure_photon,
)
from spatialbsa.states import ZeroNormError

# Fixed before the first run: a few hundred ulps of a squared norm.
REL = 1e-12

TINY = np.finfo(float).tiny
uniforms = st.floats(0.0, 1.0, exclude_max=True)
probabilities = st.floats(0.0, 1.0)


@st.composite
def pair_rows(draw):
    """An (n, 2, 2) array of pair rows, real or complex, each of normal squared norm."""
    n = draw(st.integers(1, 12))
    parts = 8 if draw(st.booleans()) else 4
    row = st.lists(st.floats(-1.0, 1.0), min_size=parts, max_size=parts)
    rows = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    psi = rows[:, :4] + 1j * rows[:, 4:] if parts == 8 else rows
    psi = psi.reshape(n, 2, 2)
    keep = norms(psi) >= TINY
    if not keep.any():
        psi, keep = np.full((1, 2, 2), 0.5), [True]
    return psi[keep].copy()


def norms(psi):
    return (np.abs(psi) ** 2).sum(axis=(1, 2))


def assert_norms_kept(before, psi):
    after = norms(psi)
    assert np.all(np.abs(after - before) <= REL * before), (before, after)


@settings(max_examples=100, deadline=None)
@given(psi=pair_rows(), data=st.data())
def test_flip_rails_keeps_the_norm(psi, data):
    before, n = norms(psi), len(psi)
    flips = st.lists(st.booleans(), min_size=n, max_size=n)
    flip_rails(psi, np.array(data.draw(flips)), np.array(data.draw(flips)))
    assert_norms_kept(before, psi)


@settings(max_examples=100, deadline=None)
@given(psi=pair_rows(), mode=probabilities, phase=probabilities, data=st.data())
def test_the_channel_keeps_the_norm(psi, mode, phase, data):
    # A transit without Eve: the channel's rail flips alone, on the table.
    before, n = norms(psi), len(psi)
    u = data.draw(st.lists(st.tuples(uniforms, uniforms), min_size=n, max_size=n))
    config = QsdcConfig("01", 10, channel_model=ChannelModel(mode, phase))
    table = _PairTable(psi)
    ids = _transit(table, table.intern(psi), config, np.array(u).reshape(n, 2))
    assert_norms_kept(before, table.rows[ids])


@settings(max_examples=150, deadline=None)
@given(psi=pair_rows(), photon=st.sampled_from(["a", "b"]),
       basis=st.sampled_from(["z", "x", "mixed"]), data=st.data())
def test_measure_photon_keeps_the_norm(psi, photon, basis, data):
    before, n = norms(psi), len(psi)
    x_basis = {"z": [False] * n, "x": [True] * n,
               "mixed": data.draw(st.lists(st.booleans(), min_size=n, max_size=n))}[basis]
    u = data.draw(st.lists(uniforms, min_size=n, max_size=n))
    measure_photon(psi, photon, np.array(x_basis), np.array(u))
    assert_norms_kept(before, psi)


@pytest.mark.parametrize("row, u, outcome", [
    # A uniform at 0 picks rail 1, whose weight is 3.5e-309, and the float
    # before 1 picks rail 2, whose weight is 1e-320: both subnormal.
    ([[0.0, 5.92413755e-155], [1.0, 0.0]], 0.0, 0),
    ([[2e-154, 0.0], [1e-160, 0.0]], 1.0 - 2.0**-53, 1),
])
@pytest.mark.parametrize("dtype", [float, complex])
def test_a_subnormal_weight_keeps_the_norm(row, u, outcome, dtype):
    psi = np.array([row], dtype=dtype)
    before = norms(psi)
    assert measure_photon(psi, "a", np.array([False]), np.array([u])).tolist() == [outcome]
    assert_norms_kept(before, psi)


@settings(max_examples=150, deadline=None)
@given(psi=pair_rows(), eve=st.one_of(st.just(EveModel()),
                                       probabilities.map(EveModel.intercept_resend)),
       mode=probabilities, phase=probabilities, data=st.data())
def test_transit_keeps_the_norm(psi, eve, mode, phase, data):
    # A transit runs on a session's pair table: each pair's row after it is
    # its new id's table row.
    before, n, width = norms(psi), len(psi), _trip_width(eve)
    trips = data.draw(st.lists(st.lists(uniforms, min_size=width, max_size=width),
                               min_size=n, max_size=n))
    config = QsdcConfig("01", 10, eve_model=eve, channel_model=ChannelModel(mode, phase))
    table = _PairTable(psi)
    ids = _transit(table, table.intern(psi), config, np.array(trips).reshape(n, width))
    assert_norms_kept(before, table.rows[ids])


@pytest.mark.parametrize("photon", ["a", "b"])
@pytest.mark.parametrize("zeros", [[0], [2], [1, 3], [4]])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_norm_pair_is_named_as_measure_photon_names_it(photon, zeros, zero):
    # The table path names the first zero-norm pair of its input, as
    # measure_photon names the first zero-norm row of the rows it expands to.
    psi = np.full((5, 2, 2), 0.5)
    psi[zeros] = zero
    x_basis, u = np.arange(5) % 2 == 0, np.full(5, 0.5)
    table = _PairTable(psi)
    ids = table.intern(psi)
    messages = []
    for measure in (lambda: measure_photon(psi.copy(), photon, x_basis, u),
                    lambda: _measure_ids(table, ids, photon, x_basis, u)):
        with pytest.raises(ZeroNormError) as exc:
            measure()
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"row {zeros[0]} has zero norm, so its outcome is undefined"
