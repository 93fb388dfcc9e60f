"""A session's pair table against the per-row kernels on the expanded rows.

A session keeps its pairs as int ids into a table of the distinct rows, and
runs each step once per distinct row, or per (row, basis, outcome), in use.
That is exact only because every kernel is elementwise per row: a row's
result depends on that row and its own draws alone.  Here the table path
must give, bit for bit, what the kernels give on the rows the ids stand for:
its outcomes and codes must be equal, and its new rows equal in their bytes.
The rows come with forced duplicates, signed zeros and subnormal-weight
amplitudes, and the uniforms include 0 and the float before 1, which pick
an outcome whose weight has lost bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialbsa import qsdc
from spatialbsa.bsa import _analyze_table, _pair_joint, analyze_pairs
from spatialbsa.qsdc import (
    ChannelModel, EveModel, QsdcConfig, _flip_ids, _in_use, _measure_ids, _PairTable,
    _transit, apply_channel, eve_intercept_resend, flip_rails, measure_photon,
    session_columns,
)
from spatialbsa.states import SQRT_HALF, ZeroNormError

# Fixed before the first run: bitwise equality, and this many examples each.
EXAMPLES = 200

AMPLITUDES = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, SQRT_HALF, -SQRT_HALF,
                     5.92413755e-155, 2e-154, -1e-160, 1e-170]),
)
UNIFORMS = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]),
                     st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def expanded_rows(draw):
    """(n, 2, 2) real rows drawn from at most six distinct ones."""
    distinct = draw(st.lists(st.lists(AMPLITUDES, min_size=4, max_size=4),
                             min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    return np.array(distinct).reshape(-1, 2, 2)[picks]


def on_table(psi):
    table = _PairTable(psi)
    return table, table.intern(psi)


def bits(rows):
    return rows.view(np.uint64).tolist()


def outcome_of(run):
    """What a run returns, or the message of the ZeroNormError it raises."""
    try:
        return run()
    except ZeroNormError as exc:
        return str(exc)


@settings(max_examples=EXAMPLES, deadline=None)
@given(psi=expanded_rows(), photon=st.sampled_from(["a", "b"]),
       basis=st.sampled_from(["z", "x", "mixed"]), data=st.data())
def test_measure_matches_the_rows(psi, photon, basis, data):
    n = len(psi)
    x_basis = np.array({"z": [False] * n, "x": [True] * n,
                        "mixed": data.draw(st.lists(st.booleans(), min_size=n, max_size=n))}[basis])
    u = np.array(data.draw(st.lists(UNIFORMS, min_size=n, max_size=n)))
    table, ids = on_table(psi)
    want = outcome_of(lambda: measure_photon(psi, photon, x_basis, u))
    got = outcome_of(lambda: _measure_ids(table, ids, photon, x_basis, u))
    if isinstance(want, str):
        assert got == want
    else:
        outcomes, new = got
        assert outcomes.tolist() == want.astype(bool).tolist()
        assert bits(table.rows[new]) == bits(psi)


@settings(max_examples=EXAMPLES, deadline=None)
@given(psi=expanded_rows(), data=st.data())
def test_flips_match_the_rows(psi, data):
    n = len(psi)
    flips = st.lists(st.booleans(), min_size=n, max_size=n)
    swap, phase = np.array(data.draw(flips)), np.array(data.draw(flips))
    table, ids = on_table(psi)
    new = _flip_ids(table, ids, swap, phase)
    assert bits(table.rows[new]) == bits(flip_rails(psi, swap, phase))


def transit_rows(psi, config, trips):
    # The transit on the rows themselves: the public kernels, Eve on the
    # rows her coin hits.
    apply_channel(psi, config.channel_model, trips[:, :2])
    hit = trips[:, 2] < config.eve_model.fraction
    psi[hit] = eve_intercept_resend(psi[hit], trips[hit, 3:5])
    return psi


@settings(max_examples=EXAMPLES, deadline=None)
@given(psi=expanded_rows(), fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       mode=st.floats(0.0, 1.0), phase=st.floats(0.0, 1.0), data=st.data())
def test_a_transit_with_eve_matches_the_rows(psi, fraction, mode, phase, data):
    n = len(psi)
    trips = np.array(data.draw(st.lists(st.lists(UNIFORMS, min_size=5, max_size=5),
                                        min_size=n, max_size=n)))
    config = QsdcConfig("01", 10, eve_model=EveModel.intercept_resend(fraction),
                        channel_model=ChannelModel(mode, phase))
    table, ids = on_table(psi)
    want = outcome_of(lambda: transit_rows(psi, config, trips))
    got = outcome_of(lambda: _transit(table, ids, config, trips))
    assert got == want if isinstance(want, str) else bits(table.rows[got]) == bits(want)


@settings(max_examples=EXAMPLES, deadline=None)
@given(psi=expanded_rows(), data=st.data())
def test_analyzer_codes_match_the_rows(psi, data):
    n = len(psi)
    uniforms = np.array(data.draw(st.lists(st.lists(UNIFORMS, min_size=3, max_size=3),
                                           min_size=n, max_size=n)))
    table, ids = on_table(psi)
    used, slot = _in_use(ids, len(table.rows))
    # A zero row, or one whose weights all underflow, picks by NaN
    # comparisons: the same ones on both paths.
    with np.errstate(invalid="ignore"):
        got = _analyze_table(table.rows[used], slot, uniforms)
        assert got.tolist() == analyze_pairs(psi, uniforms).tolist()


@settings(max_examples=EXAMPLES, deadline=None)
@given(k=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_pair_joint_of_a_row_does_not_depend_on_its_batch(k, seed):
    # The table weighs its K rows in one batch, the block driver in blocks of
    # 256: a row must get the same bits in either.  Random rows, with session
    # rows (Bell states and products of rail kets) among them.
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(256, 2, 2))
    kets = np.array([[1.0, 0.0], [0.0, 1.0], [SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])
    products = rng.random(256) < 0.3
    block[products] = np.einsum("ni,nj->nij", *kets[rng.integers(4, size=(2, products.sum()))])
    block[rng.random(256) < 0.1] = np.array([[SQRT_HALF, 0.0], [-0.0, SQRT_HALF]])
    places = rng.choice(256, size=k, replace=False)
    assert bits(_pair_joint(block[places])) == bits(_pair_joint(block)[places])


def test_the_table_stays_small_on_a_noisy_session_under_eve(monkeypatch):
    # 64-65 rows on seeds 0-4; a table that grew with the pairs would not fit.
    tables = []

    class Recorded(_PairTable):
        def __init__(self, rows):
            super().__init__(rows)
            tables.append(self)

    monkeypatch.setattr(qsdc, "_PairTable", Recorded)
    config = QsdcConfig("01" * 4000, 20_000, eve_model=EveModel.intercept_resend(0.3),
                        channel_model=ChannelModel(0.05, 0.05), seed=1, qber_abort_threshold=1.0)
    columns = session_columns(config)
    assert not columns.aborted
    (table,) = tables
    assert 8 < len(table.rows) <= 128


@pytest.mark.parametrize("zero, ids", [(0.0, [0, 0, 0]), (-0.0, [0, 1, 0])])
def test_rows_are_told_apart_by_their_bytes(zero, ids):
    rows = np.array([[[SQRT_HALF, 0.0], [0.0, SQRT_HALF]], [[SQRT_HALF, zero], [0.0, SQRT_HALF]],
                     [[SQRT_HALF, 0.0], [0.0, SQRT_HALF]]])
    table, got = on_table(rows)
    assert got.tolist() == ids
    assert bits(table.rows[got]) == bits(rows)
