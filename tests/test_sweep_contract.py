"""The array sweep against one-point evaluation and against Python's own arithmetic.

``sweep_points`` evaluates each ks value's rows as float64 arrays.  Its
contract is the sweep that ran one Python object per row: every figure
equal to ``quality(operating_point(g, ks, gamma, detuning))`` at that row,
and, where a row is invalid, the error that the first invalid row raises.
Below that, ``hot_reflection`` is numpy's arithmetic and
``quality_from_moduli`` numpy's float64 arithmetic; each must stay within
a few ulps of the same formulas in Python's complex and float types,
``hot_reflection`` must fail where Python divides by zero, and ``abs_rh``
must be Python's abs() of r_hot.  The references here are that scalar
arithmetic, written out in plain Python.
"""

import cmath
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parse_sweep_csv
from spatialbsa import cli
from spatialbsa.bsa import QUALITY_FIELDS, quality, quality_at, quality_from_moduli
from spatialbsa.cavity import CavityParams, hot_reflection, operating_point, reflection

# Zero, subnormal and tiny values reach a subnormal D_x, the transparent dot,
# a vanishing reflection and the overflowing couplings.
EDGES = [0.0, 5e-324, 1e-310, 2.0**-1000, 1e-170, 1.0]
rates = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 2.0))
detunings = st.one_of(st.sampled_from(EDGES), st.floats(-2.0, 2.0))
g_values = st.one_of(st.sampled_from([*EDGES, 3.0, 1e200, 1e308]), st.floats(0.0, 5.0))


def rows_one_at_a_time(spec):
    """The sweep as one ``quality`` call per row: the points, or the first error."""
    points = []
    for ks in sorted(spec.ks_list):
        for g in np.linspace(spec.g_min, spec.g_max, spec.steps):
            try:
                points.append(quality(operating_point(float(g), ks, spec.gamma, spec.detuning)))
            except ValueError as exc:
                return None, str(exc)
    return points, None


@settings(deadline=None, max_examples=150)
@given(
    g_range=st.lists(g_values, min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 40),
    ks_list=st.lists(rates, min_size=1, max_size=3),
    gamma=rates,
    detuning=detunings,
)
# The first row fails, and the last row's g overflows.
@example(g_range=[0.0, 1e308], steps=3, ks_list=[1.0], gamma=0.0, detuning=0.0)
@example(g_range=[0.0, 1e308], steps=3, ks_list=[1.0], gamma=0.1, detuning=0.0)
def test_rows_equal_one_point_quality(g_range, steps, ks_list, gamma, detuning):
    spec = cli.SweepSpec(*g_range, steps, tuple(ks_list), gamma, detuning)
    points, error = rows_one_at_a_time(spec)
    if error is not None:
        with pytest.raises(ValueError) as exc:
            cli.sweep_points(spec)
        assert str(exc.value) == error
        return
    records = cli.sweep_points(spec)
    assert len(records) == len(points)
    for record, point in zip(records, points):
        for name in QUALITY_FIELDS:
            assert getattr(record, name) == getattr(point, name), name


@settings(deadline=None, max_examples=100)
@given(
    g_range=st.lists(g_values, min_size=2, max_size=2, unique=True).map(sorted),
    steps=st.integers(2, 40),
    ks_list=st.lists(rates, min_size=1, max_size=3),
    gamma=rates,
    detuning=detunings,
    rows=st.integers(1, 9),
)
@example(g_range=[0.0, 1e308], steps=7, ks_list=[1.0], gamma=0.0, detuning=0.0, rows=2)
@example(g_range=[0.0, 1e308], steps=7, ks_list=[1.0], gamma=0.1, detuning=0.0, rows=3)
def test_blocks_of_rows_equal_one_point_quality(g_range, steps, ks_list, gamma, detuning, rows):
    # The same contract with a ks block's rows evaluated a few at a time.
    spec = cli.SweepSpec(*g_range, steps, tuple(ks_list), gamma, detuning)
    points, error = rows_one_at_a_time(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_SWEEP_ROWS", rows)
        if error is not None:
            with pytest.raises(ValueError) as exc:
                cli.sweep_points(spec)
            assert str(exc.value) == error
            return
        records = cli.sweep_points(spec)
    assert records.tolist() == [tuple(point) for point in points]


def test_blocks_of_rows_equal_one_evaluation_per_ks_block():
    steps = 2 * cli._SWEEP_ROWS + 123
    spec = cli.SweepSpec(0.05, 3.1, steps, (0.7, 0.0, 0.3), 0.1, 0.5)
    records = cli.sweep_points(spec)
    g_over_ktot = np.linspace(spec.g_min, spec.g_max, steps)
    for start, ks in zip(range(0, len(records), steps), sorted(spec.ks_list)):
        params = operating_point(float(g_over_ktot[0]), ks, spec.gamma, spec.detuning)
        whole = quality_at(params, g_over_ktot * (1.0 + ks))
        assert records[start : start + steps].tobytes() == whole.tobytes()


def python_hot_reflection(params: CavityParams) -> complex:
    """r_hot in Python's complex arithmetic, one coupling at a time."""
    scale = max(0.5 * params.gamma, abs(params.delta_x))
    g = params.g
    if scale == 0.0 and g != 0.0:  # a transparent dot, however small g^2 is
        return 1.0 + 0.0j
    a, b = params.gamma / scale * 0.5, params.delta_x / scale  # D_x = scale * (a - ib)
    load = g * (g / scale) / (a * a + b * b) * complex(a, b)  # L = g^2 / D_x
    denominator = 0.5 * (params.kappa + params.kappa_s) - 1j * params.delta_c + load
    if cmath.isinf(denominator):  # the saturated dot
        return 1.0 + 0.0j
    return (0.5 * params.kappa_s - 0.5 * params.kappa - 1j * params.delta_c + load) / denominator


# Both bounds are four units of 2**-52: for each part of r_hot, times
# 1 + |1 - r_hot| = 1 + kappa / |D_c + L|; for each figure, times its value.
ULPS = 4 * 2.0**-52


@settings(deadline=None, max_examples=300)
@given(
    g=st.lists(st.one_of(st.sampled_from([0.0, 1e-170, 1e-160, 1e-155, 1e200]),
                         st.floats(0.0, 10.0)),
               min_size=1, max_size=20),
    kappa_s=rates,
    gamma=rates,
    detuning=detunings,
)
def test_hot_reflection_is_within_bound_of_python_complex_arithmetic(g, kappa_s, gamma, detuning):
    params = [operating_point(1.0, kappa_s, gamma, detuning)]
    params += [CavityParams(v, 1.0, kappa_s, gamma, detuning, detuning) for v in g]
    try:
        want = [python_hot_reflection(p) for p in params[1:]]
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="hot-cavity response is undefined"):
            hot_reflection(params[0], np.array(g))
        return
    got = hot_reflection(params[0], np.array(g))
    for w, r in zip(want, got.tolist()):
        # 1 - r_py is kappa / (D_c + L) to within an ulp of 1, plenty for a bound.
        bound = ULPS * (1.0 + abs(1.0 - w))
        assert abs(r.real - w.real) <= bound
        assert abs(r.imag - w.imag) <= bound


def test_hot_reflection_is_one_with_no_exciton_term_at_any_coupling():
    # gamma = detuning = 0 makes D_x = 0, so r_hot is 1 wherever g^2 > 0, as in
    # Python's arithmetic; numpy's complex division gave NaN for g^2 < 2**-1024.
    g = [2.1509460641736884e-160, 1e-155, 1.5e-154, 1e-10, 1.0, 1e200]
    params = operating_point(1.0, 0.0, 0.0, 0.0)
    assert hot_reflection(params, np.array(g)).tolist() == [1.0] * len(g)
    assert [python_hot_reflection(CavityParams(v, gamma=0.0, delta_c=0.0, delta_x=0.0))
            for v in g] == [1.0] * len(g)
    assert reflection(CavityParams(g[0], gamma=0.0, delta_c=0.0, delta_x=0.0)) == 1.0


def test_abs_rh_is_python_abs_of_r_hot():
    params = operating_point(1.0, 0.3)
    g = np.linspace(0.0, 3.0, 2001)
    r_hot = hot_reflection(params, g).tolist()
    assert quality_at(params, g).abs_rh.tolist() == [abs(r) for r in r_hot]


def python_quality_from_moduli(r0: float, rh: float):
    """The four figures in Python floats, the fidelities as per-pass products."""
    t = min(r0, rh) / max(r0, rh)
    t2 = t * t
    t4 = t2 * t2
    s = (1.0 + t) ** 2 / (2.0 * (1.0 + t2))
    d = (1.0 + t2) ** 2 / (2.0 * (1.0 + t4))
    q = (1.0 + t4) ** 2 / (2.0 * (1.0 + t4 * t4))
    r0_2, rh_2 = r0 * r0, rh * rh
    r0_4, rh_4 = r0_2 * r0_2, rh_2 * rh_2
    eta1 = 0.5 * r0_4 + 0.5 * rh_4
    eta2 = 0.5 + (0.5 * r0_4 + 0.5 * rh_4) ** 2
    return s * d, eta1, 0.5 * s * (q + 1.0), eta2


@settings(deadline=None, max_examples=50)
@given(st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_quality_from_moduli_is_within_bound_of_python_float_arithmetic(r0, seed):
    rh = np.random.default_rng(seed).uniform(1e-3, 1.0, 1000)
    got = np.array(quality_from_moduli(r0, rh))
    want = np.array([python_quality_from_moduli(r0, v) for v in rh.tolist()]).T
    assert np.all(np.abs(got - want) <= ULPS * np.abs(want))


def test_overflowing_coupling_square_prints_rows_without_warning(capsys):
    # g^2 overflows to inf, as it does in Python floats, and r_hot is 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--g-max", "1e200", "--steps", "4", "--seed", "1"])
    assert code == 0
    rows = parse_sweep_csv(capsys.readouterr().out)
    assert len(rows) == 12
    assert [row["abs_rh"] for row in rows[1::4]] == [1.0, 1.0, 1.0]


def csv_text(points, spec, seed):
    """The text that ``format_sweep_csv`` writes."""
    out = io.StringIO()
    cli.format_sweep_csv(points, spec, seed, out)
    return out.getvalue()


# The reference writer: one template per record, over its tuple of floats.
CSV_ROW = ",".join(["%.17g"] * len(cli.CSV_HEADER.split(","))) + "\n"


def csv_one_template_per_row(points, spec, seed):
    """The CSV as ``CSV_ROW`` applied to every record's tuple, after the writer's head."""
    return csv_text(points[:0], spec, seed) + "".join(map(CSV_ROW.__mod__, points.tolist()))


@settings(deadline=None, max_examples=150)
@given(
    g_range=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=2, max_size=2,
                     unique=True).map(sorted),
    steps=st.integers(2, 40),
    ks_list=st.lists(st.one_of(st.sampled_from([-0.0, 5e-324, 1e-310, 0.0, 0.7]),
                               st.floats(0.0, 2.0)), min_size=1, max_size=3),
    gamma=rates,
    detuning=detunings,
)
@example(g_range=[0.0, 3.0], steps=2, ks_list=[0.0, -0.0, 0.0], gamma=0.1, detuning=0.5)
@example(g_range=[0.0, 3.0], steps=40, ks_list=[0.7, 5e-324, 0.7], gamma=0.1, detuning=0.5)
@example(g_range=[0.1, 3.0], steps=5, ks_list=[1e-310], gamma=0.1, detuning=-0.5)
# Blocks of two full chunks and a short one.
@example(g_range=[0.0, 3.0], steps=2 * cli._CHUNK_ROWS + 3, ks_list=[0.0, 0.7], gamma=0.1,
         detuning=0.5)
def test_csv_equals_one_template_per_row(g_range, steps, ks_list, gamma, detuning):
    spec = cli.SweepSpec(*g_range, steps, tuple(ks_list), gamma, detuning)
    try:
        points = cli.sweep_points(spec)
    except ValueError:  # an invalid grid writes nothing; its error is checked above
        return
    assert csv_text(points, spec, 7) == csv_one_template_per_row(points, spec, 7)


@pytest.mark.parametrize(
    "name, row, value",
    [("ks_over_k", 3, -0.0), ("abs_r0", 0, np.nextafter(1.0, 0.0)), ("ks_over_k", 9, 0.7)],
    ids=["negative_zero_ks", "abs_r0", "last_row_of_second_block"],
)
def test_csv_rejects_a_block_whose_shared_columns_vary(name, row, value):
    spec = cli.SweepSpec(0.1, 3.0, 5, (0.0, 0.3))
    points = cli.sweep_points(spec)
    csv_text(points, spec, 1)
    points[name][row] = value
    out = io.StringIO()
    with pytest.raises(ValueError, match=f"^{name} must hold one value in each block of 5 rows$"):
        cli.format_sweep_csv(points, spec, 1, out)
    assert out.getvalue() == ""  # not even the head


def test_csv_rejects_rows_that_do_not_match_the_spec_blocks():
    # Rows of a 4-step grid written as if the blocks were 8 rows long mix two ks values.
    points = cli.sweep_points(cli.SweepSpec(0.1, 3.0, 4, (0.0, 0.3)))
    out = io.StringIO()
    with pytest.raises(ValueError, match="^ks_over_k must hold one value in each block of 8 rows$"):
        cli.format_sweep_csv(points, cli.SweepSpec(0.1, 3.0, 8, (0.0,)), 1, out)
    assert out.getvalue() == ""


def slow_path_grid():
    """A grid whose varying columns take ``_g17``'s slow path in places, with
    blocks of 2 * 512 + 6 rows, and its spec: g from 0 up to 3e16 (0 and
    values from 1e16 up), -0.0 as a ks value, and F2 with -0.0, values below
    1e-4 and 2.5e300 written into its rows."""
    spec = cli.SweepSpec(0.0, 3e16, 2 * 512 + 6, (-0.0, 0.7))
    points = cli.sweep_points(spec)
    points["F2"][[0, 5, 700, 1029, 1030, 2059]] = [-0.0, 1e-5, 2.5e300, 9.999e-5, 5e-324, -0.0]
    return points, spec


@pytest.mark.parametrize("chunk_rows", [1, 7, 513])
def test_csv_bytes_do_not_depend_on_the_chunk_size(chunk_rows, monkeypatch):
    # Chunks of 7 and 513 rows, as the default 512, end each block in a short chunk.
    points, spec = slow_path_grid()
    want = csv_text(points, spec, 3)
    assert want == csv_one_template_per_row(points, spec, 3)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    assert csv_text(points, spec, 3) == want


@pytest.mark.parametrize(
    "fields",
    [[(name, np.float32) for name in QUALITY_FIELDS],
     [(name, float) for name in QUALITY_FIELDS[::-1]]],
    ids=["float32_fields", "reordered_fields"],
)
def test_csv_rejects_records_of_another_dtype(fields):
    # The writer reads the records through a view of eight float64s a row.
    spec = cli.SweepSpec(0.1, 3.0, 5, (0.0, 0.3))
    points = cli.sweep_points(spec)
    other = np.recarray(len(points), fields)
    for name in QUALITY_FIELDS:
        other[name] = points[name]
    out = io.StringIO()
    with pytest.raises(ValueError, match="^points must have the dtype sweep_points makes, got "):
        cli.format_sweep_csv(other, spec, 1, out)
    assert out.getvalue() == ""


def g17_text(values):
    """``cli._g17``'s text of each value: its row, put back in the order of
    values, without the NUL padding."""
    text, order = cli._g17(np.array(values, float))
    rows = np.empty_like(text)
    rows[order] = text
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4)),
                max_size=40))
def test_g17_is_percent_17g(values):
    # st.floats() draws every double: nan, both infinities, both zeros, subnormals.
    assert g17_text(values) == ["%.17g" % v for v in values]


@pytest.mark.parametrize("k", range(1, 21))
def test_g17_rounds_exact_ties_half_even(k):
    # J / 2**(k+1) for odd J at decimal exponent 16 - k: the exact value's 18th
    # significant digit is a 5 with nothing after it, so the 17 digits round
    # half-even.  At k = 0 every such J is above 2**53, so no double is one.
    lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
    hi = min(math.ceil(Fraction(10) ** (17 - k) * 2 ** (k + 1)), 2**53)
    odd = 2 * np.random.default_rng(k).integers(lo // 2, hi // 2, 2000) + 1
    values = (odd / 2.0 ** (k + 1)).tolist()
    assert all((Fraction(v) * 10**k).denominator == 2 for v in values)
    values += [-v for v in values]
    assert g17_text(values) == ["%.17g" % v for v in values]


def test_g17_around_powers_of_ten():
    powers = 10.0 ** np.arange(-5, 18)
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    values = np.concatenate([values, -values]).tolist()
    assert g17_text(values) == ["%.17g" % v for v in values]


def test_g17_around_powers_of_two():
    # Every binary exponent of the fast range, [1e-4, 1e16): 2**k, and both of its
    # neighbours.  The one below 2**k tops binade k - 1, which holds a power of ten
    # whenever floor(k log10 2) moves, so there the exponent needs its one correction.
    powers = 2.0 ** np.arange(-14, 55)
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    values = np.concatenate([values, -values]).tolist()
    assert g17_text(values) == ["%.17g" % v for v in values]


def digit_lanes(v):
    """v's 17 significant digits, as '%.17g' rounds them, split as ``_g17`` splits
    them: the lead digit, then a high and a low lane of 8."""
    digits = ("%.16e" % v)[:18].replace(".", "")
    return digits[0], digits[1:9], digits[9:]


# m / 2**k prints every digit it holds, those of m * 5**k, so its 17 digits end in
# zeros when m * 5**k has fewer than 17.
DYADIC = [m / 2.0**k for m in (1, 3, 7, 123, 12_345, 1_234_567, 123_456_789, 12_345_678_901,
                               1_234_567_890_123, 123_456_789_012_345, 2**53 - 1)
          for k in range(64) if 1e-4 <= m / 2.0**k < 1e16]


@pytest.mark.parametrize("zeros", range(1, 17))
def test_g17_trailing_zeros_across_the_lane_split(zeros):
    # The zeros fill the low lane from its end and, from 9 zeros on, the high lane too.
    values = [v for v in DYADIC if len("".join(digit_lanes(v)).rstrip("0")) == 17 - zeros]
    assert len(values) >= 3
    values += [-v for v in values]
    assert g17_text(values) == ["%.17g" % v for v in values]


@pytest.mark.parametrize("lane", [1, 2], ids=["high", "low"])
def test_g17_nonzero_digits_in_one_lane_only(lane):
    # Beside the lead digit, nonzero digits in this lane and only zeros in the other:
    # dyadic values, and powers of ten plus a few ulps, from 1e-4 up.
    near = [b + n * math.ulp(b) for b in (10.0 ** np.arange(-4, 16)).tolist()
            for n in (1, 3, 45, 4_503, 45_035_996)]
    values = [v for v in DYADIC + near
              if digit_lanes(v)[lane] != "0" * 8 and digit_lanes(v)[3 - lane] == "0" * 8]
    assert len(values) >= 20
    values += [-v for v in values]
    assert g17_text(values) == ["%.17g" % v for v in values]
