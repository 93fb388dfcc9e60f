"""The five records that are not dataclasses: BsaRecord, QualityPoint and
SessionReport are NamedTuples, and DecoherenceParams and SweepSpec are
immutable classes that check their arguments.  Each keeps its fields, their
order and their immutability, and the two checked ones their error messages."""

import pytest

from spatialbsa import cli
from spatialbsa.bsa import QUALITY_FIELDS, BsaRecord, DecoherenceParams, DetectorPair, QualityPoint
from spatialbsa.qsdc import SessionReport
from spatialbsa.states import BellState

# Each record's fields in order, and one record built positionally from those values.
RECORDS = {
    "BsaRecord": (BsaRecord, {
        "spin_changed": True,
        "detectors": DetectorPair.C1D2,
        "inferred": BellState.PSI_MINUS,
        "success_probability": 0.5,
    }),
    "QualityPoint": (QualityPoint, {
        "g_over_ktot": 2.4, "ks_over_k": 0.7, "abs_r0": 0.1, "abs_rh": 0.2,
        "F1": 0.9, "eta1": 0.8, "F2": 0.7, "eta2": 1.1,
    }),
    "SessionReport": (SessionReport, {
        "phase1_qber": 0.25,
        "aborted": True,
        "decoded_bits": "",
        "phase2_sample_error_rate": 0.0,
        "transcript": [],
    }),
    "DecoherenceParams": (DecoherenceParams, {"delta_t": 1.5, "t2e": 3.0}),
    "SweepSpec": (cli.SweepSpec, {
        "g_min": 0.1, "g_max": 3.0, "steps": 5, "ks_list": (0.0, 0.3), "gamma": 0.2,
        "detuning": 0.4,
    }),
}


def test_quality_fields_are_the_csv_header():
    assert QUALITY_FIELDS == ("g_over_ktot", "ks_over_k", "abs_r0", "abs_rh",
                              "F1", "eta1", "F2", "eta2")
    assert cli.CSV_HEADER == "g_over_ktot,ks_over_k,abs_r0,abs_rh,F1,eta1,F2,eta2"
    assert tuple(RECORDS["QualityPoint"][1]) == QUALITY_FIELDS


@pytest.mark.parametrize("name", RECORDS)
def test_fields_in_order_and_immutable(name):
    cls, fields = RECORDS[name]
    record = cls(*fields.values())
    assert [getattr(record, field) for field in fields] == list(fields.values())
    assert record == cls(**fields)
    assert repr(record).startswith(f"{name}({next(iter(fields))}=")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == list(fields.values())


SPEC = {"g_min": 0.1, "g_max": 3.0, "steps": 3, "ks_list": (0.0,)}


@pytest.mark.parametrize("kwargs, message", [
    ({"steps": 2.0}, "steps must be an integer, got 2.0"),
    ({"steps": 1, "g_min": "x"}, "steps must be at least 2"),
    ({"g_min": float("inf"), "g_max": None}, "sweep ranges must be finite"),
    ({"g_min": None, "g_max": float("nan")}, "g_min must be a number, got None"),
    ({"g_max": 10**400}, "g_max must be a number within float range"),
    ({"gamma": True}, "gamma must be a number, got True"),
    ({"detuning": float("-inf"), "g_max": 0.0}, "sweep ranges must be finite"),
    ({"g_max": 0.1, "ks_list": 5}, "g range must satisfy min < max"),
    ({"g_min": -1.0, "ks_list": 5}, "g must be nonnegative"),
    ({"ks_list": 5}, "ks_list must be a tuple or list, got int"),
    ({"ks_list": []}, "at least one ks_over_k value is required"),
    ({"ks_list": (-1.0, "0.3")}, "ks_over_k must be a number, got '0.3'"),
    ({"ks_list": (0.0, float("nan"))}, "ks_over_k values must be finite and nonnegative"),
    ({"steps": 1_000_001, "ks_list": (0.0, -1.0)}, "ks_over_k values must be finite and nonnegative"),
    ({"steps": 1_000_001, "ks_list": (0.0, 0.5)},
     "sweep must have at most 2000000 rows (steps x ks values)"),
])
def test_sweep_spec_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        cli.SweepSpec(**{**SPEC, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((None, 1.0), "delta_t must be a number, got None"),
    ((0.0, "1"), "t2e must be a number, got '1'"),
    ((0.0, -1.0), "delta_t must be positive"),
    ((float("nan"), 1.0), "delta_t must be positive"),
    ((1.0, 0.0), "t2e must be positive"),
])
def test_decoherence_params_messages(args, message):
    with pytest.raises(ValueError) as info:
        DecoherenceParams(*args)
    assert str(info.value) == message
