"""The records and configs: BsaRecord, QualityPoint, SessionReport and the
register's Subsystem are NamedTuples, and the configs (CavityParams,
EveModel, ChannelModel, QsdcConfig) and the other checked records
(DecoherenceParams, SweepSpec) are immutable and check their arguments.
Each keeps its fields, their order, types, defaults and immutability, its
equality, hash and repr, and the checked ones their error messages in their
order."""

import copy
import pickle

import numpy as np
import pytest

from spatialbsa import cli
from spatialbsa.bsa import QUALITY_FIELDS, BsaRecord, DecoherenceParams, DetectorPair, QualityPoint
from spatialbsa.cavity import CavityParams
from spatialbsa.qsdc import ChannelModel, EveModel, QsdcConfig, SessionColumns, SessionReport
from spatialbsa.register import Subsystem
from spatialbsa.states import BellState, Kind

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
    "Subsystem": (Subsystem, {"name": "a_pol", "kind": Kind.POLARIZATION}),
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


def test_named_tuples_hold_field_types():
    # Evaluated where they are written, not kept as strings.
    assert BsaRecord.__annotations__ == {
        "spin_changed": bool, "detectors": DetectorPair, "inferred": BellState,
        "success_probability": float,
    }
    assert QualityPoint.__annotations__ == dict.fromkeys(QUALITY_FIELDS, float)
    assert SessionReport.__annotations__ == {
        "phase1_qber": float, "aborted": bool, "decoded_bits": str,
        "phase2_sample_error_rate": float, "transcript": list,
    }
    assert SessionColumns.__annotations__ == {"phases": tuple, "decoded_bits": str}
    assert Subsystem.__annotations__ == {"name": str, "kind": Kind}


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


# The four configs, each with a value for every field in field order, then the
# arguments its required fields take and the repr it has with every default.
CONFIGS = {
    "CavityParams": (CavityParams, {
        "g": 2.4, "kappa": 2.0, "kappa_s": 0.7, "gamma": 0.2, "delta_c": 0.4, "delta_x": 0.3,
    }),
    "EveModel": (EveModel, {"kind": "intercept_resend", "fraction": 0.25}),
    "ChannelModel": (ChannelModel, {"mode_flip_prob": 0.01, "phase_flip_prob": 0.02}),
    "QsdcConfig": (QsdcConfig, {
        "message_bits": "0110", "pair_count": 40, "sample_fraction": 0.2,
        "eve_model": EveModel("intercept_resend", 0.25), "channel_model": ChannelModel(0.01, 0.02),
        "seed": 7, "qber_abort_threshold": 0.3,
    }),
}
DEFAULTS = {
    "CavityParams": ((2.4,), "CavityParams(g=2.4, kappa=1.0, kappa_s=0.0, gamma=0.1,"
                             " delta_c=0.5, delta_x=0.5)"),
    "EveModel": ((), "EveModel(kind='none', fraction=0.0)"),
    "ChannelModel": ((), "ChannelModel(mode_flip_prob=0.0, phase_flip_prob=0.0)"),
    "QsdcConfig": (("0110", 40), "QsdcConfig(message_bits='0110', pair_count=40,"
                                 " sample_fraction=0.1, eve_model=EveModel(kind='none', fraction=0.0),"
                                 " channel_model=ChannelModel(mode_flip_prob=0.0, phase_flip_prob=0.0),"
                                 " seed=0, qber_abort_threshold=0.11)"),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_config_fields_defaults_and_repr(name):
    cls, fields = CONFIGS[name]
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert [getattr(record, field) for field in fields] == list(fields.values())
    shown = ", ".join(f"{field}={value!r}" for field, value in fields.items())
    assert repr(record) == f"{name}({shown})"
    required, default_repr = DEFAULTS[name]
    assert repr(cls(*required)) == default_repr
    assert cls(*required) == cls(*required)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == list(fields.values())


@pytest.mark.parametrize("name", CONFIGS)
def test_config_equality_and_hash_by_fields(name):
    cls, fields = CONFIGS[name]
    record, twin = cls(*fields.values()), cls(**fields)
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(tuple(fields.values()))  # the lru_cache keys
    assert len({record, twin}) == 1
    assert record != tuple(fields.values())
    required, _ = DEFAULTS[name]
    if required:
        assert record != cls(*required)
    else:
        assert record != cls()


def test_config_numpy_scalars_are_stored_as_python_numbers():
    params = CavityParams(np.float32(2.5), np.float64(1.0), np.int64(0), np.float16(0.5),
                          np.int32(1), np.float64(0.25))
    assert [type(getattr(params, f)) for f in CONFIGS["CavityParams"][1]] == [
        float, float, int, float, int, float]
    assert params == CavityParams(2.5, 1.0, 0, 0.5, 1, 0.25)
    eve = EveModel("intercept_resend", np.float32(0.5))
    assert type(eve.fraction) is float and eve.fraction == 0.5
    channel = ChannelModel(np.float16(0.25), np.float64(0.5))
    assert (type(channel.mode_flip_prob), type(channel.phase_flip_prob)) == (float, float)
    config = QsdcConfig("0110", np.int64(40), np.float32(0.5), seed=np.uint64(7),
                        qber_abort_threshold=np.float64(0.2))
    assert [type(v) for v in (config.pair_count, config.sample_fraction, config.seed,
                              config.qber_abort_threshold)] == [int, float, int, float]
    assert config == QsdcConfig("0110", 40, 0.5, seed=7, qber_abort_threshold=0.2)


@pytest.mark.parametrize("kwargs, message", [
    ({"g": "x"}, "g must be a number, got 'x'"),
    ({"g": 10**400}, "g must be a number within float range"),
    ({"g": float("nan"), "kappa": "x"}, "g must be finite"),
    ({"g": -1.0, "kappa": None}, "kappa must be a number, got None"),
    ({"kappa": True}, "kappa must be a number, got True"),
    ({"kappa": float("inf"), "kappa_s": "x"}, "kappa must be finite"),
    ({"kappa_s": "0", "gamma": -1.0}, "kappa_s must be a number, got '0'"),
    ({"kappa_s": float("inf")}, "kappa_s must be finite"),
    ({"gamma": "0.1"}, "gamma must be a number, got '0.1'"),
    ({"gamma": float("nan")}, "gamma must be finite"),
    ({"delta_c": None}, "delta_c must be a number, got None"),
    ({"delta_c": float("-inf"), "delta_x": None}, "delta_c must be finite"),
    ({"g": -1.0, "delta_x": None}, "delta_x must be a number, got None"),
    ({"delta_x": float("nan")}, "delta_x must be finite"),
    ({"g": -1.0, "kappa": 0.0}, "g must be nonnegative"),
    ({"kappa": 0.0, "kappa_s": -1.0}, "kappa must be positive"),
    ({"kappa_s": -1.0, "gamma": -1.0}, "kappa_s must be nonnegative"),
    ({"gamma": -0.1}, "gamma must be nonnegative"),
])
def test_cavity_params_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        CavityParams(**{"g": 1.0, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "other", "fraction": "x"}, "unknown eve model 'other'"),
    ({"kind": None}, "unknown eve model None"),
    ({"kind": "intercept_resend", "fraction": None}, "eve fraction must be a number, got None"),
    ({"kind": "none", "fraction": 1.5}, "eve fraction must lie in [0, 1]"),
    ({"kind": "intercept_resend", "fraction": float("nan")}, "eve fraction must lie in [0, 1]"),
    ({"fraction": 0.5}, "eve model 'none' cannot have a nonzero fraction"),
])
def test_eve_model_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        EveModel(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"mode_flip_prob": "x", "phase_flip_prob": "y"}, "mode_flip_prob must be a number, got 'x'"),
    ({"mode_flip_prob": 1.5, "phase_flip_prob": "y"}, "mode_flip_prob must lie in [0, 1]"),
    ({"mode_flip_prob": float("nan")}, "mode_flip_prob must lie in [0, 1]"),
    ({"phase_flip_prob": True}, "phase_flip_prob must be a number, got True"),
    ({"phase_flip_prob": -0.1}, "phase_flip_prob must lie in [0, 1]"),
])
def test_channel_model_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        ChannelModel(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"message_bits": 101, "pair_count": "x"}, "message_bits must be a nonempty string of 0s and 1s"),
    ({"message_bits": ""}, "message_bits must be a nonempty string of 0s and 1s"),
    ({"message_bits": "0120"}, "message_bits must be a nonempty string of 0s and 1s"),
    ({"message_bits": "011", "pair_count": "x"}, "message_bits must have even length (2 bits per pair)"),
    ({"pair_count": 40.0, "sample_fraction": "x"}, "pair_count must be an integer, got 40.0"),
    ({"pair_count": 0, "sample_fraction": "x"}, "sample_fraction must be a number, got 'x'"),
    ({"pair_count": 0, "seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"pair_count": 0, "qber_abort_threshold": None},
     "qber_abort_threshold must be a number, got None"),
    ({"pair_count": 0, "sample_fraction": 0.0}, "pair_count must lie between 1 and 1000000"),
    ({"pair_count": 1_000_001}, "pair_count must lie between 1 and 1000000"),
    ({"sample_fraction": 1.0, "qber_abort_threshold": -1.0},
     "sample_fraction must lie strictly between 0 and 1"),
    ({"qber_abort_threshold": float("inf"), "seed": -1},
     "qber_abort_threshold must be finite and nonnegative"),
    ({"seed": 2**64, "eve_model": None}, "seed must fit in 64 bits"),
    ({"eve_model": None, "channel_model": None}, "eve_model must be a EveModel, got None"),
    ({"eve_model": ChannelModel()},
     "eve_model must be a EveModel, got ChannelModel(mode_flip_prob=0.0, phase_flip_prob=0.0)"),
    ({"channel_model": EveModel(), "sample_fraction": 0.001},
     "channel_model must be a ChannelModel, got EveModel(kind='none', fraction=0.0)"),
    ({"channel_model": None}, "channel_model must be a ChannelModel, got None"),
    ({"sample_fraction": 0.001}, "sample_fraction rounds to zero sampled pairs"),
    ({"pair_count": 3, "sample_fraction": 0.5},
     "infeasible config: 3 pairs minus 2 samples cannot carry 2 message pairs"),
])
def test_qsdc_config_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        QsdcConfig(**{"message_bits": "0110", "pair_count": 40, **kwargs})
    assert str(info.value) == message


# The six records on cavity.Frozen.
FROZEN = {**{name: RECORDS[name] for name in ("DecoherenceParams", "SweepSpec")}, **CONFIGS}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_pickle_and_copy(name):
    cls, fields = FROZEN[name]
    record = cls(*fields.values())
    twins = [pickle.loads(pickle.dumps(record, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*twins, copy.copy(record), copy.deepcopy(record)]:
        assert type(twin) is cls
        assert twin == record and repr(twin) == repr(record)


def test_asdict_nests_the_record_fields():
    cls, fields = CONFIGS["QsdcConfig"]
    config = cls(*fields.values())
    assert config._asdict() == {
        "message_bits": "0110", "pair_count": 40, "sample_fraction": 0.2,
        "eve_model": {"kind": "intercept_resend", "fraction": 0.25},
        "channel_model": {"mode_flip_prob": 0.01, "phase_flip_prob": 0.02},
        "seed": 7, "qber_abort_threshold": 0.3,
    }
    assert list(config._asdict()) == list(fields)
    spec = cli.SweepSpec(*RECORDS["SweepSpec"][1].values())
    assert spec._asdict() == RECORDS["SweepSpec"][1]
