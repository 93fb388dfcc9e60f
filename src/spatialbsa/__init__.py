"""Spatial-mode Bell-state analysis on a dot-cavity parity check.

The package simulates a deterministic analyzer for the four Bell states of
two dual-rail photons, scores it against realistic cavity parameters, and
runs a two-step direct-communication protocol on top of it.  The package
namespace holds the entry points and the types they take, return or raise;
the stage functions live in their modules.
"""

from .bsa import BsaRecord, DetectorPair, QualityPoint, analyze, quality
from .cavity import CavityParams, operating_point
from .qsdc import ChannelModel, EveModel, QsdcConfig, SessionReport, run_session
from .states import BellState, ZeroNormError

__version__ = "0.1.0"

# The statevector register is loaded when one of these is first looked up, so
# importing the package, as every command does, does not load it (PEP 562).
_REGISTER_NAMES = ("QuantumRegister", "make_bell")


def __getattr__(name):
    if name in _REGISTER_NAMES:
        from . import register

        return getattr(register, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_REGISTER_NAMES})


__all__ = [
    "BellState",
    "BsaRecord",
    "CavityParams",
    "ChannelModel",
    "DetectorPair",
    "EveModel",
    "QsdcConfig",
    "QualityPoint",
    "QuantumRegister",
    "SessionReport",
    "ZeroNormError",
    "analyze",
    "make_bell",
    "operating_point",
    "quality",
    "run_session",
]
