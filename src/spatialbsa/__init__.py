"""Spatial-mode Bell-state analysis on a dot-cavity parity check.

The package simulates a deterministic analyzer for the four Bell states of
two dual-rail photons, scores it against realistic cavity parameters, and
runs a two-step direct-communication protocol on top of it.  The package
namespace holds the entry points and the types they take, return or raise;
the stage functions live in their modules.  A name or submodule is imported
when first looked up (PEP 562), so ``import spatialbsa`` loads no module.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_HOMES = {
    "BellState": "states", "ZeroNormError": "states",
    "CavityParams": "cavity", "operating_point": "cavity",
    "BsaRecord": "bsa", "DetectorPair": "bsa", "QualityPoint": "bsa", "analyze": "bsa",
    "quality": "bsa",
    "ChannelModel": "qsdc", "EveModel": "qsdc", "QsdcConfig": "qsdc", "SessionReport": "qsdc",
    "run_session": "qsdc",
    "QuantumRegister": "register", "make_bell": "register",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name.isidentifier():  # a submodule, if the package has one of this name
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES})
