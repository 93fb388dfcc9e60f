"""Spin-selective reflection off a charged quantum dot in a pillar microcavity.

A single excess electron in the dot makes the cavity reflection depend on the
joint state of photon polarization and electron spin.  Circularly polarized
light that addresses the trion transition sees a coupled ("hot") cavity and
reflects with amplitude ``r_h``; the orthogonal combination sees an empty
("cold") cavity and reflects with amplitude ``r_0``.  Which combination is
which follows the selection rules: R with spin up and L with spin down scatter
cold, R with spin down and L with spin up scatter hot.

All rates are quoted in units of the cavity decay kappa.  The idealized model
replaces the two amplitudes by their lossless phases, exp(-i pi/2) for cold
and exp(i 0) for hot, which is the regime the analyzer is designed around.
"""

import math

import numpy as np

IDEAL_COLD = complex(np.exp(-0.5j * np.pi))
IDEAL_HOT = 1.0 + 0.0j


def check_number(name: str, value, whole: bool = False):
    """Return ``value`` as a Python int or float, or raise a ValueError naming
    ``name`` unless it is a real number.

    Python's and numpy's ints and floats pass, but a bool does not, nor a
    Python int too large for a float; with ``whole`` only the ints pass, of
    any size.  Configs run this before any range check.
    """
    kinds = (int, np.integer) if whole else (float, int, np.floating, np.integer)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'an integer' if whole else 'a number'}, got {value!r}")
    if not whole and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number within float range") from None
    if isinstance(value, np.integer):
        return int(value)
    return float(value) if isinstance(value, np.floating) else value


class Frozen:
    """Base of an immutable record whose fields are its ``__slots__``.

    ``__init__`` checks its arguments and sets the fields once, by ``_set``;
    assigning or deleting a field afterwards raises AttributeError.  Records
    compare, hash and print by their fields, as a frozen dataclass does, at a
    fraction of a dataclass's cost to define, and pickle and copy through
    their class.  ``_asdict()`` gives the fields as a dict.  The records on
    this base are the configs ``CavityParams``, ``qsdc.EveModel``,
    ``qsdc.ChannelModel`` and ``qsdc.QsdcConfig``, and ``bsa.DecoherenceParams``
    and ``cli.SweepSpec``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        """The fields by name in field order, a record field as its own dict."""
        return {name: value._asdict() if isinstance(value, Frozen) else value
                for name, value in zip(self.__slots__, self._values())}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the record through its class, not by
        # assigning its fields.
        return type(self), self._values()

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class CavityParams(Frozen):
    """Physical parameters of the dot-cavity system, in units of kappa.

    g is the dot-cavity coupling, kappa the output-coupler decay, kappa_s the
    side-leakage rate, gamma the exciton dipole decay, and delta_c / delta_x
    the detunings of the probe from the cavity and exciton resonances.
    """

    __slots__ = ("g", "kappa", "kappa_s", "gamma", "delta_c", "delta_x")

    def __init__(self, g: float, kappa: float = 1.0, kappa_s: float = 0.0, gamma: float = 0.1,
                 delta_c: float = 0.5, delta_x: float = 0.5):
        values = []
        for name, value in zip(self.__slots__, (g, kappa, kappa_s, gamma, delta_c, delta_x)):
            values.append(check_number(name, value))  # a numpy scalar as its Python number
            if not math.isfinite(values[-1]):
                raise ValueError(f"{name} must be finite")
        g, kappa, kappa_s, gamma = values[:4]
        if not (g >= 0.0):
            raise ValueError("g must be nonnegative")
        if not (kappa > 0.0):
            raise ValueError("kappa must be positive")
        if not (kappa_s >= 0.0):
            raise ValueError("kappa_s must be nonnegative")
        if not (gamma >= 0.0):
            raise ValueError("gamma must be nonnegative")
        self._set(*values)

    @property
    def g_over_ktot(self) -> float:
        return self.g / (self.kappa + self.kappa_s)

    @property
    def ks_over_k(self) -> float:
        return self.kappa_s / self.kappa


def operating_point(
    g_over_ktot: float,
    ks_over_k: float = 0.0,
    gamma: float = 0.1,
    detuning: float = 0.5,
) -> CavityParams:
    """Build CavityParams from the normalized coupling and side leakage.

    The coupling is specified relative to the total decay kappa + kappa_s and
    the probe sits at the stated detuning from both resonances, with kappa as
    the unit rate.
    """
    # Python numbers before the product, which float32 scalars would round.
    g_over_ktot = check_number("g_over_ktot", g_over_ktot)
    kappa_s = check_number("ks_over_k", ks_over_k)
    detuning = check_number("detuning", detuning)
    for name, value in (("g_over_ktot", g_over_ktot), ("ks_over_k", kappa_s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    if not math.isfinite(detuning):
        raise ValueError("detuning must be finite")  # which CavityParams would call delta_c
    return CavityParams(
        g=g_over_ktot * (1.0 + kappa_s),
        kappa=1.0,
        kappa_s=kappa_s,
        gamma=gamma,
        delta_c=detuning,
        delta_x=detuning,
    )


def reflection(params: CavityParams, coupled: bool = True) -> complex:
    """Steady-state reflection amplitude of the one-sided cavity.

    With ``coupled`` true the dot dresses the cavity (hot response); false
    gives the empty-cavity (cold) response.  Input-output theory for a weak
    coherent probe yields

        r_hot  = 1 - kappa * D_x / (D_x * D_c + g^2)
        r_cold = (kappa_s/2 - kappa/2 - i delta_c) / D_c

    with D_x = gamma/2 - i delta_x and D_c = (kappa + kappa_s)/2 - i delta_c.
    """
    if coupled:
        return complex(hot_reflection(params, np.array([params.g]))[0])
    kappa, kappa_s, delta_c = params.kappa, params.kappa_s, params.delta_c
    if max(kappa, kappa_s, abs(delta_c)) < 2.0**-900:
        # Halving a subnormal rate loses bits, all of them at kappa = 5e-324,
        # where D_c would vanish.  r_cold depends only on the ratios of the
        # three, so scaling all by 2**1000 is exact and leaves it as is.
        kappa, kappa_s, delta_c = (v * 2.0**1000 for v in (kappa, kappa_s, delta_c))
    d_cavity = 0.5 * (kappa + kappa_s) - 1j * delta_c
    return (0.5 * kappa_s - 0.5 * kappa - 1j * delta_c) / d_cavity


def hot_reflection(params: CavityParams, g: np.ndarray) -> np.ndarray:
    """r_hot at each coupling in the array ``g``, as a complex array.

    ``params`` gives every other rate; its own g is not used.  The value is
    1 - kappa * D_x / (D_x * D_c + g^2) in numpy's complex arithmetic, which
    agrees with Python's complex type to a few ulps, not bit for bit.
    """
    d_exciton = 0.5 * params.gamma - 1j * params.delta_x
    d_cavity = 0.5 * (params.kappa + params.kappa_s) - 1j * params.delta_c
    # Python floats overflow to inf without a word; so do these arrays.
    with np.errstate(all="ignore"):
        if 0.0 < abs(d_exciton) < 2.0**-900:
            # Subnormal products lose bits and can push |r| above 1.  Scaling
            # D_x by 2**1000 and g by 2**500 is exact and leaves the ratio as is.
            d_exciton *= 2.0**1000
            g = g * 2.0**500
        denominator = d_exciton * d_cavity + g * g
        if np.any(denominator == 0.0):
            raise ValueError("degenerate parameters: hot-cavity response is undefined")
        r_hot = 1.0 - params.kappa * d_exciton / denominator
        if d_exciton == 0.0:
            # The quotient is 0, but numpy's complex division makes 0 / B NaN
            # where B = g^2 is below 2**-1024, whose reciprocal overflows.
            r_hot[np.isnan(r_hot)] = 1.0
        if np.any(np.isnan(r_hot)):
            # inf / inf or inf - inf: both parts of D_x * D_c, or one and g^2, overflowed.
            raise ValueError("rates too large: the hot-cavity response overflows")
    return r_hot


def phase_shifts(params: CavityParams) -> tuple[float, float]:
    """Phases (phi_cold, phi_hot) of the cold and hot reflection amplitudes,
    each in (-pi, pi]."""
    return (
        float(np.angle(reflection(params, coupled=False))),
        float(np.angle(reflection(params, coupled=True))),
    )


def scatter_factors(params: CavityParams | None, passes: int = 1) -> np.ndarray:
    """Diagonal factors over (polarization, spin) for one photon-cavity pass.

    Order is big-endian over (polarization, spin): (R,up), (R,down), (L,up),
    (L,down).  The selection rules put the cold amplitude on (R,up) and
    (L,down) and the hot amplitude on the other two; ``params`` None is the
    ideal cavity, IDEAL_COLD and IDEAL_HOT.  ``passes`` repeats the bounce,
    which for these diagonal factors is a plain power.
    """
    if passes not in (1, 2):
        raise ValueError("passes must be 1 or 2")
    if params is None:
        cold, hot = IDEAL_COLD, IDEAL_HOT
    else:
        cold, hot = reflection(params, coupled=False), reflection(params, coupled=True)
    return np.array([cold, hot, hot, cold], dtype=complex) ** passes
