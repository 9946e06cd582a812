"""Analytical electromigration lifetime models.

Implements the standard current-density MTF law (Black's equation) and the
RMS-current (Joule-heating) MTF model, together with the ratio arithmetic
used to compare architectures:

    MTF        = A / J**n * exp(Ea / (kB * T))                  (Black)
    J          = C * VDD / (W * H) * p * f                      (peak current density)
    I_reduced  = I_max * sqrt(MTF_technology / MTF_reduced)     (RMS relaxation)
    MTF_rms    = ((K1/K2)**2 / (C**2 * VDD**2) / (Fmax * p)) ** (n/2)
    K1         = A * (W*H)**n * exp(Ea / (kB * T))
    K2         = sqrt(1/t_r + 1/t_f)

Unit conventions: Ea in electron-volts, T in kelvin (helpers convert from
Celsius), geometry in meters, capacitance in farads, frequency in hertz,
currents in amperes. The scale constant A is dimensionless by default
(A = 1), which makes absolute MTF values meaningful only as ratios; the
ratio-form operations (mtf_improvement, lifetime_extension_from_current_ratio)
are the intended reporting surface.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .records import Checked

# Boltzmann constant in eV/K (CODATA; exact under the 2019 SI).
BOLTZMANN_EV_PER_K = 8.617333262e-5


class Unbounded:
    """Sentinel for an MTF or improvement with no finite bound.

    Returned instead of infinity so reports can serialize it explicitly
    (an element that never switches does not age by this mechanism).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = Unbounded()


def celsius_to_kelvin(temp_c: float) -> float:
    return temp_c + 273.15


class _TechParams(NamedTuple):
    scale_A: float = 1.0
    exponent_n: float = 2.0
    activation_energy_ea: float = 0.0
    temperature_t: float = 378.15  # 105 C, the usual sign-off corner


class TechParams(Checked, _TechParams):
    """Process/fit constants of the MTF laws.

    scale_A carries whatever MTF unit the fit was made in and cancels in
    every ratio; exponent_n is the current-density exponent (2 unless a
    foundry fit says otherwise); activation_energy_ea in eV; temperature_t
    in kelvin.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.scale_A <= 0:
            raise ValueError("scale_A must be > 0")
        if self.exponent_n <= 0:
            raise ValueError("exponent_n must be > 0")
        if self.activation_energy_ea < 0:
            raise ValueError("activation_energy_ea must be >= 0")
        if self.temperature_t <= 0:
            raise ValueError("temperature_t must be > 0 (kelvin)")
        return self

    def thermal_factor(self) -> float:
        """exp(Ea / (kB * T)), shared by both MTF laws."""
        return math.exp(self.activation_energy_ea / (BOLTZMANN_EV_PER_K * self.temperature_t))


class _WireGeometry(NamedTuple):
    width_w: float
    height_h: float


class WireGeometry(Checked, _WireGeometry):
    """Metal cross-section: width and height in meters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.width_w <= 0 or self.height_h <= 0:
            raise ValueError("wire width and height must be > 0")
        return self

    @property
    def area(self) -> float:
        return self.width_w * self.height_h


class _SignalElectricals(NamedTuple):
    capacitance_c: float
    supply_vdd: float
    frequency_f: float
    toggle_p: float
    rise_tr: float = 1e-10
    fall_tf: float = 1e-10


class SignalElectricals(Checked, _SignalElectricals):
    """Electrical parameters of one signal net.

    toggle_p is the switching probability per cycle; frequency_f doubles as
    the maximum clock frequency in the RMS MTF law.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.capacitance_c < 0:
            raise ValueError("capacitance_c must be >= 0")
        if self.supply_vdd <= 0:
            raise ValueError("supply_vdd must be > 0")
        if self.frequency_f <= 0:
            raise ValueError("frequency_f must be > 0")
        if not 0.0 <= self.toggle_p <= 1.0:
            raise ValueError("toggle_p must be within [0, 1]")
        if self.rise_tr <= 0 or self.fall_tf <= 0:
            raise ValueError("rise/fall times must be > 0")
        return self


class _RmsLimit(NamedTuple):
    i_rms_max: float
    mtf_technology: float = 10.0  # years


class RmsLimit(Checked, _RmsLimit):
    """Foundry RMS-current limit and the technology MTF it guarantees."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.i_rms_max <= 0 or self.mtf_technology <= 0:
            raise ValueError("RMS limit fields must be > 0")
        return self


def black_mtf(tech: TechParams, current_density_j: float) -> float:
    """Median time to failure of a wire segment under current density J.

    Returned in the units of tech.scale_A.
    """
    if current_density_j <= 0:
        raise ValueError("current density J must be > 0")
    return tech.scale_A / current_density_j**tech.exponent_n * tech.thermal_factor()


def current_density(sig: SignalElectricals, geom: WireGeometry) -> float:
    """Peak current density C*VDD/(W*H) * p * f in A/m^2."""
    return sig.capacitance_c * sig.supply_vdd / geom.area * sig.toggle_p * sig.frequency_f


def reduced_rms_current(limit: RmsLimit, mtf_reduced: float) -> float:
    """RMS current allowed when the target MTF is mtf_reduced years.

    Relaxing MTF below the technology default permits more current; asking
    for a longer life than the default tightens it.
    """
    if mtf_reduced <= 0:
        raise ValueError("mtf_reduced must be > 0")
    return limit.i_rms_max * math.sqrt(limit.mtf_technology / mtf_reduced)


def lifetime_extension_from_current_ratio(i_ratio: float) -> float:
    """Lifetime multiplier obtained by running at i_ratio = I_reduced/I_max.

    MTF scales with the inverse square of the RMS current, so a net pushed
    at 70% of its limit lasts (1/0.7)^2 ~ 2x longer.
    """
    if not 0.0 < i_ratio <= 1.0:
        raise ValueError("i_ratio must be in (0, 1]")
    return (1.0 / i_ratio) ** 2


def k1(tech: TechParams, geom: WireGeometry) -> float:
    """Geometry/temperature factor A * (W*H)^n * exp(Ea/(kB*T))."""
    return tech.scale_A * geom.area**tech.exponent_n * tech.thermal_factor()


def k2(sig: SignalElectricals) -> float:
    """Edge-rate factor sqrt(1/t_r + 1/t_f)."""
    return math.sqrt(1.0 / sig.rise_tr + 1.0 / sig.fall_tf)


def rms_em_mtf(tech: TechParams, geom: WireGeometry, sig: SignalElectricals):
    """MTF under the RMS-current (Joule-heating) model.

    Returns UNBOUNDED when toggle_p is zero: a net that never switches
    carries no RMS stress, and reports must not pretend that is a number.
    """
    if sig.toggle_p == 0:
        return UNBOUNDED
    ratio = k1(tech, geom) / k2(sig)
    inner = (
        ratio**2
        / (sig.capacitance_c**2 * sig.supply_vdd**2)
        / (sig.frequency_f * sig.toggle_p)
    )
    return inner ** (tech.exponent_n / 2.0)


def mtf_improvement(p_max_original: float, p_max_aware: float) -> float:
    """Relative MTF gain from lowering the hottest element's toggle rate.

    Accepts either toggle rates or raw maximum write counts over
    equal-length runs; the ratio is scale-invariant. Raises when the aware
    maximum is zero -- the caller must report that as unbounded explicitly
    rather than receive infinity.
    """
    if p_max_original <= 0:
        raise ValueError("p_max_original must be > 0")
    if p_max_aware <= 0:
        raise ValueError("p_max_aware must be > 0 (unbounded improvement otherwise)")
    return p_max_original / p_max_aware - 1.0
