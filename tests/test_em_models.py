import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsim.em_models import (
    BOLTZMANN_EV_PER_K,
    UNBOUNDED,
    RmsLimit,
    SignalElectricals,
    TechParams,
    WireGeometry,
    black_mtf,
    celsius_to_kelvin,
    current_density,
    k1,
    k2,
    lifetime_extension_from_current_ratio,
    mtf_improvement,
    reduced_rms_current,
    rms_em_mtf,
)

REL = 1e-12


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestBlackMtf:
    def test_unit_collapse(self):
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0, temperature_t=300)
        assert black_mtf(tech, 1.0) == 1.0

    def test_doubling_j_quarters_mtf(self):
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0, temperature_t=300)
        assert black_mtf(tech, 2.0) == 0.25

    def test_high_precision_case(self):
        # Frozen from a 50-digit mpmath evaluation of
        # exp(0.9 / (8.617333262e-5 * 398.15)) / 1e20  (125 C junction).
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0.9,
                          temperature_t=celsius_to_kelvin(125.0))
        got = black_mtf(tech, 1e10)
        assert rel_err(got, 2.4671172791298099903e-9) < REL

    def test_nonpositive_j_rejected(self):
        tech = TechParams()
        with pytest.raises(ValueError):
            black_mtf(tech, 0.0)
        with pytest.raises(ValueError):
            black_mtf(tech, -1.0)

    def test_monotone_decreasing_in_j(self):
        tech = TechParams(activation_energy_ea=0.8, temperature_t=400.0)
        grid = [10.0**e for e in range(2, 12)]
        values = [black_mtf(tech, j) for j in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCurrentDensity:
    GEOM = WireGeometry(width_w=1e-7, height_h=1e-7)

    def test_no_switching_no_current(self):
        sig = SignalElectricals(capacitance_c=1e-15, supply_vdd=0.9,
                                frequency_f=2.66e9, toggle_p=0.0)
        assert current_density(sig, self.GEOM) == 0.0

    def test_hand_arithmetic(self):
        # 1e-15 * 0.9 / 1e-14 * 1 * 2.66e9 = 2.394e8 A/m^2
        sig = SignalElectricals(capacitance_c=1e-15, supply_vdd=0.9,
                                frequency_f=2.66e9, toggle_p=1.0)
        assert rel_err(current_density(sig, self.GEOM), 2.394e8) < REL

    def test_doubling_width_halves_density(self):
        sig = SignalElectricals(capacitance_c=2e-15, supply_vdd=0.8,
                                frequency_f=1e9, toggle_p=0.3)
        wide = WireGeometry(width_w=2e-7, height_h=1e-7)
        assert rel_err(current_density(sig, wide),
                       current_density(sig, self.GEOM) / 2) < REL


class TestReducedRmsCurrent:
    def test_identity_when_mtf_unchanged(self):
        assert reduced_rms_current(RmsLimit(1.0, 10.0), 10.0) == 1.0

    def test_quadruple_mtf_halves_current(self):
        assert rel_err(reduced_rms_current(RmsLimit(1.0, 10.0), 40.0), 0.5) < REL

    def test_quarter_mtf_doubles_current(self):
        assert rel_err(reduced_rms_current(RmsLimit(2e-3, 10.0), 2.5), 4e-3) < REL

    def test_nonpositive_mtf_rejected(self):
        with pytest.raises(ValueError):
            reduced_rms_current(RmsLimit(1.0, 10.0), 0.0)


class TestLifetimeExtension:
    def test_values(self):
        assert rel_err(lifetime_extension_from_current_ratio(0.70), 2.0408163265306122) < REL
        assert lifetime_extension_from_current_ratio(0.32) == 9.765625
        assert lifetime_extension_from_current_ratio(1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lifetime_extension_from_current_ratio(0.0)
        with pytest.raises(ValueError):
            lifetime_extension_from_current_ratio(1.5)

    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(derandomize=True)
    def test_round_trip_with_reduced_current(self, m):
        # Target MTF of m * technology MTF implies extension factor m.
        limit = RmsLimit(i_rms_max=3e-3, mtf_technology=10.0)
        reduced = reduced_rms_current(limit, m * limit.mtf_technology)
        ratio = reduced / limit.i_rms_max
        assert rel_err(lifetime_extension_from_current_ratio(ratio), m) < 1e-12


class TestK1K2:
    def test_k1_unit_collapse(self):
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0, temperature_t=300)
        assert k1(tech, WireGeometry(1.0, 1.0)) == 1.0
        assert k1(tech, WireGeometry(2.0, 1.0)) == 4.0

    def test_k1_high_precision_case(self):
        # Frozen from a 50-digit mpmath evaluation of
        # (1e-14)^2 * exp(0.9 / (8.617333262e-5 * 378.15))  (105 C junction).
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0.9,
                          temperature_t=celsius_to_kelvin(105.0))
        got = k1(tech, WireGeometry(1e-7, 1e-7))
        assert rel_err(got, 9.8789790325853081317e-17) < REL

    def test_k2(self):
        sig = SignalElectricals(1e-15, 0.9, 1e9, 0.5, rise_tr=2.0, fall_tf=2.0)
        assert rel_err(k2(sig), 1.0) < REL
        sig = SignalElectricals(1e-15, 0.9, 1e9, 0.5, rise_tr=1.0, fall_tf=1.0)
        assert rel_err(k2(sig), math.sqrt(2.0)) < REL
        sig = SignalElectricals(1e-15, 0.9, 1e9, 0.5, rise_tr=1e-10, fall_tf=1e-10)
        assert rel_err(k2(sig), 141421.35623730950488) < REL


class TestRmsEmMtf:
    TECH = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0.9,
                      temperature_t=378.15)
    GEOM = WireGeometry(1e-7, 1e-7)

    def sig(self, p, f=2.66e9):
        return SignalElectricals(capacitance_c=1e-15, supply_vdd=0.9, frequency_f=f,
                                 toggle_p=p, rise_tr=1e-10, fall_tf=1e-10)

    def test_unit_collapse(self):
        tech = TechParams(scale_A=1, exponent_n=2, activation_energy_ea=0, temperature_t=300)
        geom = WireGeometry(1.0, 1.0)
        sig = SignalElectricals(capacitance_c=1.0, supply_vdd=1.0, frequency_f=1.0,
                                toggle_p=1.0, rise_tr=2.0, fall_tf=2.0)
        assert rms_em_mtf(tech, geom, sig) == 1.0

    def test_halving_p_doubles_mtf(self):
        lo = rms_em_mtf(self.TECH, self.GEOM, self.sig(0.5))
        hi = rms_em_mtf(self.TECH, self.GEOM, self.sig(0.25))
        assert rel_err(hi, 2 * lo) < REL

    def test_high_precision_case(self):
        # Frozen from a 50-digit mpmath evaluation with K1 and K2 as in the
        # cases above, C=1e-15, VDD=0.9, f=2.66e9, p=0.2.
        got = rms_em_mtf(self.TECH, self.GEOM, self.sig(0.2))
        assert rel_err(got, 1.1323937938162553437e-21) < REL

    def test_zero_toggle_is_unbounded(self):
        assert rms_em_mtf(self.TECH, self.GEOM, self.sig(0.0)) is UNBOUNDED
        assert repr(UNBOUNDED) == "UNBOUNDED"

    def test_monotone_decreasing_in_p(self):
        values = [rms_em_mtf(self.TECH, self.GEOM, self.sig(p))
                  for p in (0.01, 0.05, 0.1, 0.3, 0.6, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invariant_mtf_times_p_pow_n_half_constant(self):
        n = self.TECH.exponent_n
        products = [rms_em_mtf(self.TECH, self.GEOM, self.sig(p)) * p ** (n / 2)
                    for p in (0.05, 0.2, 0.5, 0.9)]
        base = products[0]
        assert all(rel_err(v, base) < 1e-12 for v in products)


class TestMtfImprovement:
    def test_identical_hotspots(self):
        assert mtf_improvement(5.0, 5.0) == 0.0

    def test_hand_values(self):
        assert rel_err(mtf_improvement(60, 34), 0.76470588235294117647) < REL
        assert mtf_improvement(100, 20) == 4.0

    def test_zero_aware_rejected(self):
        with pytest.raises(ValueError):
            mtf_improvement(10, 0)
        with pytest.raises(ValueError):
            mtf_improvement(0, 10)

    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(derandomize=True)
    def test_ratio_antisymmetry(self, a, ratio):
        # Hotspot ratios are kept within three decades: beyond that the +1
        # on a ~-1 improvement cancels below 1e-12 in float64 no matter how
        # the improvement itself was computed.
        b = a * ratio
        lhs = mtf_improvement(a, b) + 1.0
        rhs = 1.0 / (mtf_improvement(b, a) + 1.0)
        assert rel_err(lhs, rhs) < 1e-12


def test_boltzmann_constant_value():
    assert BOLTZMANN_EV_PER_K == 8.617333262e-5


def test_celsius_conversion():
    assert celsius_to_kelvin(125.0) == 398.15
    assert celsius_to_kelvin(105.0) == 378.15


SIGNAL = {"capacitance_c": 1e-15, "supply_vdd": 0.9, "frequency_f": 1e9, "toggle_p": 0.5}


@pytest.mark.parametrize("check, message", [
    pytest.param(lambda nan: TechParams(scale_A=nan), "scale_A must be > 0", id="scale_A"),
    pytest.param(lambda nan: TechParams(exponent_n=nan), "exponent_n must be > 0",
                 id="exponent_n"),
    pytest.param(lambda nan: TechParams(activation_energy_ea=nan),
                 "activation_energy_ea must be >= 0", id="activation_energy_ea"),
    pytest.param(lambda nan: TechParams(temperature_t=nan), r"temperature_t must be > 0 \(kelvin\)",
                 id="temperature_t"),
    pytest.param(lambda nan: WireGeometry(nan, 1e-7), "wire width and height must be > 0",
                 id="width_w"),
    pytest.param(lambda nan: WireGeometry(1e-7, nan), "wire width and height must be > 0",
                 id="height_h"),
    *(pytest.param(lambda nan, field=field: SignalElectricals(**{**SIGNAL, field: nan}),
                   message, id=field)
      for field, message in (("capacitance_c", "capacitance_c must be >= 0"),
                             ("supply_vdd", "supply_vdd must be > 0"),
                             ("frequency_f", "frequency_f must be > 0"),
                             ("toggle_p", r"toggle_p must be within \[0, 1\]"),
                             ("rise_tr", "rise/fall times must be > 0"),
                             ("fall_tf", "rise/fall times must be > 0"))),
    pytest.param(lambda nan: RmsLimit(nan), "RMS limit fields must be > 0", id="i_rms_max"),
    pytest.param(lambda nan: RmsLimit(1e-3, nan), "RMS limit fields must be > 0",
                 id="mtf_technology"),
    pytest.param(lambda nan: black_mtf(TechParams(), nan), "current density J must be > 0",
                 id="black_mtf"),
    pytest.param(lambda nan: reduced_rms_current(RmsLimit(1e-3), nan), "mtf_reduced must be > 0",
                 id="reduced_rms_current"),
    pytest.param(lambda nan: lifetime_extension_from_current_ratio(nan),
                 r"i_ratio must be in \(0, 1\]", id="lifetime_extension"),
    pytest.param(lambda nan: mtf_improvement(nan, 1.0), "p_max_original must be > 0",
                 id="p_max_original"),
    pytest.param(lambda nan: mtf_improvement(1.0, nan), "p_max_aware must be > 0",
                 id="p_max_aware"),
])
@pytest.mark.parametrize("nan", [math.nan, -math.nan])
def test_nan_is_rejected_with_its_check_message(check, message, nan):
    # every range check also turns NaN away, which compares false either way
    with pytest.raises(ValueError, match=message):
        check(nan)


def test_invariant_validation():
    with pytest.raises(ValueError):
        TechParams(scale_A=0)
    with pytest.raises(ValueError):
        TechParams(temperature_t=-1)
    with pytest.raises(ValueError):
        WireGeometry(0.0, 1e-7)
    with pytest.raises(ValueError):
        SignalElectricals(1e-15, 0.9, 1e9, toggle_p=1.5)
    with pytest.raises(ValueError):
        RmsLimit(0.0)
