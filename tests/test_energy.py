"""Thermal network, TEG power and battery arithmetic.

The resistance figures asserted here were computed by hand from the
defining formulas (r = L / (k A) for conduction, areal resistance over
area for interfaces) before the module was written.
"""

import json
import math

import numpy as np
import pytest

from geowsn.energy import (
    BATTERY_CAPACITY_AH,
    CALIBRATED_ELECTRICAL_RESISTANCE_OHM,
    COPPER_CONDUCTIVITY_W_MK,
    DegenerateInputError,
    NonPositiveArgumentError,
    TegParams,
    ThermalStack,
    battery_lifetime_hours,
    calibrate_electrical_resistance,
    default_stack,
    default_teg,
    delta_t_teg,
    load_params,
    r_cylinder,
    r_interface,
    r_plate,
    teg_power,
)

# oracle: L / (k pi r^2) = 0.10 / (385 * pi * 0.01^2)
ROD_RESISTANCE = 0.10 / (385.0 * math.pi * 0.01 ** 2)
# oracle: t / (k w h) = 0.0008 / (385 * 0.04 * 0.04)
PLATE_RESISTANCE = 0.0008 / (385.0 * 0.04 * 0.04)
# oracle: 0.005 K in^2/W over a 40 mm face, in^2 -> m^2
PASTE_RESISTANCE = 0.005 / (0.04 * 0.04 / 6.4516e-4)


def test_rod_resistance_matches_hand_value():
    value = r_cylinder(0.02, 0.10, 385.0)
    assert value == pytest.approx(ROD_RESISTANCE)
    assert value == pytest.approx(0.8267789, abs=1e-6)
    assert 0.815 <= value <= 0.835


def test_plate_resistance_matches_hand_value():
    value = r_plate(0.0008, 0.04, 0.04, 385.0)
    assert value == pytest.approx(PLATE_RESISTANCE)
    assert value == pytest.approx(0.0012987, abs=1e-7)
    assert 0.0011 <= value <= 0.0015


def test_interface_resistance_matches_hand_value():
    value = r_interface(0.005, 0.04 * 0.04)
    assert value == pytest.approx(PASTE_RESISTANCE)
    assert value == pytest.approx(0.00201613, abs=1e-8)


def test_geometry_rejects_non_positive_arguments():
    with pytest.raises(NonPositiveArgumentError):
        r_cylinder(0.0, 0.10, 385.0)
    with pytest.raises(NonPositiveArgumentError):
        r_cylinder(0.02, -1.0, 385.0)
    with pytest.raises(NonPositiveArgumentError):
        r_plate(0.0008, 0.04, 0.0, 385.0)
    with pytest.raises(NonPositiveArgumentError):
        r_interface(0.005, 0.0)
    # zero areal resistance models a perfect joint and is allowed
    assert r_interface(0.0, 0.0016) == 0.0


def test_default_stack_series_total():
    stack = default_stack()
    expected = (0.65 + 1.58 + 2 * PASTE_RESISTANCE + PLATE_RESISTANCE
                + ROD_RESISTANCE)
    assert stack.series_total == pytest.approx(expected)
    assert stack.series_total == pytest.approx(3.06211, abs=1e-5)
    assert stack.teg_fraction == pytest.approx(1.58 / expected)


def test_stack_requires_positive_resistances():
    with pytest.raises(ValueError):
        ThermalStack(heat_sink=0.0, teg=1.58, paste=0.002, cold_plate=0.0013,
                     cold_rod=0.83)


def test_divider_point_value():
    """A 29 degC soil-air gradient leaves 14.96 K across the TEG."""
    stack = default_stack()
    assert delta_t_teg(29.0, 0.0, stack) == pytest.approx(14.9635, abs=5e-4)


def test_divider_scales_linearly():
    stack = default_stack()
    one = delta_t_teg(1.0, 0.0, stack)
    assert delta_t_teg(10.0, 0.0, stack) == pytest.approx(10 * one)
    assert delta_t_teg(5.0, 2.0, stack) == pytest.approx(3 * one)
    assert delta_t_teg(0.0, 4.0, stack) == pytest.approx(-4 * one)


def test_divider_accepts_arrays():
    stack = default_stack()
    soil = np.array([3.0, 10.0, 29.0])
    air = np.zeros(3)
    out = delta_t_teg(soil, air, stack)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(14.9635, abs=5e-4)


def test_power_is_quadratic_and_even():
    teg = default_teg()
    base = teg_power(1.0, teg)
    assert teg_power(2.0, teg) == pytest.approx(4 * base)
    assert teg_power(-1.0, teg) == pytest.approx(base)
    assert teg_power(0.0, teg) == 0.0


def test_power_formula_by_hand():
    teg = TegParams(seebeck_v_per_k=0.04, electrical_resistance_ohm=4.0)
    # (0.04 V/K * 5 K)^2 / (4 * 4 ohm) = 0.04 W / 16 = 2.5 mW
    assert teg_power(5.0, teg) == pytest.approx(0.0025)


def test_calibration_recovers_internal_resistance():
    stack = default_stack()
    r_elec = calibrate_electrical_resistance(29.0, 24.27e-3, stack)
    assert r_elec == pytest.approx(3.6903, abs=1e-3)
    assert r_elec == pytest.approx(CALIBRATED_ELECTRICAL_RESISTANCE_OHM,
                                   abs=0.05)
    # feeding the value back reproduces the operating point
    teg = TegParams(0.04, r_elec)
    power = teg_power(delta_t_teg(29.0, 0.0, stack), teg)
    assert power == pytest.approx(24.27e-3, rel=1e-9)


def test_calibration_rejects_degenerate_points():
    stack = default_stack()
    with pytest.raises(DegenerateInputError):
        calibrate_electrical_resistance(0.0, 1e-3, stack)
    with pytest.raises(DegenerateInputError):
        calibrate_electrical_resistance(29.0, 0.0, stack)
    for mean_dt_c, power_w, alpha in ((math.inf, 24.27e-3, 0.04),
                                      (math.nan, 24.27e-3, 0.04),
                                      (29.0, math.inf, 0.04),
                                      (29.0, 24.27e-3, math.nan),
                                      (29.0, 24.27e-3, 0.0),
                                      (29.0, 24.27e-3, -0.04),
                                      # the resistance overflows to inf
                                      (29.0, 1e-313, 0.04),
                                      # the voltage squared underflows to 0
                                      (1e-200, 1e297, 0.04)):
        with pytest.raises(DegenerateInputError):
            calibrate_electrical_resistance(mean_dt_c, power_w, stack, alpha)


def test_battery_arithmetic():
    hours = battery_lifetime_hours(BATTERY_CAPACITY_AH, 10e-6)
    assert hours == pytest.approx(1.9e6, rel=1e-3)
    with pytest.raises(NonPositiveArgumentError):
        battery_lifetime_hours(19.0, 0.0)


def test_load_params_defaults_match_reference_stack(tmp_path):
    path = tmp_path / "params.json"
    path.write_text("{}")
    stack, teg = load_params(path)
    assert stack == default_stack()
    assert teg == default_teg()


def test_load_params_accepts_geometry_objects(tmp_path):
    doc = {
        "r_hs": 0.5,
        "r_teg_th": 1.6,
        "alpha_v_per_k": 0.05,
        "r_elec_ohm": 4.0,
        "r_tp": {"interface": {"areal_resistance_k_in2_per_w": 0.005,
                               "area_m2": 0.0016}},
        "r_cplt": {"plate": {"thickness_m": 0.001, "width_m": 0.04,
                             "height_m": 0.04}},
        "r_crod": {"cylinder": {"diameter_m": 0.02, "length_m": 0.2}},
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    stack, teg = load_params(path)
    assert stack.heat_sink == 0.5
    assert stack.teg == 1.6
    assert stack.paste == pytest.approx(r_interface(0.005, 0.0016))
    assert stack.cold_plate == pytest.approx(
        r_plate(0.001, 0.04, 0.04, COPPER_CONDUCTIVITY_W_MK))
    assert stack.cold_rod == pytest.approx(
        r_cylinder(0.02, 0.2, COPPER_CONDUCTIVITY_W_MK))
    assert teg.seebeck_v_per_k == 0.05
    assert teg.electrical_resistance_ohm == 4.0


def test_load_params_accepts_parsed_dict():
    stack, teg = load_params({"r_elec_ohm": 2.5})
    assert stack == default_stack()
    assert teg.electrical_resistance_ohm == 2.5


@pytest.mark.parametrize("doc, names", [
    (5, "object"),
    ([], "object"),
    ({"r_hs": None}, "r_hs"),
    ({"r_hs": "0.5"}, "r_hs"),
    ({"alpha_v_per_k": True}, "alpha_v_per_k"),
    ({"r_elec_ohm": False}, "r_elec_ohm"),
    ({"r_hs": {"cylinder": 5}}, "r_hs"),
    ({"r_tp": math.nan}, "paste"),
    ({"r_tp": math.inf}, "paste"),
    # a misspelt key used to fall back to copper
    ({"r_crod": {"cylinder": {"diameter_m": 0.02, "length_m": 0.2,
                              "conductivity": 1}}}, "conductivity"),
    ({"r_cplt": {"plate": {"thickness_m": 0.001, "width_m": 0.04}}},
     "height_m"),
    # JSON true and a quoted number are no length
    ({"r_crod": {"cylinder": {"diameter_m": True, "length_m": 0.1}}},
     "r_crod: diameter_m must be a number, got True"),
    ({"r_crod": {"cylinder": {"diameter_m": "0.02", "length_m": 0.1}}},
     "r_crod: diameter_m must be a number, got '0.02'"),
    ({"r_tp": {"interface": {"areal_resistance_k_in2_per_w": False,
                             "area_m2": 0.0016}}},
     "r_tp: areal_resistance_k_in2_per_w"),
])
def test_load_params_rejects_malformed_files(tmp_path, doc, names):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=names):
        load_params(path)


def test_load_params_rejects_unknown_keys(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"alpha": 0.04}))
    with pytest.raises(ValueError, match="alpha"):
        load_params(path)
    with pytest.raises(ValueError, match="cone"):
        load_params({"r_crod": {"cone": {}}})
