"""Thermoelectric harvesting model and battery lifetime.

The harvester couples warm soil to cold air through a series thermal
circuit: rod into the soil, cold plate, paste interface, TEG module,
paste interface, heat sink.  Only the fraction of the soil-air gradient
that falls across the TEG itself generates power, and at matched load
that power is quadratic in the gradient.  All functions accept numpy
arrays transparently, so whole traces evaluate in one call.

Units are SI throughout: resistances in K/W, temperatures in degC
(differences in K), power in W.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

#: 1 square inch in square meters, for paste datasheets quoting K*in^2/W
SQUARE_METERS_PER_SQUARE_INCH = 6.4516e-4

COPPER_CONDUCTIVITY_W_MK = 385.0

# the reference harvester build: a 40 mm TG12-6 class module on a
# 0.65 K/W heat sink, coupled to the soil by a copper rod and plate
TEG_THERMAL_RESISTANCE_K_PER_W = 1.58
TEG_SEEBECK_V_PER_K = 0.040
HEAT_SINK_RESISTANCE_K_PER_W = 0.65
PASTE_AREAL_RESISTANCE_K_IN2_PER_W = 0.005
TEG_FACE_M = 0.040
COLD_PLATE_THICKNESS_M = 0.0008
COLD_ROD_DIAMETER_M = 0.02
COLD_ROD_LENGTH_M = 0.10
#: matched-load calibration against a measured yearly mean (see
#: calibrate_electrical_resistance)
CALIBRATED_ELECTRICAL_RESISTANCE_OHM = 3.69

BATTERY_CAPACITY_AH = 19.0
SUPPLY_VOLTAGE_V = 3.6
#: a mean year of 365.25 days
HOURS_PER_YEAR = 8766.0


class NonPositiveArgumentError(ValueError):
    def __init__(self, name: str, value):
        super().__init__(f"{name} must be positive, got {value}")


class DegenerateInputError(ValueError):
    pass


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0 or not math.isfinite(value):
        raise NonPositiveArgumentError(name, value)
    return value


def r_cylinder(diameter_m: float, length_m: float,
               conductivity_w_mk: float = COPPER_CONDUCTIVITY_W_MK) -> float:
    """Conduction resistance of a solid cylinder along its axis, K/W."""
    diameter_m = _positive("diameter_m", diameter_m)
    length_m = _positive("length_m", length_m)
    conductivity_w_mk = _positive("conductivity_w_mk", conductivity_w_mk)
    area = math.pi * (diameter_m / 2.0) ** 2
    return length_m / (conductivity_w_mk * area)


def r_plate(thickness_m: float, width_m: float, height_m: float,
            conductivity_w_mk: float = COPPER_CONDUCTIVITY_W_MK) -> float:
    """Conduction resistance through a rectangular plate's thickness, K/W."""
    thickness_m = _positive("thickness_m", thickness_m)
    width_m = _positive("width_m", width_m)
    height_m = _positive("height_m", height_m)
    conductivity_w_mk = _positive("conductivity_w_mk", conductivity_w_mk)
    return thickness_m / (conductivity_w_mk * width_m * height_m)


def r_interface(areal_resistance_k_in2_per_w: float, area_m2: float) -> float:
    """Contact resistance of a paste layer, from its areal rating, K/W."""
    areal = float(areal_resistance_k_in2_per_w)
    if areal < 0 or not math.isfinite(areal):
        raise NonPositiveArgumentError("areal_resistance_k_in2_per_w", areal)
    area_m2 = _positive("area_m2", area_m2)
    return areal / (area_m2 / SQUARE_METERS_PER_SQUARE_INCH)


@dataclass(frozen=True)
class ThermalStack:
    """The series thermal circuit between soil and air, K/W each.

    ``paste`` is a single interface layer; it appears twice in the
    series (one face of the TEG each).
    """

    heat_sink: float
    teg: float
    paste: float
    cold_plate: float
    cold_rod: float

    def __post_init__(self) -> None:
        for name in ("heat_sink", "teg", "cold_plate", "cold_rod"):
            _positive(name, getattr(self, name))
        if not 0 <= self.paste < math.inf:
            raise NonPositiveArgumentError("paste", self.paste)

    @property
    def series_total(self) -> float:
        return (self.heat_sink + self.teg + 2.0 * self.paste
                + self.cold_plate + self.cold_rod)

    @property
    def teg_fraction(self) -> float:
        """Share of the soil-air gradient that falls across the TEG."""
        return self.teg / self.series_total


@dataclass(frozen=True)
class TegParams:
    """Electrical side of the module: Seebeck coefficient and internal
    resistance, for matched-load power."""

    seebeck_v_per_k: float
    electrical_resistance_ohm: float

    def __post_init__(self) -> None:
        _positive("seebeck_v_per_k", self.seebeck_v_per_k)
        _positive("electrical_resistance_ohm", self.electrical_resistance_ohm)


def default_stack() -> ThermalStack:
    """The reference harvester stack, from its part geometry."""
    face_area = TEG_FACE_M * TEG_FACE_M
    return ThermalStack(
        heat_sink=HEAT_SINK_RESISTANCE_K_PER_W,
        teg=TEG_THERMAL_RESISTANCE_K_PER_W,
        paste=r_interface(PASTE_AREAL_RESISTANCE_K_IN2_PER_W, face_area),
        cold_plate=r_plate(COLD_PLATE_THICKNESS_M, TEG_FACE_M, TEG_FACE_M),
        cold_rod=r_cylinder(COLD_ROD_DIAMETER_M, COLD_ROD_LENGTH_M),
    )


def default_teg() -> TegParams:
    return TegParams(TEG_SEEBECK_V_PER_K, CALIBRATED_ELECTRICAL_RESISTANCE_OHM)


def delta_t_teg(t_soil_c, t_air_c, stack: ThermalStack):
    """Temperature difference across the TEG for a soil-air gradient.

    The environment gradient divides over the series stack; only the
    TEG's share drives generation.  Accepts scalars or arrays.
    """
    return (np.asarray(t_soil_c, dtype=float) - np.asarray(t_air_c, dtype=float)) \
        * stack.teg_fraction


def teg_power(delta_t_teg_k, teg: TegParams):
    """Matched-load electrical power for a TEG-side gradient, W.

    Quadratic and even in the gradient; accepts scalars or arrays.
    """
    voltage = teg.seebeck_v_per_k * np.asarray(delta_t_teg_k, dtype=float)
    return voltage * voltage / (4.0 * teg.electrical_resistance_ohm)


def calibrate_electrical_resistance(
    mean_delta_t_env_c: float,
    mean_power_w: float,
    stack: ThermalStack,
    seebeck_v_per_k: float = TEG_SEEBECK_V_PER_K,
) -> float:
    """Back out the module's internal resistance from one measured
    operating point (a mean gradient and the mean power it yielded)."""
    dt_teg = float(mean_delta_t_env_c) * stack.teg_fraction
    if dt_teg == 0.0 or not math.isfinite(dt_teg):
        raise DegenerateInputError(
            "cannot calibrate on a zero or non-finite gradient")
    if not 0 < mean_power_w < math.inf:
        raise DegenerateInputError(
            "cannot calibrate on non-positive or non-finite power")
    if not 0 < seebeck_v_per_k < math.inf:
        raise DegenerateInputError(
            "the Seebeck coefficient must be finite and positive")
    voltage = seebeck_v_per_k * dt_teg
    r_elec = voltage * voltage / (4.0 * float(mean_power_w))
    if not 0 < r_elec < math.inf:
        raise DegenerateInputError(
            f"the operating point gives a resistance of {r_elec} ohm,"
            " not a finite positive one")
    return r_elec


# -- parameter files ----------------------------------------------------------

_GEOMETRY_BUILDERS = {
    "cylinder": r_cylinder,
    "plate": r_plate,
    "interface": r_interface,
}

_STACK_KEYS = {
    "r_hs": "heat_sink",
    "r_teg_th": "teg",
    "r_tp": "paste",
    "r_cplt": "cold_plate",
    "r_crod": "cold_rod",
}


def _number(value, key: str) -> float:
    if type(value) not in (int, float):  # bool is not a number here
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _resolve_resistance(value, key: str) -> float:
    if isinstance(value, dict):
        if len(value) != 1:
            raise ValueError(
                f"{key}: a geometry entry holds exactly one shape object"
            )
        shape, geometry = next(iter(value.items()))
        try:
            builder = _GEOMETRY_BUILDERS[shape]
        except KeyError:
            raise ValueError(f"{key}: unknown geometry {shape!r}") from None
        if not isinstance(geometry, dict):
            raise ValueError(f"{key}: the {shape} geometry must be an object")
        try:
            return builder(**{name: _number(size, f"{key}: {name}")
                              for name, size in geometry.items()})
        except TypeError as exc:  # an unknown or a missing key
            raise ValueError(f"{key}: {exc}") from None
    return _number(value, key)


def load_params(source) -> tuple[ThermalStack, TegParams]:
    """Read a harvester parameter file (UTF-8 JSON) or a parsed dict.

    Keys ``r_hs``, ``r_teg_th``, ``r_tp``, ``r_cplt`` and ``r_crod``
    give resistances in K/W, either as numbers or as geometry objects
    (``{"cylinder": {...}}``, ``{"plate": {...}}``,
    ``{"interface": {...}}``) resolved through the calculators above;
    ``alpha_v_per_k`` and ``r_elec_ohm`` describe the module.  Missing
    keys fall back to the reference harvester.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            doc = json.load(handle)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError(f"parameters must be a JSON object, got {doc!r}")
    known = set(_STACK_KEYS) | {"alpha_v_per_k", "r_elec_ohm"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown parameter key {sorted(unknown)[0]!r}")
    stack = default_stack()
    overrides = {
        field: _resolve_resistance(doc[key], key)
        for key, field in _STACK_KEYS.items()
        if key in doc
    }
    if overrides:
        stack = replace(stack, **overrides)
    teg = TegParams(
        seebeck_v_per_k=_number(doc.get("alpha_v_per_k", TEG_SEEBECK_V_PER_K),
                                "alpha_v_per_k"),
        electrical_resistance_ohm=_number(
            doc.get("r_elec_ohm", CALIBRATED_ELECTRICAL_RESISTANCE_OHM),
            "r_elec_ohm",
        ),
    )
    return stack, teg


# -- battery ------------------------------------------------------------------


def battery_lifetime_hours(capacity_ah: float, mean_current_a: float) -> float:
    """How long a primary cell carries a mean current draw."""
    capacity_ah = _positive("capacity_ah", capacity_ah)
    mean_current_a = _positive("mean_current_a", mean_current_a)
    return capacity_ah / mean_current_a
