"""
Can soil heat power the node?
=============================

Works through the thermal model end to end: part geometry to thermal
resistances, the series divider, calibration of the electrical
resistance from a single field measurement, why transects with a
small fluctuating gradient beat their own average, and whether the
harvest covers what a simulated node draws.
"""

import io

import numpy as np

from geowsn.energy import (
    BATTERY_CAPACITY_AH,
    HOURS_PER_YEAR,
    SUPPLY_VOLTAGE_V,
    TegParams,
    battery_lifetime_hours,
    calibrate_electrical_resistance,
    default_stack,
    default_teg,
    delta_t_teg,
    r_cylinder,
    r_plate,
    teg_power,
)
from geowsn.feasibility import TransectSeries, analyze_trace, write_report_csv
from geowsn.scenario import build_simulator, default_scenario

# The harvester is a short stack of parts.  Each contributes a thermal
# resistance from its geometry and material.
print("copper rod (2 cm dia, 10 cm): %.3f K/W" % r_cylinder(0.02, 0.10, 385.0))
print("cold plate (0.8 mm, 4x4 cm):  %.5f K/W" % r_plate(0.0008, 0.04, 0.04, 385.0))

stack = default_stack()
print("whole stack in series:        %.3f K/W" % stack.series_total)

# Only the fraction of the gradient that falls across the TEG makes
# electricity.  29 degrees across the soil-air path leaves about half
# on the module.
print("29.0 C outside -> %.2f K across the TEG" % delta_t_teg(29.0, 0.0, stack))

# One good field measurement pins the electrical resistance: the
# hottest transect averaged 29.0 C of gradient and 24.27 mW harvested.
r_elec = calibrate_electrical_resistance(29.0, 24.27e-3, stack)
print("calibrated internal resistance: %.4f ohm" % r_elec)
teg = TegParams(0.04, r_elec)

# The same constants predict the other steep transects well.  The cool
# fluctuating ones (A, B) land far under their measured harvest: a
# yearly mean gradient hides the swings that actually made the energy.
measured = {"A": (1.78, 0.572), "B": (4.31, 0.867), "C": (15.29, 7.05),
            "D": (14.99, 6.93), "E": (29.0, 24.27), "F": (27.3, 21.3)}
print()
print("transect   mean dT   measured mW   from mean dT")
for label, (dt_c, field_mw) in sorted(measured.items()):
    predicted_mw = teg_power(delta_t_teg(dt_c, 0.0, stack), teg) * 1e3
    print("   %s       %5.2f C     %6.2f        %6.2f"
          % (label, dt_c, field_mw, predicted_mw))

# The gap is convexity: power goes with the square of the gradient, so
# mean(P(dT)) >= P(mean(dT)), with equality only when dT never moves.
hours = np.arange(0, 365 * 24) * 3600.0
swing = 1.78 + 6.0 * np.sin(2 * np.pi * hours / 86400.0)
mean_of_power = teg_power(delta_t_teg(swing, 0.0, stack), teg).mean()
power_of_mean = teg_power(delta_t_teg(swing.mean(), 0.0, stack), teg)
print()
print("fluctuating +/-6 C around 1.78 C:")
print("   mean of power:  %.3f mW" % (mean_of_power * 1e3))
print("   power of mean:  %.3f mW" % (power_of_mean * 1e3))

# analyze_trace does the bookkeeping over real timestamped series, per
# transect and per UTC day, and renders the same table as a CSV report.
series = {
    "E": TransectSeries("E", hours, np.full_like(hours, 29.0),
                        np.zeros_like(hours)),
    "A": TransectSeries("A", hours, swing, np.zeros_like(hours)),
}
# What a node draws comes from the simulator's energy ledger: run the
# bundled deployment for its day and take the hungriest node.
sim = build_simulator(default_scenario())
sim.run()
mean_a = max(sim.mean_current_a(uid) for uid in sim.node_uids)
node_power_w = mean_a * SUPPLY_VOLTAGE_V
years = battery_lifetime_hours(BATTERY_CAPACITY_AH, mean_a) / HOURS_PER_YEAR
print()
print("hungriest node draws %.1f uW on average, battery alone lasts %.1f years"
      % (node_power_w * 1e6, years))
report = analyze_trace(series, stack, teg, node_power_w=node_power_w)
print()
for analysis in report.transects:
    yearly = analysis.yearly
    print("transect %s: %.3f mW over the window"
          % (analysis.transect, yearly.mean_power_w * 1e3))
for label, (harvest_w, need_w, ok) in sorted(report.verdicts.items()):
    print("transect %s: need %.1f uW, harvest %.1f uW -> %s"
          % (label, need_w * 1e6, harvest_w * 1e6,
             "feasible" if ok else "not feasible"))

out = io.StringIO()
write_report_csv(report, out)
print()
print("first lines of the CSV report:")
for line in out.getvalue().splitlines()[:6]:
    print("   ", line)
