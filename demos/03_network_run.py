"""
A day in the life of the reference deployment
=============================================

Runs the bundled 58-node scenario for one simulated day with the
decoding backend attached, reads a node's configuration over the air
while the network is live, then closes the books.
"""

import sys
from itertools import islice

from geowsn.backend import Backend
from geowsn.energy import (
    BATTERY_CAPACITY_AH,
    HOURS_PER_YEAR,
    battery_lifetime_hours,
)
from geowsn.scenario import build_simulator, default_scenario, node_directory

# the degree sign of a unit is escaped on an ASCII terminal, as the CLI
# escapes what it prints, instead of ending the demo
sys.stdout.reconfigure(errors="backslashreplace")

config = default_scenario()
print("scenario:", config.node_count, "nodes across",
      len(config.sites), "sites, seed", config.seed)

sim = build_simulator(config)
backend = Backend(directory=node_directory(config))
backend.attach_transport(sim)

# Remote file access works against the running network: the request
# rides the next listen window, the answer comes back as a normal
# uplink.  Node 1001 is a soil probe on the first site.
sim.start()
image = backend.remote_read_file(1001, 0x41, 0, 12)
print("node 1001 config over the air:", image.hex())

# Let the rest of the day play out.
log = sim.run()

print("run hash:", log.stable_hash()[:16])
totals = log.summary
print("uplinks: %d attempted, %d delivered, %d dropped" % (
    totals["uplinks_attempted"], totals["uplinks_delivered"],
    totals["uplinks_dropped"]))
print("records: %d produced = %d delivered + %d spooled + %d overwritten" % (
    totals["records_produced"], totals["records_delivered"],
    totals["records_buffered"], totals["records_overwritten"]))

# The backend decoded every delivered frame into per-channel rows.
print("time-series rows decoded:", len(backend.sink.records))
for record in islice(backend.sink.records, 3):
    print("   ", tuple(record))
print("quarantined frames:", len(backend.quarantine))

# Per-node charge ledgers turn into battery lifetimes.  A 19 Ah
# lithium thionyl chloride D-cell is the reference battery.
worst = min(
    battery_lifetime_hours(BATTERY_CAPACITY_AH, sim.mean_current_a(uid))
    / HOURS_PER_YEAR
    for uid in sim.node_uids
)
print("worst-case projected battery life: %.1f years" % worst)
