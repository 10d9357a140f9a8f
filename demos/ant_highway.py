"""Langton's ant: ten thousand chaotic steps, then a highway forever.

Two local rules (turn left on white, right on black, flipping the square
underfoot) produce a long pseudo-random transient that suddenly locks into
a 104-step pattern marching off along a diagonal.  The detector below
catches it over a window of steps; a certificate checked once then proves
that, from this start, the ant repeats the period for all time, so any
later state follows by arithmetic.  Whether every finite start reaches a
highway is still an open conjecture.
"""

from pathlib import Path

from emergelab import ant
from emergelab.cli import render_pbm
from emergelab.life import bounding_box, raster

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("Black-cell counts along the way")
print("=" * 55)
state = ant.standard_start()
for checkpoint in (100, 1_000, 5_000, 10_000, 12_000):
    state = ant.run(state, checkpoint - state.steps)
    box = bounding_box(state.black)
    span = f"{box[2] - box[0] + 1}x{box[3] - box[1] + 1}" if box else "-"
    print(f"after {checkpoint:6d} steps: {len(state.black):5d} black cells,"
          f" bounding box {span}, ant at {state.pos} facing {state.heading}")

print()
print("Detecting the highway")
print("=" * 55)
report = ant.detect_highway(ant.standard_start(), max_steps=20_000,
                            window_radius=16, confirmations=5)
print(f"found      : {report.found}")
print(f"onset      : step {report.onset}")
print(f"period     : {report.period} steps")
print(f"per period : moves ({report.dx},{report.dy})")
print(f"verified   : {report.confirmations} consecutive periods")

# Replay the claim from scratch: the window around the ant must repeat,
# translated, period after period.
base = ant.run(ant.standard_start(), report.onset)
fingerprint = ant.window_fingerprint(base, report.window_radius)
state = base
for k in range(1, 11):
    state = ant.run(state, report.period)
    assert ant.window_fingerprint(state, report.window_radius) == fingerprint
    assert state.pos == (base.pos[0] + k * report.dx,
                         base.pos[1] + k * report.dy)
print("replayed   : 10 further periods, fingerprint and displacement exact")

print()
print("Onset by window radius")
print("=" * 55)
for radius in (4, 8, 16, 32):
    seen = ant.detect_highway(ant.standard_start(), 20_000, radius, 5)
    print(f"radius {radius:2d}  : onset at step {seen.onset}")
print("the onset belongs to the observer's window, not to the ant alone")

print()
print("Proving the highway")
print("=" * 55)
census = ant.census(ant.standard_start(), 10 ** 15)
print(f"certified  : from step {census.certified}, period {census.period},"
      " for all time")
print(f"step 10^15 : ant at {census.pos} facing {census.heading},"
      f" {census.black_cells} black cells")

final = ant.run(ant.standard_start(), 13_000)
rows, width = raster(final.black)
marker = f"ant {final.pos[0]} {final.pos[1]} {final.heading} steps={final.steps}"
path = OUT / "ant_13000.pbm"
render_pbm(path, rows[::-1], width, comment=marker)  # north up
print(f"wrote {path} (chaotic blob with the highway sticking out)")
