"""Game of Life: patterns whose futures range from obvious to undecidable.

Walks through the classic exhibits: still lifes and oscillators that the
fate classifier nails immediately, the glider that travels, the r-pentomino
that outlives any small search budget, and the gun that mints a glider
every 30 generations.
"""

from emergelab import life
from emergelab.fixtures import load_text

print("Bounded fate classification")
print("=" * 55)
for name in ("block", "blinker", "toad", "glider", "lwss", "rpentomino"):
    cells = life.parse_rle(load_text(f"{name}.rle"))
    fate = life.detect_fate(cells, budget=64)
    extra = ""
    if fate.verdict == "oscillator":
        extra = f", period {fate.period}"
    elif fate.verdict == "translator":
        extra = f", period {fate.period}, moves ({fate.dx},{fate.dy})"
    elif fate.verdict == "unknown":
        extra = f" within {fate.budget} generations"
    print(f"{name:12s} -> {fate.verdict}{extra}")

print()
print("The glider walks one diagonal cell every 4 generations")
print("=" * 55)
glider = life.parse_rle(load_text("glider.rle"))
state = glider
for t in (0, 4, 8, 12):
    box = life.bounding_box(state)
    print(f"t={t:2d}  bbox corner at ({box[0]},{box[1]})")
    state = life.run(state, 4)

print()
print("The gun: 36 cells that manufacture 5-cell gliders forever")
print("=" * 55)
gun = life.parse_rle(load_text("gosper_gun.rle"))
populations = []
state = gun
for _ in range(181):
    populations.append(len(state))
    state = life.step(state)
for t in (60, 90, 120, 150):
    print(f"population at t={t:3d}: {populations[t]:3d}   "
          f"(+{populations[t] - populations[t - 30]} over the last 30)")

# The 30-generation set difference is exactly the newest escaped glider.
diff = life.run(gun, 90) - life.run(gun, 60)
print(f"cells in run(gun,90) - run(gun,60): {len(diff)}")
print("their fate:", life.detect_fate(diff, 10))

print()
print("Patterns round-trip through the interchange format")
print("=" * 55)
print(life.write_rle(gun), end="")
assert life.parse_rle(life.write_rle(gun)) == gun
print("(parse . write == identity)")
