"""Game of Life: patterns whose futures range from obvious to undecidable.

Walks through the classic exhibits: still lifes and oscillators that the
fate classifier nails immediately, the glider that travels, the r-pentomino
that outlives any small search budget, and the gun that mints a glider
every 30 generations, whose state 10**5 generations on comes from a
quadtree leap without stepping through them, while a soup's does not.
"""

import random

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
print("Prediction without simulation: the gun's future repeats")
print("=" * 55)
# `run` steps a pattern until it thins out onto packed keys, then leaps
# the generations left by a quadtree of memoised nodes (Gosper's Hashlife)
# under a work budget, and steps on if the budget runs out.  A future that
# repeats costs little work however far it goes; a soup's chaos does not.


def run_and_leap(cells, steps):
    """`life.run(cells, steps)`, and the leap it tried: (generations left,
    work done, budget, taken), or None."""
    tried = []
    leap = life._leap

    def recorded(keys, corner, left, budget):
        work, tree = leap(keys, corner, left, budget)
        tried.append((left, work, budget, tree is not None))
        return work, tree

    life._leap = recorded
    try:
        return life.run(cells, steps), (tried or [None])[0]
    finally:
        life._leap = leap


t = 10 ** 5
far, (left, work, budget, taken) = run_and_leap(gun, t)
closed = populations[t % 30] + 5 * (t // 30)
assert taken and len(far) == closed
print(f"gun at t={t}: population {len(far)} = pop({t % 30}) + 5*({t} // 30), "
      f"the closed form;")
print(f"  leapt {left} generations for {work} units of work (budget {budget})")
rng = random.Random(27)
soup = frozenset((i % 17, i // 17) for i in rng.sample(range(17 * 17), 100))
_, (left, work, budget, taken) = run_and_leap(soup, 1000)
assert not taken
print(f"a 100-cell soup at t=1000: the leap over its last {left} generations "
      f"gave up at its budget of {budget} units, and run stepped them")

print()
print("Patterns round-trip through the interchange format")
print("=" * 55)
print(life.write_rle(gun), end="")
assert life.parse_rle(life.write_rle(gun)) == gun
print("(parse . write == identity)")
