"""Elementary cellular automata: same kind of rule, wildly different textures.

Four rules from the same 256-rule family, each started from a single black
cell: one floods the row, one draws a lace of nested triangles, and two
produce columns that pass simple randomness diagnostics.  Run as a script;
images land in demos/output/.
"""

from pathlib import Path

from emergelab import analysis, eca
from emergelab.cli import render_pbm

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def show_rule_table(number):
    table = eca.parse_rule(number)
    triples = ["".join(f"{v:03b}") for v in range(7, -1, -1)]
    outs = [str(table.outputs[v]) for v in range(7, -1, -1)]
    print(f"rule {number:3d}:  " + "  ".join(triples))
    print(" " * 10 + "  ".join(f" {o} " for o in outs))


print("How a rule number encodes the 8-entry lookup table")
print("=" * 55)
for number in (254, 90, 30, 110):
    show_rule_table(number)
    print()

print("Thirty generations from a single black cell")
print("=" * 55)
for number in (254, 90, 30):
    history = eca.evolve(eca.parse_rule(number), eca.BitRow.single(0), 15)
    print(f"--- rule {number}")
    for line in history.to_text(-16, 16):
        print(line)
    print()

# Larger portraits as PBM images (one row per generation).
for number in (90, 30, 110):
    history = eca.evolve(eca.parse_rule(number), eca.BitRow.single(0), 400)
    path = OUT / f"rule{number}.pbm"
    render_pbm(path, history.bits, history.width, comment=f"rule {number}")
    print(f"wrote {path} ({len(history)}x{history.width})")

print()
print("Is the middle column of rule 30 predictable?")
print("=" * 55)
column = eca.center_column(eca.parse_rule(30), 2 ** 14 - 1)
print(f"first 64 bits: {''.join(map(str, column[:64]))}")
print(f"ones fraction over 2^14 bits : {float(analysis.ones_fraction(column)):.5f}")
print(f"8-bit block entropy          : {analysis.block_entropy(column, 8):.4f} of 8")
print(f"no period up to 2048         : {analysis.no_short_period(column, 2048)}")
print()
print("Rule 254 by contrast saturates instantly:",
      "".join(map(str, eca.center_column(eca.parse_rule(254), 10))))
