"""Three functions defined step by step, and one of them shortcut.

Each one is defined so that knowing f(n) seems to require having computed
all of f(1)..f(n-1) first: chained reads from an irrational expansion,
counting accepted words of a language, and counting Life seeds that
survive n generations.  All three are exactly computable at desk scale.
The word count only looks that way: the counts of a regular language
follow a linear recurrence (Chomsky & Miller 1958), so a DFA's count at n
takes O(log n) steps.  Only a non-regular language keeps the enumeration.
"""

from emergelab import candidates, life
from emergelab.fixtures import load_text

print("1. Chained digit reads from an irrational number")
print("=" * 58)
print("f(1) = first decimal digit, f(k) = the number spelled by the")
print("next f(k-1) digits.  The block boundaries depend on every value")
print("computed so far.")
def shown(value):
    text = str(value)
    if len(text) <= 12:
        return text
    return f"<{len(text)}-digit number starting {text[:8]}...>"


# chain depth is capped by explosive block growth: for sqrt(3) already
# f(2) = 3205080, so block 3 would span millions of digits
for label, stream, n in (
        ("sqrt(2)", candidates.DigitStream.from_sqrt(2), 3),
        ("sqrt(3)", candidates.DigitStream.from_sqrt(3), 2),
        ("pi     ", candidates.DigitStream.from_text(load_text("pi_digits.txt")), 3)):
    values = candidates.digit_chain(stream, n)
    print(f"  {label}: f(1..{n}) = [{', '.join(shown(v) for v in values)}]")
try:
    candidates.digit_chain(candidates.DigitStream.from_text("105"), 3)
except candidates.ChainDegenerate as err:
    print(f"  a 0 value ends the chain: {err}")

print()
print("2. Counting words of a decidable language")
print("=" * 58)
print("Words in length-then-lexicographic order:",
      ", ".join(repr(candidates.enumerate_words(i)) for i in range(1, 9)))
dfa = candidates.parse_dfa(load_text("even_ones.dfa"))
print("f(n) = how many of w_1..w_{n-1} have an even number of ones:")
row = [candidates.language_count(dfa, n) for n in range(1, 17)]
print("  n=1..16 ->", row)
print("A regular language's counts follow a linear recurrence (Chomsky &")
print("Miller 1958), so the DFA is counted over the bits of n, not word by")
print("word, even where no enumeration could reach:")
print(f"  f(10**30) = {candidates.language_count(dfa, 10 ** 30)}")
print("Only a non-regular language, such as the words with as many 0s as 1s,")
print("is still asked about each word in turn.")

print()
print("3. Life seeds still alive after n generations")
print("=" * 58)
print("Seed j draws the binary digits of j into a square box:")
for j in (3, 15, 23):
    cells = candidates.default_numbering(j)
    box = life.bounding_box(cells)
    rows = ["".join("#" if (x, y) in cells else "."
                    for x in range(box[0], box[2] + 1))
            for y in range(box[1], box[3] + 1)]
    print(f"  j={j:2d}: " + " / ".join(rows))
print("f(n) = seeds numbered 1..n with live cells after n generations:")
for n in (3, 15, 31, 64):
    print(f"  f({n:2d}) = {candidates.life_survival_count(n)}")
