"""The three workloads: inputs drawn from a seed, the CLI job list, and the
checks every job's output must pass.

Each job is one README-style `emergelab` command.  Its check compares the
output with an answer computed here, independently of the program (small
reference simulators below), or with a known fact about the system: the
ant's highway has period 104, the gun gains 5 cells every 30 generations,
`succ_enum` traces pass `turing.verify_enumeration`.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("rows", "soup", "search")

# One trivial command per workload, timed in a fresh interpreter for
# setup_s, with the exact stdout it must print.
SETUP_COMMANDS = {
    "rows": (["eca", "--rule", "30", "--steps", "0"],
             "rule=30\nsteps=0\nfinal_population=1\n"),
    "soup": (["life", "run", "--rle", "src/emergelab/fixtures/block.rle", "--steps", "0"],
             "steps=0\npopulation=4\n"),
    "search": (["life", "fate", "--rle", "src/emergelab/fixtures/block.rle",
                "--budget", "1"],
               "verdict=still_life\nt=0\nperiod=1\n"),
}


@dataclass
class Output:
    stdout: str
    files: dict[str, bytes]


@dataclass
class Job:
    """One CLI command.  `fixed` jobs take no seed-drawn input, so their
    recorded digest applies on every seed; `tag` labels per-layer rates."""

    id: str
    argv: list[str]
    check: Callable[[Output], str | None]
    files: tuple[str, ...] = ()
    fixed: bool = False
    tag: str = ""


@dataclass
class Sizes:
    rule30_bits: int = 16384
    block_k: int = 8
    max_period: int = 2048
    eca_steps: tuple[int, int, int, int] = (2000, 1000, 1500, 2000)
    cyclic: tuple[int, int] = (2000, 1000)
    soups: dict = field(default_factory=lambda: {
        "1e2": (100, 4, 300), "1e4": (10_000, 2, 100), "1e5": (100_000, 2, 10)})
    gun_steps: int = 2000
    fate_budget: int = 600
    small_seeds: int = 8
    survival_n: int = 181
    tm_inputs: tuple[int, int] = (1000, 2000)
    audit_max_index: int = 64
    ant_steps: int = 500_000
    language_n: int = 100_000


TINY = Sizes(rule30_bits=1024, block_k=4, max_period=128, eca_steps=(60, 40, 50, 60),
             cyclic=(80, 40),
             soups={"1e2": (100, 2, 40), "1e4": (1000, 1, 10), "1e5": (3000, 1, 3)},
             gun_steps=95, fate_budget=60, small_seeds=3, survival_n=24,
             tm_inputs=(20, 40), audit_max_index=6, ant_steps=20_000, language_n=2000)


def build(workload: str, seed: int, workdir: Path, fixtures: Path,
          tiny: bool = False) -> list[Job]:
    """Write the workload's inputs into `workdir` and return its jobs."""
    builder = {"rows": _rows, "soup": _soup, "search": _search}[workload]
    return builder(random.Random(f"{workload}:{seed}"), workdir, fixtures,
                   TINY if tiny else Sizes())


def _expect(want: str | Callable[[], str]) -> Callable[[Output], str | None]:
    """Check that stdout is exactly `want` (or what `want()` returns; costly
    answers are computed only when the check runs)."""
    def check(out: Output):
        text = want() if callable(want) else want
        return None if out.stdout == text else f"stdout {_head(out.stdout)!r}, expected {_head(text)!r}"
    return check


def _head(text: str) -> str:
    return text if len(text) <= 80 else text[:77] + "..."


def _report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# ---------------------------------------------------------------------------
# rows: 1-D bit-row automata

# Closed forms of the rules the workload runs, on whole rows at once.
ECA_RULES = {
    30: lambda l, c, r: l ^ (c | r),
    45: lambda l, c, r: l ^ (c | ~r),
    90: lambda l, c, r: l ^ r,
    110: lambda l, c, r: (c | r) & ~(l & c & r),
}


def eca_rows(rule: int, row: int, width: int, steps: int, cyclic: bool):
    """Yield generations 0..steps; bit i is cell i of a `width`-cell window."""
    mask = (1 << width) - 1
    f = ECA_RULES[rule]
    yield row
    for _ in range(steps):
        left, right = (row << 1) & mask, row >> 1
        if cyclic:
            left |= row >> (width - 1)
            right |= (row & 1) << (width - 1)
        row = f(left, row, right) & mask
        yield row


def _row_text(row: int, width: int) -> str:
    return format(row, f"0{width}b")[::-1].replace("0", ".").replace("1", "#")


def _pbm_row(row: int, width: int) -> bytes:
    nbytes = (width + 7) // 8
    return (int(format(row, f"0{width}b")[::-1], 2) << (8 * nbytes - width)).to_bytes(nbytes, "big")


def _eca_check(rule, row, width, steps, cyclic, name=None):
    """Compare `--text` rows (name None) or the PBM image `name` with the
    reference rows, one row at a time."""
    def check(out: Output):
        rows = eca_rows(rule, row, width, steps, cyclic)
        if name is None:
            data, header, size = out.stdout, "", width + 1
            encode = lambda r: _row_text(r, width) + "\n"
        else:
            if out.stdout:
                return "unexpected stdout"
            data, size = out.files[name], (width + 7) // 8
            header = f"P4\n# rule {rule}\n{width} {steps + 1}\n".encode()
            encode = lambda r: _pbm_row(r, width)
        if len(data) != len(header) + size * (steps + 1) or not data.startswith(header):
            return "output size differs from the reference rows"
        for t, r in enumerate(rows):
            start = len(header) + t * size
            if data[start:start + size] != encode(r):
                return f"generation {t} differs from the reference row"
        return None
    return check


def _analyze_check(n, k, max_period):
    def check(out: Output):
        data = bytes((r >> n) & 1 for r in eca_rows(30, 1 << n, 2 * n + 1, n - 1, False))
        counts: dict[bytes, int] = {}
        for i in range(n - k + 1):
            counts[data[i:i + k]] = counts.get(data[i:i + k], 0) + 1
        total = n - k + 1
        entropy = -sum((c / total) * math.log2(c / total) for c in counts.values())
        periodic = any(data[:-p] == data[p:] for p in range(1, max_period + 1))
        want = (f"bits={n}\nones_fraction={float(Fraction(sum(data), n))}\n"
                f"block_entropy_k{k}={round(entropy, 6)}\n"
                f"no_short_period_{max_period}={str(not periodic).lower()}\n")
        return _expect(want)(out)
    return check


def _rows(rng, workdir, fixtures, sizes: Sizes) -> list[Job]:
    n = sizes.rule30_bits
    jobs = [Job("analyze", ["analyze", "--rule30-center", str(n), "--block-k",
                            str(sizes.block_k), "--max-period", str(sizes.max_period)],
                _analyze_check(n, sizes.block_k, sizes.max_period), fixed=True)]
    unbounded = [(30, "pbm"), (30, "text"), (110, "text"), (90, "pbm")]
    for (rule, mode), steps in zip(unbounded, sizes.eca_steps):
        # 64 cells, black at both ends, so the window is [-steps, 63 + steps]
        seed_row = "#" + "".join(rng.choice(".#") for _ in range(62)) + "#"
        bits = int(seed_row[::-1].replace(".", "0").replace("#", "1"), 2) << steps
        width = 64 + 2 * steps
        job_id = f"eca.r{rule}.{mode}"
        argv = ["eca", "--rule", str(rule), "--steps", str(steps), "--seed", seed_row]
        if mode == "pbm":
            name = f"{job_id}.pbm"
            argv += ["--out", str(workdir / name)]
            jobs.append(Job(job_id, argv, _eca_check(rule, bits, width, steps, False, name),
                            files=(name,)))
        else:
            jobs.append(Job(job_id, argv + ["--text"],
                            _eca_check(rule, bits, width, steps, False)))
    (w30, w45) = sizes.cyclic
    name = "cyclic.r30.pbm"
    jobs.append(Job("cyclic.r30", ["eca", "--rule", "30", "--cyclic-width", str(w30),
                                   "--steps", str(w30), "--out", str(workdir / name)],
                    _eca_check(30, 1 << (w30 // 2), w30, w30, True, name),
                    files=(name,), fixed=True))
    jobs.append(Job("cyclic.r45", ["eca", "--rule", "45", "--cyclic-width", str(w45),
                                   "--steps", str(w45), "--text"],
                    _eca_check(45, 1 << (w45 // 2), w45, w45, True),
                    fixed=True))
    return jobs


# ---------------------------------------------------------------------------
# Life reference simulators and RLE codec

NEIGHBOURS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]


def sparse_step(cells: frozenset) -> frozenset:
    tally = Counter((x + dx, y + dy) for x, y in cells for dx, dy in NEIGHBOURS)
    return frozenset(c for c, n in tally.items() if n == 3 or (n == 2 and c in cells))


def sparse_run(cells, steps: int) -> frozenset:
    state = frozenset(cells)
    for _ in range(steps):
        state = sparse_step(state)
    return state


def dense_run(cells, steps: int) -> set:
    """B3/S23 on a numpy grid that grows whenever a border cell is live."""
    xs = np.fromiter((x for x, _ in cells), dtype=np.int64, count=len(cells))
    ys = np.fromiter((y for _, y in cells), dtype=np.int64, count=len(cells))
    x0, y0 = int(xs.min()) - 1, int(ys.min()) - 1
    grid = np.zeros((int(ys.max()) - y0 + 2, int(xs.max()) - x0 + 2), dtype=np.uint8)
    grid[ys - y0, xs - x0] = 1
    for _ in range(steps):
        if grid[0].any() or grid[-1].any() or grid[:, 0].any() or grid[:, -1].any():
            grid = np.pad(grid, 1)
            x0, y0 = x0 - 1, y0 - 1
        count = sum(np.roll(grid, (dy, dx), axis=(0, 1)) for dx, dy in NEIGHBOURS)
        grid = ((count == 3) | ((count == 2) & (grid == 1))).astype(np.uint8)
    ys, xs = np.nonzero(grid)
    return set(zip((xs + x0).tolist(), (ys + y0).tolist()))


def normalise(cells) -> frozenset:
    if not cells:
        return frozenset()
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    return frozenset((x - x0, y - y0) for x, y in cells)


def decode_rle(text: str) -> set:
    body = "".join(line for line in text.splitlines()
                   if line.strip() and not line.startswith("#")
                   and not line.lstrip().startswith("x"))
    cells, x, y = set(), 0, 0
    for count, tag in re.findall(r"(\d*)([bo$!])", body):
        n = int(count or 1)
        if tag == "!":
            break
        if tag == "$":
            x, y = 0, y + n
            continue
        if tag == "o":
            cells.update((x + i, y) for i in range(n))
        x += n
    return cells


def encode_rle(cells) -> str:
    cells = normalise(cells)
    rows: dict[int, list[int]] = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
    tokens, last_y = [], 0
    for y in sorted(rows):
        if y > last_y:
            tokens.append(f"{y - last_y}$")
        cursor, start, xs = 0, 0, sorted(rows[y])
        for i in range(1, len(xs) + 1):
            if i == len(xs) or xs[i] != xs[i - 1] + 1:
                gap = xs[start] - cursor
                tokens.append((f"{gap}b" if gap else "") + f"{i - start}o")
                cursor, start = xs[i - 1] + 1, i
        last_y = y
    body = "".join(tokens) + "!"
    width = 1 + max(x for x, _ in cells)
    height = 1 + max(y for _, y in cells)
    lines = [body[i:i + 70] for i in range(0, len(body), 70)]
    return f"x = {width}, y = {height}, rule = B3/S23\n" + "\n".join(lines) + "\n"


def fate(cells, budget: int) -> str:
    """Expected `life fate` stdout, by exact recurrence of normalised states."""
    seen: dict[frozenset, tuple[int, int, int]] = {}
    state = frozenset(cells)
    for t in range(budget + 1):
        if not state:
            return f"verdict=extinct\nt={t}\n"
        x0 = min(x for x, _ in state)
        y0 = min(y for _, y in state)
        canon = frozenset((x - x0, y - y0) for x, y in state)
        if canon in seen:
            t0, a, b = seen[canon]
            return _fate_text(t0, t - t0, x0 - a, y0 - b)
        seen[canon] = (t, x0, y0)
        if t < budget:
            state = sparse_step(state)
    return f"verdict=unknown\nt=0\nbudget={budget}\n"


def _fate_text(t, period, dx, dy) -> str:
    if (dx, dy) != (0, 0):
        return f"verdict=translator\nt={t}\nperiod={period}\ndx={dx}\ndy={dy}\n"
    verdict = "still_life" if period == 1 else "oscillator"
    return f"verdict={verdict}\nt={t}\nperiod={period}\n"


# ---------------------------------------------------------------------------
# soup: large Life populations

def _soup_check(cells, steps, name):
    def check(out: Output):
        want = dense_run(cells, steps) if len(cells) > 1000 else sparse_run(cells, steps)
        got = decode_rle(out.files[name].decode())
        if normalise(got) != normalise(want):
            return "result pattern differs from the reference simulation"
        return _expect(f"steps={steps}\npopulation={len(want)}\n")(out)
    return check


def _gun_check(gun, steps, name):
    def check(out: Output):
        report = _report(out.stdout)
        # the gun emits one 5-cell glider per 30 generations, from t = 0 on
        want = len(sparse_run(gun, steps % 30)) + 5 * (steps // 30)
        if int(report.get("population", -1)) != want:
            return f"population {report.get('population')}, expected {want}"
        x0, y0, x1, y1 = map(int, report["bbox"].split(","))
        image = out.files[name]
        header = f"P4\n{x1 - x0 + 1} {y1 - y0 + 1}\n".encode()
        if not image.startswith(header):
            return "image size does not match the reported bounding box"
        ink = sum(bin(b).count("1") for b in image[len(header):])
        return None if ink == want else f"image has {ink} black pixels, expected {want}"
    return check


def _random_soup(rng, n: int) -> frozenset:
    side = math.isqrt(int(n / 0.35)) + 1
    return frozenset((i % side, i // side) for i in rng.sample(range(side * side), n))


def _soup(rng, workdir, fixtures, sizes: Sizes) -> list[Job]:
    jobs = []
    for tag, (n, count, steps) in sizes.soups.items():
        for k in range(count):
            job_id = f"soup.{tag}.{k}"
            cells = _random_soup(rng, n)
            source = workdir / f"{job_id}.rle"
            source.write_text(encode_rle(cells))
            name = f"{job_id}.out.rle"
            jobs.append(Job(job_id, ["life", "run", "--rle", str(source), "--steps",
                                     str(steps), "--out-rle", str(workdir / name)],
                            _soup_check(cells, steps, name), files=(name,), tag=tag))
    gun_path = fixtures / "gosper_gun.rle"
    gun = frozenset(decode_rle(gun_path.read_text()))
    jobs.append(Job("gun", ["life", "run", "--rle", str(gun_path), "--steps",
                            str(sizes.gun_steps), "--print", "bbox",
                            "--out", str(workdir / "gun.pbm")],
                    _gun_check(gun, sizes.gun_steps, "gun.pbm"),
                    files=("gun.pbm",), fixed=True, tag="gun"))
    return jobs


# ---------------------------------------------------------------------------
# search: many small exact searches

# `life fate` verdicts of the 13-pattern corpus, as (t, period, dx, dy) or
# None for 'unknown'.  Every recurrence shows within 4 generations, so the
# table holds for any budget >= 4.
CORPUS_FATES = {
    "beacon": (0, 2, 0, 0), "beehive": (0, 1, 0, 0), "blinker": (0, 2, 0, 0),
    "block": (0, 1, 0, 0), "boat": (0, 1, 0, 0), "glider": (0, 4, 1, 1),
    "gosper_gun": None, "loaf": (0, 1, 0, 0), "lwss": (0, 4, -2, 0),
    "pulsar": (0, 3, 0, 0), "rpentomino": None, "toad": (0, 2, 0, 0),
    "tub": (0, 1, 0, 0),
}

# The eight symmetries of the square, as (x, y) -> (ax + by, cx + dy).
SYMMETRIES = [(1, 0, 0, 1), (-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1),
              (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, -1, 0), (0, -1, -1, 0)]


def _succ_enum_check(n):
    def check(out: Output):
        from emergelab import turing  # the known answer is defined by the library
        lines = out.stdout.splitlines()
        entries = [turing.TraceEntry(int(v), int(s)) for _, v, s in
                   (line.split() for line in lines if "=" not in line)]
        report = _report(out.stdout)
        trace = turing.EnumTrace(tuple(entries), int(report["total_steps"]),
                                 report["halted"] == "true")
        if not turing.verify_enumeration(trace, range(1, n + 1)):
            return "succ_enum trace fails verify_enumeration"
        if report["entries"] != str(n):
            return f"entries={report['entries']}, expected {n}"
        return None
    return check


def _compose_check(n):
    def check(out: Output):
        r = _report(out.stdout)
        if r["value"] != str(n) or r["intermediate"] != str(n):
            return f"compose gave value={r['value']} intermediate={r['intermediate']}, expected {n}"
        if int(r["total_steps"]) != int(r["approx_steps"]) + int(r["finisher_steps"]):
            return "total_steps is not the sum of the phases"
        return None
    return check


def _audit_check(max_index):
    def check(out: Output):
        r = _report(out.stdout)
        indices = [k for k in r if k.startswith("index_")]
        if r.get("verdict") != "pass" or len(indices) != max_index:
            return f"audit verdict={r.get('verdict')} over {len(indices)} indices"
        return None
    return check


def _highway_check(out: Output):
    r = _report(out.stdout)
    if r.get("found") != "true" or r.get("period") != "104" \
            or not 9000 <= int(r.get("onset", -1)) <= 12000:
        return f"highway found={r.get('found')} period={r.get('period')} onset={r.get('onset')}"
    return None


def ant_run(heading: str, steps: int) -> str:
    """Expected `ant --steps` stdout."""
    vectors = [(0, 1), (1, 0), (0, -1), (-1, 0)]  # N E S W
    h = "NESW".index(heading)
    black, x, y = set(), 0, 0
    for _ in range(steps):
        if (x, y) in black:
            black.discard((x, y))
            h = (h + 1) % 4
        else:
            black.add((x, y))
            h = (h - 1) % 4
        x, y = x + vectors[h][0], y + vectors[h][1]
    return f"steps={steps}\nx={x}\ny={y}\nheading={'NESW'[h]}\nblack_cells={len(black)}\n"


def _sqrt_digits(m: int, count: int) -> str:
    return str(math.isqrt(m * 10 ** (2 * count)))[-count:]


def _digit_chain(m: int, n: int) -> list[int] | None:
    """f(1..n) of the chained reads of sqrt(m), or None when a value is 0
    or a block would be too long to read cheaply.  The digit cap stays
    under Python's default 4300-digit limit on int-to-str conversion."""
    values, cursor, length = [], 0, 1
    for _ in range(n):
        if cursor + length > 4000:
            return None
        digits = _sqrt_digits(m, cursor + length)
        value = int(digits[cursor:cursor + length])
        if value == 0:
            return None
        values.append(value)
        cursor, length = cursor + length, value
    return values


def _survivors(n: int) -> int:
    """Seeds 1..n (candidates.default_numbering) alive at generation n."""
    alive = 0
    for j in range(1, n + 1):
        bits = format(j, "b")
        width = math.isqrt(len(bits) - 1) + 1
        seed = [(i % width, i // width) for i, b in enumerate(bits) if b == "1"]
        # extinct within the budget means dead at generation n; a recurrence
        # or an exhausted budget means alive at n
        alive += not fate(seed, n).startswith("verdict=extinct")
    return alive


def _search(rng, workdir, fixtures, sizes: Sizes) -> list[Job]:
    budget = str(sizes.fate_budget)
    jobs = []
    for name, known in CORPUS_FATES.items():
        a, b, c, d = rng.choice(SYMMETRIES)
        cells = {(a * x + b * y, c * x + d * y)
                 for x, y in decode_rle((fixtures / f"{name}.rle").read_text())}
        source = workdir / f"fate.{name}.rle"
        source.write_text(encode_rle(cells))
        if known is None:
            want = f"verdict=unknown\nt=0\nbudget={budget}\n"
        else:
            t, period, dx, dy = known
            want = _fate_text(t, period, a * dx + b * dy, c * dx + d * dy)
        jobs.append(Job(f"fate.{name}", ["life", "fate", "--rle", str(source),
                                         "--budget", budget], _expect(want)))
    box = [(x, y) for x in range(4) for y in range(4)]
    for k in range(sizes.small_seeds):
        cells = rng.sample(box, 4)
        source = workdir / f"fate.small{k}.rle"
        source.write_text(encode_rle(cells))
        jobs.append(Job(f"fate.small{k}", ["life", "fate", "--rle", str(source),
                                           "--budget", budget],
                        _expect(fate(cells, sizes.fate_budget))))
    survival_n = sizes.survival_n
    jobs.append(Job("survival", ["candidate", "life-survival", "--n", str(survival_n)],
                    _expect(lambda: f"n={survival_n}\nsurvivors={_survivors(survival_n)}\n"),
                    fixed=True))

    # run and compose inputs sum to a constant, so the pass does the same
    # amount of machine work on every seed
    lo, hi = sizes.tm_inputs
    n_run = rng.randint(lo, hi)
    n_compose = lo + hi - n_run
    succ, copy = str(fixtures / "succ_enum.tm"), str(fixtures / "copy_last_block.tm")
    jobs.append(Job("tm.run", ["tm", "run", "--machine", succ, "--input", str(n_run)],
                    _succ_enum_check(n_run)))
    jobs.append(Job("tm.compose", ["tm", "compose", "--approx", succ, "--finisher", copy,
                                   "--input", str(n_compose)], _compose_check(n_compose)))
    m = sizes.audit_max_index
    jobs.append(Job("tm.audit", ["tm", "audit", "--approx", succ, "--finisher", copy,
                                 "--max-index", str(m), "--identity-values",
                                 "--timing-from", succ], _audit_check(m), fixed=True))

    jobs.append(Job("ant.highway", ["ant", "--detect-highway", "--heading",
                                    rng.choice("NESW")], _highway_check))
    heading = rng.choice("NESW")
    jobs.append(Job("ant.run", ["ant", "--steps", str(sizes.ant_steps), "--heading", heading],
                    _expect(lambda: ant_run(heading, sizes.ant_steps))))

    while True:
        m = rng.randrange(2, 1000)
        if math.isqrt(m) ** 2 != m and (chain := _digit_chain(m, 3)):
            break
    jobs.append(Job("digit_chain", ["candidate", "digit-chain", "--sqrt", str(m), "--n", "3"],
                    _expect(f"n=3\nvalues={','.join(map(str, chain))}\n")))
    n = sizes.language_n
    # word i is bin(i) without its leading 1, so it has an even number of
    # ones when i has an odd number
    even = sum(1 for i in range(1, n) if i.bit_count() % 2 == 1)
    jobs.append(Job("language_count", ["candidate", "language-count", "--dfa",
                                       str(fixtures / "even_ones.dfa"), "--n", str(n)],
                    _expect(f"n={n}\ncount={even}\n"), fixed=True))
    return jobs
