"""Command-line entry point.

One subcommand per subsystem: eca, life, ant, tm, candidate, analyze.
Reports are flat `key=value` lines (or the same keys as a JSON object with
--json); images are binary PBM (P4).  All outputs are deterministic:
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 domain error (one-line message on stderr),
2 usage error.  The EMERGELAB_BUDGET environment variable overrides the
default step budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, ant, candidates, eca, life, turing
from .errors import EmergeLabError


class EmptyImage(EmergeLabError):
    """PBM images need at least one row and one column."""


def render_pbm(grid, comment: str | None = None) -> bytes:
    """Encode a 2-D bit matrix as binary PBM (P4).

    Rows are packed MSB-first and padded with white to a byte boundary.
    An optional comment is emitted as a '#' header line.
    """
    arr = np.asarray(grid, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise EmptyImage(f"image must be 2-D and non-empty, got shape {arr.shape}")
    height, width = arr.shape
    header = "P4\n"
    if comment is not None:
        header += f"# {comment}\n"
    header += f"{width} {height}\n"
    packed = np.packbits(arr, axis=1)  # any nonzero value packs as a 1
    return header.encode("ascii") + packed.tobytes()


def default_budget(fallback: int) -> int:
    env = os.environ.get("EMERGELAB_BUDGET")
    if env is None:
        return fallback
    try:
        value = int(env)
        if value < 1:
            raise ValueError
    except ValueError:
        raise EmergeLabError(f"EMERGELAB_BUDGET must be a positive integer, got {env!r}")
    return value


def emit_report(pairs: dict, as_json: bool, out=None):
    out = out or sys.stdout
    if as_json:
        out.write(json.dumps(pairs) + "\n")
    else:
        for key, value in pairs.items():
            out.write(f"{key}={value}\n")


def _write_bytes(path: str, data: bytes):
    Path(path).write_bytes(data)


def _bit_grid(rows, width: int) -> np.ndarray:
    """Stack row integers (bit i = column i) into a (len(rows), width) 0/1
    uint8 grid: one byte string, one unpackbits."""
    nbytes = (width + 7) // 8
    raw = b"".join(bits.to_bytes(nbytes, "little") for bits in rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _write_text(grid: np.ndarray, out):
    """Write '.'/'#' rows, each ending in a newline, about 1 MB at a time."""
    height, width = grid.shape
    block = max(1, (1 << 20) // (width + 1))
    for start in range(0, height, block):
        rows = grid[start:start + block]
        text = np.full((len(rows), width + 1), ord("\n"), dtype=np.uint8)
        # '#' sits 11 below '.' in ASCII, so cell g prints as '.' - 11 g;
        # in place, as arithmetic: an indexed lookup is ~20x slower
        cells = text[:, :width]
        np.multiply(rows, ord(".") - ord("#"), out=cells)
        np.subtract(ord("."), cells, out=cells)
        out.write(str(text.data, "ascii"))


def _grid_from_cells(cells, box) -> np.ndarray:
    x0, y0, x1, y1 = box
    grid = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=np.uint8)
    for x, y in cells:
        if x0 <= x <= x1 and y0 <= y <= y1:
            grid[y - y0, x - x0] = 1
    return grid


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eca(args) -> int:
    rule = eca.parse_rule(args.rule)
    if args.cyclic_width is not None:
        width = args.cyclic_width
        rows = eca.evolve_cycle(rule, 1 << (width // 2), width, args.steps,
                                max_rows=args.max_rows)
    else:
        seed = eca.BitRow.from_string(args.seed) if args.seed else eca.BitRow.single()
        history = eca.evolve(rule, seed, args.steps, max_rows=args.max_rows)
        # window = the seed's full light cone (width 2*steps+1 for one cell)
        lo = seed.offset - args.steps
        width = max(seed.width, 1) + 2 * args.steps
        rows = [row.bits << (row.offset - lo) if row.bits else 0 for row in history.rows]
    if args.out or args.text:
        grid = _bit_grid(rows, width)
        if args.out:
            _write_bytes(args.out, render_pbm(grid, comment=f"rule {args.rule}"))
        if args.text:
            _write_text(grid, sys.stdout)
    else:
        emit_report({"rule": args.rule, "steps": args.steps,
                     "final_population": rows[-1].bit_count()}, args.json)
    return 0


def _load_pattern(path: str):
    text = Path(path).read_text()
    if path.endswith(".cells"):
        return life.parse_cells(text)
    return life.parse_rle(text)


def _cmd_life(args) -> int:
    cells = _load_pattern(args.rle)
    if args.life_command == "run":
        result = life.run(cells, args.steps)
        if args.out_rle:
            Path(args.out_rle).write_text(life.write_rle(result))
        if args.out:
            box = life.bounding_box(result)
            if box is None:
                raise EmergeLabError("cannot render an empty pattern to PBM")
            _write_bytes(args.out, render_pbm(_grid_from_cells(result, box)))
        report = {"steps": args.steps, "population": life.population(result)}
        box = life.bounding_box(result)
        if args.print == "bbox":
            report["bbox"] = "empty" if box is None else \
                f"{box[0]},{box[1]},{box[2]},{box[3]}"
        emit_report(report, args.json)
        return 0
    # fate
    budget = args.budget if args.budget is not None else default_budget(4096)
    fate = life.detect_fate(cells, budget)
    report = {"verdict": fate.verdict, "t": fate.t}
    if fate.verdict in ("oscillator", "translator", "still_life"):
        report["period"] = fate.period
    if fate.verdict == "translator":
        report["dx"], report["dy"] = fate.dx, fate.dy
    if fate.verdict == "unknown":
        report["budget"] = fate.budget
    emit_report(report, args.json)
    return 0


def _cmd_ant(args) -> int:
    steps = args.steps if args.steps is not None else default_budget(20_000)
    start = ant.standard_start(args.heading)
    if args.detect_highway:
        report = ant.detect_highway(start, steps, args.window_radius,
                                    args.confirmations)
        pairs = {"found": str(report.found).lower()}
        if report.found:
            pairs.update(onset=report.onset, period=report.period,
                         dx=report.dx, dy=report.dy)
        pairs.update(window_radius=report.window_radius,
                     steps_searched=report.steps_searched)
        emit_report(pairs, args.json)
        if args.report:
            with open(args.report, "w") as fh:
                emit_report(pairs, False, out=fh)
        return 0
    state = ant.run(start, steps)
    if args.out:
        box = life.bounding_box(state.black)
        if box is None:
            raise EmergeLabError("no black cells to render")
        marker = f"ant {state.pos[0]} {state.pos[1]} {state.heading} steps={state.steps}"
        _write_bytes(args.out, render_pbm(_grid_from_cells(state.black, box),
                                          comment=marker))
    emit_report({"steps": state.steps, "x": state.pos[0], "y": state.pos[1],
                 "heading": state.heading, "black_cells": len(state.black)},
                args.json)
    return 0


def _machine(path: str) -> turing.MachineSpec:
    return turing.parse_machine(Path(path).read_text(), name=Path(path).stem)


def _cmd_tm(args) -> int:
    budget = args.budget if args.budget is not None else default_budget(10 ** 7)
    if args.tm_command == "run":
        machine = _machine(args.machine)
        trace = turing.run(machine, args.input, budget)
        text = turing.format_trace(trace)
        if args.trace_out:
            Path(args.trace_out).write_text(text)
        else:
            sys.stdout.write(text)
        emit_report({"machine": machine.name, "input": args.input,
                     "total_steps": trace.total_steps,
                     "halted": str(trace.halted).lower(),
                     "entries": len(trace.entries)}, args.json)
        return 0
    if args.tm_command == "compose":
        approx = _machine(args.approx)
        finisher = _machine(args.finisher)
        value, total, frag = turing.compose(approx, finisher, args.input, budget)
        emit_report({"value": value, "total_steps": total,
                     "intermediate": frag.intermediate,
                     "approx_steps": frag.approx_steps,
                     "finisher_steps": frag.finisher_steps}, args.json)
        return 0
    # audit
    approx = _machine(args.approx)
    finisher = _machine(args.finisher)
    indices = range(1, args.max_index + 1)
    values = list(indices) if args.identity_values else \
        [int(v) for v in Path(args.values).read_text().split()]
    if args.timing_from:
        timer = _machine(args.timing_from)
        timing = [turing.run(timer, i, budget).total_steps for i in indices]
    else:
        timing = [int(v) for v in Path(args.timing).read_text().split()]
    witness = turing.BigOWitness(Fraction(args.c), args.n0)
    report = turing.audit_approximation(approx, finisher, values, timing,
                                        witness, indices, step_budget=budget)
    pairs = {"verdict": "pass" if report.verdict else "fail",
             "vacuous": str(report.vacuous).lower(),
             "c": str(witness.c), "n0": witness.n0,
             "timing_note": report.timing_note}
    for rec in report.records:
        pairs[f"index_{rec.index}"] = (
            f"r={rec.intermediate} steps={rec.finisher_steps} "
            f"bound={float(rec.bound):.3f} {'pass' if rec.passed else 'fail'}")
    emit_report(pairs, args.json)
    return 0


def _cmd_candidate(args) -> int:
    if args.candidate_command == "sqrt-digits":
        digits = candidates.sqrt_digits(args.m, args.count)
        emit_report({"m": args.m, "count": args.count,
                     "digits": "".join(map(str, digits))}, args.json)
    elif args.candidate_command == "digit-chain":
        if args.sqrt is not None:
            stream = candidates.DigitStream.from_sqrt(args.sqrt)
        else:
            stream = candidates.DigitStream.from_text(Path(args.digits_file).read_text())
        values = candidates.digit_chain(stream, args.n)
        emit_report({"n": args.n,
                     "values": ",".join(map(str, values))}, args.json)
    elif args.candidate_command == "words":
        word = candidates.enumerate_words(args.index, args.skip_epsilon)
        emit_report({"index": args.index, "word": word or "(empty)"}, args.json)
    elif args.candidate_command == "language-count":
        dfa = candidates.parse_dfa(Path(args.dfa).read_text())
        count = candidates.language_count(dfa, args.n, args.skip_epsilon)
        emit_report({"n": args.n, "count": count}, args.json)
    else:  # life-survival
        count = candidates.life_survival_count(args.n)
        emit_report({"n": args.n, "survivors": count}, args.json)
    return 0


def _cmd_analyze(args) -> int:
    if args.rule30_center is not None:
        if args.rule30_center < 1:
            raise eca.InvalidSteps(
                f"--rule30-center must be >= 1, got {args.rule30_center}")
        bits = eca.center_column(eca.parse_rule(30), args.rule30_center - 1)
    else:
        text = "".join(Path(args.bits_file).read_text().split())
        if any(c not in "01" for c in text):
            raise EmergeLabError(f"{args.bits_file} must contain only 0/1 characters")
        bits = text
    report = {"bits": len(bits),
              "ones_fraction": float(analysis.ones_fraction(bits))}
    if args.block_k:
        report[f"block_entropy_k{args.block_k}"] = round(
            analysis.block_entropy(bits, args.block_k), 6)
    if args.max_period:
        report[f"no_short_period_{args.max_period}"] = str(
            analysis.no_short_period(bits, args.max_period)).lower()
    emit_report(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emergelab",
        description="simulate and analyse simple systems with surprising behaviour")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON instead of key=value lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eca", help="elementary cellular automata")
    p.add_argument("--rule", type=int, required=True, metavar="0..255")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", help="seed row such as '#' or '#..#' (default: single cell)")
    p.add_argument("--cyclic-width", type=int, metavar="W",
                   help="run on a W-cell ring instead of the unbounded row")
    p.add_argument("--max-rows", type=int, default=10_000)
    p.add_argument("--out", help="write the history as a PBM image")
    p.add_argument("--text", action="store_true", help="print '.'/'#' rows")

    p = sub.add_parser("life", help="Conway's Game of Life")
    lsub = p.add_subparsers(dest="life_command", required=True)
    prun = lsub.add_parser("run", help="advance a pattern")
    prun.add_argument("--rle", required=True, help="pattern file (.rle or .cells)")
    prun.add_argument("--steps", type=int, required=True)
    prun.add_argument("--print", choices=["bbox", "pop"], default="pop")
    prun.add_argument("--out-rle", help="write the result pattern as RLE")
    prun.add_argument("--out", help="write the result as a PBM image")
    pfate = lsub.add_parser("fate", help="bounded fate classification")
    pfate.add_argument("--rle", required=True)
    pfate.add_argument("--budget", type=int)

    p = sub.add_parser("ant", help="Langton's ant")
    p.add_argument("--steps", type=int)
    p.add_argument("--heading", choices=list(ant.HEADINGS), default="N")
    p.add_argument("--detect-highway", action="store_true")
    p.add_argument("--window-radius", type=int, default=16)
    p.add_argument("--confirmations", type=int, default=5)
    p.add_argument("--report", help="also write the report to a file")
    p.add_argument("--out", help="write the black cells as a PBM image")

    p = sub.add_parser("tm", help="multi-tape Turing machines")
    tsub = p.add_subparsers(dest="tm_command", required=True)
    ptr = tsub.add_parser("run", help="run a machine and print its trace")
    ptr.add_argument("--machine", required=True)
    ptr.add_argument("--input", type=int, required=True)
    ptr.add_argument("--budget", type=int)
    ptr.add_argument("--trace-out")
    ptc = tsub.add_parser("compose", help="approximation then finisher")
    ptc.add_argument("--approx", required=True)
    ptc.add_argument("--finisher", required=True)
    ptc.add_argument("--input", type=int, required=True)
    ptc.add_argument("--budget", type=int)
    pta = tsub.add_parser("audit", help="empirical approximation audit")
    pta.add_argument("--approx", required=True)
    pta.add_argument("--finisher", required=True)
    pta.add_argument("--max-index", type=int, required=True)
    pta.add_argument("--c", type=str, default="8", help="bound constant (rational)")
    pta.add_argument("--n0", type=int, default=1)
    pta.add_argument("--identity-values", action="store_true",
                     help="reference values f(i) = i")
    pta.add_argument("--values", help="whitespace-separated reference values file")
    pta.add_argument("--timing-from", help="measure T(i) by running this machine")
    pta.add_argument("--timing", help="whitespace-separated timing table file")
    pta.add_argument("--budget", type=int)

    p = sub.add_parser("candidate", help="candidate hard-to-shortcut functions")
    csub = p.add_subparsers(dest="candidate_command", required=True)
    pc = csub.add_parser("sqrt-digits")
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--count", type=int, required=True)
    pc = csub.add_parser("digit-chain")
    pc.add_argument("--n", type=int, required=True)
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--sqrt", type=int)
    src.add_argument("--digits-file")
    pc = csub.add_parser("words")
    pc.add_argument("--index", type=int, required=True)
    pc.add_argument("--skip-epsilon", action="store_true")
    pc = csub.add_parser("language-count")
    pc.add_argument("--dfa", required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--skip-epsilon", action="store_true")
    pc = csub.add_parser("life-survival")
    pc.add_argument("--n", type=int, required=True)

    p = sub.add_parser("analyze", help="bit-stream statistics")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bits-file")
    src.add_argument("--rule30-center", type=int, metavar="N",
                     help="analyse the first N centre-column bits of rule 30")
    p.add_argument("--block-k", type=int)
    p.add_argument("--max-period", type=int)

    return parser


_HANDLERS = {
    "eca": _cmd_eca,
    "life": _cmd_life,
    "ant": _cmd_ant,
    "tm": _cmd_tm,
    "candidate": _cmd_candidate,
    "analyze": _cmd_analyze,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eca" and not 0 <= args.rule <= 255:
        parser.error(f"--rule must be in 0..255, got {args.rule}")
    if args.command == "eca" and args.cyclic_width is not None and args.cyclic_width < 1:
        parser.error(f"--cyclic-width must be >= 1, got {args.cyclic_width}")
    if args.command == "tm" and args.tm_command == "audit":
        if not args.identity_values and not args.values:
            parser.error("audit needs --identity-values or --values FILE")
        if not args.timing_from and not args.timing:
            parser.error("audit needs --timing-from MACHINE or --timing FILE")
    return args


def run_command(args) -> int:
    try:
        return _HANDLERS[args.command](args)
    except EmergeLabError as exc:
        print(f"emergelab {args.command}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"emergelab {args.command}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_command(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
