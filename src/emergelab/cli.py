"""Command-line entry point.

One subcommand per subsystem: eca, life, ant, tm, candidate, analyze.
`main` parses the arguments and calls the subcommand's handler, which
writes any requested files and returns its report as a dict (or None when
it prints only text or images).  `main` then writes that report to stdout
once, as flat `key=value` lines or, with --json, as one JSON object with the
same keys.  Images are binary PBM (P4), all written by `render_pbm` from
packed rows: ECA histories as evolved, Life and ant cells via `life.raster`.
`life` commands read a pattern file into a `life.Pattern`, the sorted
numpy keys y * width + x of its cells in their bounding box, and run,
write, render, box or classify it through `life`'s public functions, none
of which builds a cell set.
Each handler imports the subsystems it calls when it runs (`eca`; `analysis`
and `eca`; `ant`; `turing`; `candidates`; `life`), so a launch compiles and
runs only its own command's modules: the parser reads `errors` alone, which
holds `ant --heading`'s choices.  numpy comes with `life` (the `life`
commands, `ant --out`, `candidate life-survival`) and with `eca --text`'s
writer.  Calls go through the module attribute (`eca.evolve`), never a name
bound by `from .eca import ...`, so wrappers set on a module see them.
Outputs are deterministic: identical invocations give byte-identical files.

Exit codes: 0 success, 1 domain error or a file that cannot be read or
written (one-line message on stderr), 2 usage error.  The EMERGELAB_BUDGET
environment variable overrides the default step budgets.
"""

from __future__ import annotations

import argparse
import functools
import os
import reprlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HEADINGS, EmergeLabError, InvalidArgument, decimal, integer

if TYPE_CHECKING:  # the handlers import these themselves, when they run
    from fractions import Fraction

    from . import turing


class EmptyImage(EmergeLabError):
    """PBM images need at least one row and one column."""


# byte b with its bits reversed: little-endian row bytes to PBM's MSB-first
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def render_pbm(path: str, rows, width: int, comment: str | None = None):
    """Write row integers (bit i = column i < width) to `path` as binary PBM
    (P4), a row at a time: MSB-first, padded with white to a byte boundary,
    after an optional '#' comment line.  An image with no rows or columns is
    refused before the file is opened."""
    if not rows or width < 1:
        raise EmptyImage(f"image must be non-empty, got {width}x{len(rows)}")
    nbytes = (width + 7) // 8
    note = "" if comment is None else f"# {comment}\n"
    with open(path, "wb") as out:
        out.write(f"P4\n{note}{width} {len(rows)}\n".encode("ascii"))
        out.writelines(bits.to_bytes(nbytes, "little").translate(_REVERSED_BITS)
                       for bits in rows)


def default_budget(fallback: int) -> int:
    env = os.environ.get("EMERGELAB_BUDGET")
    if env is None:
        return fallback
    value = integer(env, "EMERGELAB_BUDGET", "be a positive integer")
    if value < 1:
        raise EmergeLabError(f"EMERGELAB_BUDGET must be a positive integer, "
                             f"got {reprlib.repr(env)}")
    return value


def _key_values(report: dict) -> str:
    return "".join(f"{key}={value}\n" for key, value in report.items())


class UnreadableFile(EmergeLabError):
    """An input file whose bytes are not UTF-8 text."""


def _read_text(path: str) -> str:
    """Every input file is read here; OSErrors reach `main`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path} is not UTF-8 text: {exc}") from exc


def _write_text(rows, width: int, out):
    """Write row integers as '.'/'#' lines, unpacking ~1 MB of text at a time."""
    import numpy as np

    nbytes = (width + 7) // 8
    block = max(1, (1 << 20) // (width + 1))
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        raw = b"".join(bits.to_bytes(nbytes, "little") for bits in chunk)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(chunk), nbytes)
        text = np.full((len(chunk), width + 1), ord("\n"), dtype=np.uint8)
        # '#' sits 11 below '.' in ASCII, so cell g prints as '.' - 11 g;
        # in place, as arithmetic: an indexed lookup is ~20x slower
        cells = text[:, :width]
        cells[...] = np.unpackbits(packed, axis=1, count=width, bitorder="little")
        np.multiply(cells, ord(".") - ord("#"), out=cells)
        np.subtract(ord("."), cells, out=cells)
        out.write(str(text.data, "ascii"))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eca(args) -> dict | None:
    from . import eca

    rule = eca.parse_rule(args.rule)
    if args.cyclic_width is not None:
        width = args.cyclic_width
        rows = eca.evolve_cycle(rule, 1 << (width // 2), width, args.steps,
                                max_rows=args.max_rows)
    else:
        seed = eca.BitRow.single() if args.seed is None else eca.BitRow.from_string(args.seed)
        history = eca.evolve(rule, seed, args.steps, max_rows=args.max_rows)
        rows, width = history.bits, history.width
    if not (args.out or args.text):
        return {"rule": args.rule, "steps": args.steps,
                "final_population": rows[-1].bit_count()}
    if args.out:
        render_pbm(args.out, rows, width, comment=f"rule {args.rule}")
    if args.text:
        _write_text(rows, width, sys.stdout)
    return None


class StepBudgetExceeded(EmergeLabError):
    """`life run --steps` past the step budget, of a pattern alive at it."""


def _cmd_life(args) -> dict:
    from . import life

    read = life.parse_cells if args.rle.endswith(".cells") else life.parse_rle
    pattern = read(_read_text(args.rle))
    if args.life_command == "run":
        # past the budget, only a pattern that dies within it is reported
        budget = default_budget(10 ** 5)
        result = life.run(pattern, min(args.steps, budget))
        if args.steps > budget and result:
            raise StepBudgetExceeded(
                f"--steps {args.steps} is over the step budget of {budget}, and the "
                f"pattern still lives at generation {budget}; set EMERGELAB_BUDGET "
                "to raise the budget")
        if args.out_rle:
            Path(args.out_rle).write_text(life.write_rle(result))
        if args.out:
            render_pbm(args.out, *life.raster(result))
        report = {"steps": args.steps, "population": len(result)}
        if args.print == "bbox":
            box = life.bounding_box(result)
            report["bbox"] = "empty" if box is None else ",".join(map(str, box))
        return report
    # fate
    budget = args.budget if args.budget is not None else default_budget(4096)
    fate = life.detect_fate(pattern, budget)
    report = {"verdict": fate.verdict, "t": fate.t}
    if fate.verdict in ("oscillator", "translator", "still_life"):
        report["period"] = fate.period
    if fate.verdict == "translator":
        report["dx"], report["dy"] = fate.dx, fate.dy
    if fate.verdict == "unknown":
        report["budget"] = fate.budget
    return report


def _cmd_ant(args) -> dict:
    from . import ant

    steps = args.steps if args.steps is not None else default_budget(20_000)
    start = ant.standard_start(args.heading)
    if args.detect_highway:
        highway = ant.detect_highway(start, steps, args.window_radius,
                                     args.confirmations)
        report = {"found": str(highway.found).lower()}
        if highway.found:
            report.update(onset=highway.onset, period=highway.period,
                          dx=highway.dx, dy=highway.dy)
        report.update(window_radius=highway.window_radius,
                      steps_searched=highway.steps_searched)
    else:
        census = ant.census(start, steps)
        if args.out:
            from . import life

            life.image_size(census.bbox)  # refused before the black set is built
            marker = f"ant {census.pos[0]} {census.pos[1]} {census.heading} steps={census.steps}"
            render_pbm(args.out, *life.raster(census.black()), comment=marker)
        report = {"steps": census.steps, "x": census.pos[0], "y": census.pos[1],
                  "heading": census.heading, "black_cells": census.black_cells}
    if args.report:
        Path(args.report).write_text(_key_values(report))
    return report


def _machine(path: str) -> turing.MachineSpec:
    from . import turing

    return turing.parse_machine(_read_text(path), name=Path(path).stem)


def _cmd_tm(args) -> dict:
    from . import turing

    budget = args.budget if args.budget is not None else default_budget(10 ** 7)
    if args.tm_command == "run":
        machine = _machine(args.machine)
        trace = turing.run(machine, args.input, budget)
        # values are at least 0, so the largest has the most digits; it is
        # checked before any line of the trace is written
        decimal(max(trace.values, default=0), "a trace value")
        text = turing.format_trace(trace)
        if args.trace_out:
            Path(args.trace_out).write_text(text)
        else:
            sys.stdout.write(text)
        return {"machine": machine.name, "input": args.input,
                "total_steps": trace.total_steps,
                "halted": str(trace.halted).lower(),
                "entries": len(trace.entries)}
    if args.tm_command == "compose":
        approx = _machine(args.approx)
        finisher = _machine(args.finisher)
        value, total, frag = turing.compose(approx, finisher, args.input, budget)
        decimal(value, "the value")
        decimal(frag.intermediate, "the intermediate value")
        return {"value": value, "total_steps": total,
                "intermediate": frag.intermediate,
                "approx_steps": frag.approx_steps,
                "finisher_steps": frag.finisher_steps}
    # audit
    if args.timing_from is not None and args.max_index > turing.AUDIT_INDEX_LIMIT:
        raise InvalidArgument(f"--max-index must be <= {turing.AUDIT_INDEX_LIMIT} with "
                              f"--timing-from, got {args.max_index}")
    approx = _machine(args.approx)
    finisher = _machine(args.finisher)
    indices = range(1, args.max_index + 1)
    values = (indices if args.identity_values
              else [integer(token, args.values, "hold integers")
                    for token in _read_text(args.values).split()])
    if args.timing_from is not None:
        timer = _machine(args.timing_from)
    else:
        timing = [integer(token, args.timing, "hold integers")
                  for token in _read_text(args.timing).split()]
    witness = turing.BigOWitness(args.c, args.n0)
    c_text = decimal(witness.c, "--c")
    if args.timing_from is not None:
        # as far as the values go: the audit refuses the index after them
        timing = [turing.run(timer, i, budget).total_steps for i in indices[:len(values)]]
    audit = turing.audit_approximation(approx, finisher, values, timing,
                                       witness, indices, step_budget=budget)
    report = {"verdict": "pass" if audit.verdict else "fail",
              "vacuous": str(audit.vacuous).lower(),
              "c": c_text, "n0": witness.n0,
              "timing_note": audit.timing_note}
    for rec in audit.records:
        report[f"index_{rec.index}"] = (
            f"r={decimal(rec.intermediate, f'r at index {rec.index}')} "
            f"steps={rec.finisher_steps} "
            f"bound={_decimals(rec.bound)} {'pass' if rec.passed else 'fail'}")
    return report


def _decimals(x: Fraction) -> str:
    """x to three decimals: as a float, or exactly where it passes the
    float range."""
    try:
        return f"{float(x):.3f}"
    except OverflowError:
        thousandths = round(abs(x) * 1000)
        whole = decimal(thousandths // 1000, "a bound")
        return f"{'-' if x < 0 else ''}{whole}.{thousandths % 1000:03d}"


def _cmd_candidate(args) -> dict:
    from . import candidates

    if args.candidate_command == "sqrt-digits":
        digits = candidates.sqrt_digits(args.m, args.count)
        return {"m": args.m, "count": args.count,
                "digits": "".join(map(str, digits))}
    if args.candidate_command == "digit-chain":
        if args.sqrt is not None:
            stream = candidates.DigitStream.from_sqrt(args.sqrt)
        else:
            stream = candidates.DigitStream.from_text(_read_text(args.digits_file))
        values = candidates.digit_chain(stream, args.n)
        return {"n": args.n, "values": ",".join(map(str, values))}
    if args.candidate_command == "words":
        word = candidates.enumerate_words(args.index, args.skip_epsilon)
        return {"index": args.index, "word": word or "(empty)"}
    if args.candidate_command == "language-count":
        dfa = candidates.parse_dfa(_read_text(args.dfa))
        return {"n": args.n,
                "count": candidates.language_count(dfa, args.n, args.skip_epsilon)}
    # life-survival
    return {"n": args.n, "survivors": candidates.life_survival_count(args.n)}


def _cmd_analyze(args) -> dict:
    from . import analysis, eca

    if args.rule30_center is not None:
        if not 1 <= args.rule30_center <= eca.CENTER_COLUMN_STEPS + 1:
            raise eca.InvalidSteps(f"--rule30-center must be in "
                                   f"1..{eca.CENTER_COLUMN_STEPS + 1}, got {args.rule30_center}")
        bits = bytes(eca.center_column(eca.parse_rule(30), args.rule30_center - 1))
    else:
        text = "".join(_read_text(args.bits_file).split())
        if not set(text) <= {"0", "1"}:
            raise InvalidArgument(f"{args.bits_file} must contain only 0/1 characters")
        bits = bytes(map(int, text))
    report = {"bits": len(bits),
              "ones_fraction": float(analysis.ones_fraction(bits))}
    if args.block_k is not None:
        report[f"block_entropy_k{args.block_k}"] = round(
            analysis.block_entropy(bits, args.block_k), 6)
    if args.max_period is not None:
        report[f"no_short_period_{args.max_period}"] = str(
            analysis.no_short_period(bits, args.max_period)).lower()
    return report


def _rational(text: str) -> Fraction:
    """argparse type: a malformed value or a zero denominator is a usage error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {reprlib.repr(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emergelab",
        description="simulate and analyse simple systems with surprising behaviour")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON instead of key=value lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eca", help="elementary cellular automata")
    p.set_defaults(handler=_cmd_eca)
    p.add_argument("--rule", type=int, required=True, metavar="0..255")
    p.add_argument("--steps", type=int, required=True)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--seed", help="seed row such as '#' or '#..#' (default: single cell)")
    start.add_argument("--cyclic-width", type=int, metavar="W",
                       help="run on a W-cell ring from its centre cell "
                            "instead of the unbounded row")
    p.add_argument("--max-rows", type=int, default=10_000)
    p.add_argument("--out", help="write the history as a PBM image")
    p.add_argument("--text", action="store_true", help="print '.'/'#' rows")

    p = sub.add_parser("life", help="Conway's Game of Life")
    p.set_defaults(handler=_cmd_life)
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
    p.set_defaults(handler=_cmd_ant)
    p.add_argument("--steps", type=int)
    p.add_argument("--heading", choices=list(HEADINGS), default="N")
    p.add_argument("--detect-highway", action="store_true")
    p.add_argument("--window-radius", type=int, default=16)
    p.add_argument("--confirmations", type=int, default=5)
    p.add_argument("--report", help="also write the report to a file")
    p.add_argument("--out", help="write the black cells as a PBM image")

    p = sub.add_parser("tm", help="multi-tape Turing machines")
    p.set_defaults(handler=_cmd_tm)
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
    pta.add_argument("--c", type=_rational, default="8", help="bound constant (rational)")
    pta.add_argument("--n0", type=int, default=1)
    src = pta.add_mutually_exclusive_group(required=True)
    src.add_argument("--identity-values", action="store_true",
                     help="reference values f(i) = i")
    src.add_argument("--values", help="whitespace-separated reference values file")
    src = pta.add_mutually_exclusive_group(required=True)
    src.add_argument("--timing-from", help="measure T(i) by running this machine")
    src.add_argument("--timing", help="whitespace-separated timing table file")
    pta.add_argument("--budget", type=int)

    p = sub.add_parser("candidate", help="candidate hard-to-shortcut functions")
    p.set_defaults(handler=_cmd_candidate)
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
    p.set_defaults(handler=_cmd_analyze)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bits-file")
    src.add_argument("--rule30-center", type=int, metavar="N",
                     help="analyse the first N centre-column bits of rule 30")
    p.add_argument("--block-k", type=int)
    p.add_argument("--max-period", type=int)

    return parser


# one parser per process: parsing leaves it unchanged, and building it costs
# about 3 ms, most of a small in-process command
_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "eca" and not 0 <= args.rule <= 255:
        parser.error(f"--rule must be in 0..255, got {args.rule}")
    if args.command == "eca" and args.cyclic_width is not None:
        from . import eca

        if not 1 <= args.cyclic_width <= eca.HISTORY_CELL_LIMIT:
            parser.error(f"--cyclic-width must be in 1..{eca.HISTORY_CELL_LIMIT}, "
                         f"got {args.cyclic_width}")
    if args.command == "tm" and args.tm_command == "audit" and args.max_index < 1:
        parser.error(f"--max-index must be >= 1, got {args.max_index}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = args.handler(args)
        if report is not None and args.json:
            import json

            sys.stdout.write(json.dumps(report) + "\n")
        elif report is not None:
            sys.stdout.write(_key_values(report))
    except (EmergeLabError, OSError) as exc:
        print(f"emergelab {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
