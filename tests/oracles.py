"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: dense grids, per-cell loops,
quadratic scans.  None of it shares code with the kernels under test.
"""

from emergelab.ant import HEADING_VECTORS, LEFT_OF, RIGHT_OF, AntState
from emergelab.eca import BitRow, UnsupportedBackground


def step_row_reference(rule, row):
    """One ECA generation on the unbounded background, cell by cell."""
    if not rule.quiescent:
        raise UnsupportedBackground(
            f"rule {rule.number} flips the white background; use the cyclic mode")
    if row.bits == 0:
        return row
    lo, hi = row.support
    cells = []
    for p in range(lo - 1, hi + 2):
        v = 4 * row[p - 1] + 2 * row[p] + row[p + 1]
        if rule.outputs[v]:
            cells.append(p)
    return BitRow.from_cells(cells)


def step_cycle_reference(rule, bits, width):
    """One ECA generation on a ring of `width` cells, cell by cell."""
    if width < 1:
        raise ValueError(f"ring width must be >= 1, got {width}")
    cell = [(bits >> i) & 1 for i in range(width)]
    out = 0
    for i in range(width):
        v = 4 * cell[(i - 1) % width] + 2 * cell[i] + cell[(i + 1) % width]
        if rule.outputs[v]:
            out |= 1 << i
    return out


def eca_cells_reference(rule, seed_text, steps, cyclic_width=None):
    """The `eca` command's history as lists of 0/1 cells, one per
    generation: over the seed's light cone, or over the whole ring (seeded
    with one black cell in the middle)."""
    if cyclic_width is not None:
        bits = 1 << (cyclic_width // 2)
        grid = []
        for _ in range(steps + 1):
            grid.append([(bits >> i) & 1 for i in range(cyclic_width)])
            bits = step_cycle_reference(rule, bits, cyclic_width)
        return grid
    row = BitRow.from_string(seed_text) if seed_text else BitRow.single()
    lo = row.offset - steps
    hi = row.offset + max(row.width, 1) - 1 + steps
    grid = []
    for _ in range(steps + 1):
        grid.append([row[p] for p in range(lo, hi + 1)])
        row = step_row_reference(rule, row)
    return grid


def text_reference(grid):
    """'.'/'#' rows, one line per generation."""
    return "".join("".join("#" if b else "." for b in row) + "\n" for row in grid)


def pbm_reference(grid, comment):
    """Binary PBM (P4): rows MSB-first, padded with white to whole bytes."""
    out = bytearray(f"P4\n# {comment}\n{len(grid[0])} {len(grid)}\n".encode())
    for row in grid:
        padded = row + [0] * (-len(row) % 8)
        for i in range(0, len(padded), 8):
            byte = 0
            for b in padded[i:i + 8]:
                byte = (byte << 1) | b
            out.append(byte)
    return bytes(out)


def binomial_parity_row(n):
    """Row n of Pascal's triangle mod 2 as cell coordinates 2k - n."""
    row = [1]
    for _ in range(n):
        row = [a ^ b for a, b in zip([0] + row, row + [0])]
    return {2 * k - n for k, v in enumerate(row) if v}


def life_step_dense(cells):
    """One Life generation computed on a dense padded grid per cell."""
    if not cells:
        return frozenset()
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    grid = [[(x, y) in cells for x in range(x0, x1 + 1)]
            for y in range(y0, y1 + 1)]
    h, w = len(grid), len(grid[0])
    out = set()
    for gy in range(h):
        for gx in range(w):
            n = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == 0:
                        continue
                    ny, nx = gy + dy, gx + dx
                    if 0 <= ny < h and 0 <= nx < w and grid[ny][nx]:
                        n += 1
            if n == 3 or (n == 2 and grid[gy][gx]):
                out.add((x0 + gx, y0 + gy))
    return frozenset(out)


def life_run_dense(cells, steps):
    out = frozenset(cells)
    for _ in range(steps):
        out = life_step_dense(out)
    return out


def quadratic_first_repeat(states):
    """Earliest (mu, lam) with states[mu] == states[mu + lam], by full scan."""
    for i in range(len(states)):
        for j in range(i):
            if states[i] == states[j]:
                return j, i - j
    return None


def ant_step_back(state):
    """Inverse ant step: undo the move, the repaint and the turn."""
    dx, dy = HEADING_VECTORS[state.heading]
    prev = (state.pos[0] - dx, state.pos[1] - dy)
    if prev in state.black:  # square was just painted, so it was white: left turn
        heading = RIGHT_OF[state.heading]
        black = state.black - {prev}
    else:  # square was just cleared, so it was black: right turn
        heading = LEFT_OF[state.heading]
        black = state.black | {prev}
    return AntState(prev, heading, black, state.steps - 1)


def ant_step_mirrored(state):
    """Ant step with swapped chirality (white -> right turn)."""
    if state.pos in state.black:
        heading = LEFT_OF[state.heading]
        black = state.black - {state.pos}
    else:
        heading = RIGHT_OF[state.heading]
        black = state.black | {state.pos}
    dx, dy = HEADING_VECTORS[heading]
    return AntState((state.pos[0] + dx, state.pos[1] + dy), heading, black,
                    state.steps + 1)
