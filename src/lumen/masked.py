"""The masked_matmul detection kernel: unit-coefficient subset-of-matmul
levels, each given by its shape and the (i, k, j) slots E_l it omits,
applied as one exact BLAS product per group of cells that allow the same
inner digits.  solver.Detector builds the schedule on its first apply and
imports this module then.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import MultiplyCounter

__all__ = ["BLOCK_ROWS", "schedule", "apply"]

BLOCK_ROWS = 128    # most rows of a trimmed product, set by timing L = 10 sw


def _runs(values) -> list:
    """The maximal runs of consecutive integers in sorted values, as
    ranges."""
    runs = []
    for v in values:
        if runs and runs[-1].stop == v:
            runs[-1] = range(runs[-1].start, v + 1)
        else:
            runs.append(range(v, v + 1))
    return runs


def _level_units(shape, E) -> list:
    """The units of one mask level, in painting order.

    Cell (i, j) allows the inner digits kappa(i, j) = {k : (i, k, j) not in
    E}.  A unit is (rows, cols, ks, own): a box rows x cols of output
    digits, both runs, the digits ks that its own cells allow, and for each
    of its rows the positions in cols of its own cells.  Each cell of
    nonempty kappa is own to exactly one unit.  The level takes one box per
    distinct kappa, split into runs, when the boxes can be ordered so that
    each covers, besides its own cells, only cells of later units and no
    cell of empty kappa: a later unit then overwrites them (sw: the 2 x 2
    box of kappa = {0, 1}, then cell (0, 0) of kappa = {1}).  Otherwise a
    unit is the rows of one kappa that share their columns, and it covers
    only its own cells.
    """
    E = set(E)
    classes = {}
    for i in range(shape.q_i):
        for j in range(shape.q_j):
            ks = tuple(k for k in range(shape.q_k) if (i, k, j) not in E)
            classes.setdefault(ks, []).append((i, j))
    zero = classes.pop((), [])

    def units(exact):
        out = []
        for ks, cells in classes.items():
            cols_of = {}
            for i, j in cells:
                cols_of.setdefault(i, []).append(j)
            if exact:
                rows_of = {}
                for i, js in cols_of.items():
                    rows_of.setdefault(tuple(js), []).append(i)
                boxes = [(rows, js) for js, rows in rows_of.items()]
            else:
                boxes = [(sorted(cols_of), sorted({j for _, j in cells}))]
            for rows, cols in boxes:
                for R in _runs(rows):
                    for J in _runs(cols):
                        own = tuple(tuple(j - J.start for j in cols_of.get(
                            i, ()) if j in J) for i in R)
                        if any(own):
                            out.append((R, J, ks, own))
        return out

    def cells(u):
        return [(u[0][r], u[1][c]) for r, cs in enumerate(u[3]) for c in cs]

    def covers(u, cell):
        return cell[0] in u[0] and cell[1] in u[1]

    left, order = units(False), []
    while left:
        first = next((v for v in left if not any(
            covers(u, c) for u in left if u is not v for c in cells(v))),
            None)
        if first is None or any(covers(first, c) for c in zero):
            return units(True)
        order.append(first)
        left.remove(first)
    return order


def _suffix(radices, unit: int = 1) -> list:
    """Element strides of mixed-radix digits, most significant first."""
    strides = [unit] * len(radices)
    for l in reversed(range(len(radices) - 1)):
        strides[l] = strides[l + 1] * radices[l + 1]
    return strides


def _layout(sel) -> list:
    """Per-axis element strides, row digits then inner digits level by
    level, of the contiguous buffer that takes the rows sel[l][0] and the
    inner digits sel[l][1] of each level l."""
    rows, ks = [len(r) for r, _ in sel], [len(k) for _, k in sel]
    return _suffix(rows, math.prod(ks)) + _suffix(ks)


def _copy(shape, dst, src) -> tuple:
    """The schedule op (dst view, src view, None) of one elementwise copy,
    each view (key, shape, offset, strides, dtype) in bytes, dst and src
    given as (key, offset, strides) in float32 elements over shape.  Axes
    of length 1 are dropped, axes that step as one in both are merged, and
    a contiguous innermost run of 2 or 4 floats moves as one 8- or 16-byte
    item, which numpy copies bit for bit."""
    axes = []
    for n, s, t in zip(shape, dst[2], src[2]):
        if n == 1:
            continue
        if axes and axes[-1][1] == n * s and axes[-1][2] == n * t:
            axes[-1] = (axes[-1][0] * n, s, t)
        else:
            axes.append((n, s, t))
    dtype = np.dtype(np.float32)
    if axes and axes[-1][0] in (2, 4) and axes[-1][1:] == (1, 1):
        dtype = np.dtype((np.float64, np.complex128)[axes.pop()[0] // 4])
    size = np.dtype(np.float32).itemsize
    shape = tuple(n for n, _, _ in axes)
    return ((dst[0], shape, size * dst[1],
             tuple(size * s for _, s, _ in axes), dtype),
            (src[0], shape, size * src[1],
             tuple(size * t for _, _, t in axes), dtype), None)


def schedule(shapes, missing) -> tuple:
    """The exact-cell schedule of the mask levels of the given shapes
    that omit the (i, k, j) slots in missing.

    Each level's _level_units split its cells by the inner digits they
    allow.  A group takes one unit per level; its cells are the product of
    the units' own cells, and C on them is one BLAS product of A and B over
    the product of the units' rows, columns and inner digits.  Groups are
    visited depth first from the one that takes each level's first unit: a
    group pins, on some levels, a later unit, and each child pins one more
    level, more significant than its parent's pins.  That order paints: a
    group's box covers only its own cells and cells of groups visited
    later, so every cell of C is written last from the one product of its
    own group, and nothing is subtracted.  sw has two units a level, so its
    group pinning the levels Z reads C[I, J] = sum over K with digit 1 on Z
    of A[I, K] B[J, K], on the rows I and columns J with digit 0 on Z.

    Operands are copied depth first.  A group's base buffer takes its
    units' digits on its most significant pin and the levels below it, and
    every digit on the levels above; its children copy from it, so a copy
    moves runs of its pinned level's weight.  The base is the group's
    operand when each level above takes a whole first unit, as matmul's
    and sw's levels do; otherwise the operand is gathered from it into a
    scratch buffer.  A box that its own cells do not fill is trimmed: it is
    split by row digit on its most significant levels of more than one
    row, until its blocks hold at most BLOCK_ROWS rows, but no further than
    the last of them whose unit's rows do not all own every column; each
    block takes only the column blocks its own cells use, and each run of
    adjacent column blocks is one product into the scratch P, copied into
    C block by block.  With no omitted slot the schedule is one product,
    A @ B.T straight into C.

    Returns (ops, shape of C, multiplies).  An op is (dst, src, None), a
    copy, or (a, b, out), out = a @ b; each view is an ndarray into the
    schedule's buffers, or (key, shape, offset, strides, dtype) into the
    apply's A (key 0), B (1) or C (2).
    """
    L = len(shapes)
    units = [_level_units(s, E) for s, E in zip(shapes, missing)]
    qi, qk, qj = ([s.q_i for s in shapes], [s.q_k for s in shapes],
                  [s.q_j for s in shapes])
    whole = ([(range(q), tuple(range(k))) for q, k in zip(qi, qk)],
             [(range(q), tuple(range(k))) for q, k in zip(qj, qk)])
    shape_C = (math.prod(qi), math.prod(qj))
    C_st = _suffix(qi, shape_C[1]) + _suffix(qj)
    size = np.dtype(np.float32).itemsize
    f32 = np.dtype(np.float32)
    ops, sizes = [], {}
    multiplies = 0

    def need(key, n):
        sizes[key] = max(sizes.get(key, 0), n)

    def gather(src, dst_key, dst, dst_st):
        """Fill dst_key, laid out by dst with strides dst_st, from src =
        (key, layout, strides): on each level dst keeps a run of the
        source's rows and some of its inner digits, one copy per
        combination of their runs."""
        src_key, src_sel, src_st = src
        need(dst_key, dst_st[0] * len(dst[0][0]))
        offset, per_level = 0, []
        for (r, ks), (s, src_ks), st in zip(dst, src_sel, src_st):
            offset += (r.start - s.start) * st
            runs, at = [], 0
            for run in ([range(len(ks))] if ks == src_ks else
                        _runs([src_ks.index(k) for k in ks])):
                runs.append((run.start, at, len(run)))
                at += len(run)
            per_level.append(runs)
        rows = [len(r) for r, _ in dst]
        for combo in itertools.product(*per_level):
            ops.append(_copy(
                rows + [n for _, _, n in combo],
                (dst_key, sum(a * st for (_, a, _), st
                              in zip(combo, dst_st[L:])), dst_st),
                (src_key, offset + sum(s * st for (s, _, _), st
                                       in zip(combo, src_st[L:])), src_st)))

    def products(us, keys):
        """The products of one group, whose operands are in keys."""
        rows, cols = [len(u[0]) for u in us], [len(u[1]) for u in us]
        kcols = math.prod(len(u[2]) for u in us)
        multi = [l for l in range(L) if rows[l] > 1]
        s, tail = 0, math.prod(rows)
        while tail > BLOCK_ROWS:
            tail //= rows[multi[s]]
            s += 1
        waste = [t for t in range(s)
                 if any(len(own) < cols[multi[t]] for own in us[multi[t]][3])]
        split = multi[:waste[-1] + 1] if waste else []
        last = split[-1] if split else -1
        col_split = [l for l in range(last + 1) if cols[l] > 1]
        n_r = math.prod(rows[l] for l in range(L) if l not in split)
        n_c = math.prod(cols[last + 1:])
        row_st = _suffix([rows[l] for l in split], n_r)
        col_st = _suffix([cols[l] for l in col_split])
        count = 0
        for rho in itertools.product(*(range(rows[l]) for l in split)):
            pin = dict(zip(split, rho))
            runs = []
            for gamma in itertools.product(*(
                    us[l][3][pin[l]] if l in pin else range(cols[l])
                    for l in col_split)):
                b = sum(g * st for g, st in zip(gamma, col_st))
                if runs and runs[-1][0] + len(runs[-1][1]) == b:
                    runs[-1][1].append(gamma)
                else:
                    runs.append((b, [gamma]))
            r0 = sum(r * st for r, st in zip(rho, row_st))
            for b, run in runs:
                width = n_c * len(run)
                count += n_r * kcols * width
                a = (keys[0], (n_r, kcols), size * r0 * kcols,
                     (size * kcols, size), f32)
                bT = (keys[1], (kcols, width), size * b * n_c * kcols,
                      (size, size * kcols), f32)
                if n_r * width == shape_C[0] * shape_C[1]:
                    ops.append((a, bT, (2, shape_C, 0,
                                        (size * shape_C[1], size), f32)))
                    continue
                need("P", n_r * width)
                ops.append((a, bT, ("P", (n_r, width), 0,
                                    (size * width, size), f32)))
                for at, gamma in enumerate(run):
                    fix = dict(zip(col_split, gamma))
                    shape = ([1 if l in pin else rows[l] for l in range(L)]
                             + [1 if l <= last else cols[l]
                                for l in range(L)])
                    start = ([us[l][0][pin.get(l, 0)] for l in range(L)]
                             + [us[l][1][fix.get(l, 0)] for l in range(L)])
                    ops.append(_copy(
                        shape,
                        (2, sum(a * st for a, st in zip(start, C_st)), C_st),
                        ("P", at * n_c,
                         _suffix(shape[:L], width) + _suffix(shape[L:]))))
        return count

    nodes = [([0] * L, L, 0, None)] if all(units) else []
    while nodes:
        rank, p, depth, parent = nodes.pop()
        us = [units[l][r] for l, r in enumerate(rank)]
        bases, keys = [], []
        for side in (0, 1):
            base = whole[side][:p] + [(u[side], u[2]) for u in us[p:]]
            operand = [(u[side], u[2]) for u in us]
            key, st = ("base", side, depth) if depth else side, _layout(base)
            if depth:
                gather(parent[side], key, base, st)
            bases.append((key, base, st))
            if operand != base:
                gather(bases[-1], ("operand", side), operand,
                       _layout(operand))
                key = ("operand", side)
            keys.append(key)
        multiplies += products(us, keys)
        # children pin one more level, more significant than the pins so
        # far, and are visited in order of level, then unit
        nodes.extend((rank[:l] + [r] + rank[l + 1:], l, depth + 1, bases)
                     for l in reversed(range(p))
                     for r in reversed(range(1, len(units[l]))))
    buffers = {key: np.empty(n, np.float32) for key, n in sizes.items()}
    views = {None: None}

    def resolve(view):
        if view not in views:
            key, shape, offset, strides, dtype = view
            views[view] = view if key not in buffers else np.ndarray(
                shape, dtype, buffers[key], offset, strides)
        return views[view]

    for i, op in enumerate(ops):
        ops[i] = tuple(map(resolve, op))
    return ops, shape_C, multiplies


def apply(groups, A, B, counter: MultiplyCounter | None = None):
    """Exact application of unit-coefficient subset-of-matmul levels.

    groups is the Detector's schedule, which states the
    products it runs, in painting order, and the copies that feed them and
    place their cells in C.  Every cell is one dot product over the K it
    allows, so on integer operands C is exact in float32 whenever every
    cell's sum_K |A[I, K] B[J, K]| < 2^24, the bound of one float32
    A @ B.T.  The multiply count is the schedule's.
    """
    ops, shape, multiplies = groups
    C = np.zeros(shape, dtype=np.float32)
    arrays = (np.ascontiguousarray(A, dtype=np.float32),
              np.ascontiguousarray(B, dtype=np.float32), C)

    def view(v):
        if isinstance(v, np.ndarray):
            return v
        key, shp, offset, strides, dtype = v
        return np.ndarray(shp, dtype, arrays[key], offset, strides)

    for x, y, out in ops:
        if out is None:
            np.copyto(view(x), view(y))
        else:
            np.matmul(view(x), view(y), out=view(out))
    if counter is not None:
        counter.add(multiplies)
    return C
