"""Sparse collections, sparse forms, and the stopping-time constructors.

A collection of cubes is sparse when each cube owns a major subset (more than
half of its cells, exact integer comparison) and the major subsets are
pairwise disjoint.  Feasibility of a candidate cube family is decided by
growing one assignment of cells to cubes, a cube at a time: a new cube takes
free cells of its own, then the rest of its demand |Q|//2 + 1 one cell per
augmenting path (cube -> one of its cells -> that cell's owner -> ...  ->
a free cell).  When a search fails, the cubes it reached own every cell of
their union and the new cube is short, so they form a subfamily whose union
is smaller than its total demand: the Hall-violation certificate.  For
laminar families the condition collapses to per-subtree Hall counting, which
is what the brute-force sparse-form maximizer exploits.

The constructors mirror the recursive stopping-time scheme: on a node Q the
localized maximal operators are thresholded at an adaptively doubled constant
C, the stopping children are the maximal dyadic subcubes whose 9-fold dilate
sits inside the exceedance set, and Q's major subset is what remains of Q
after removing the children.  Nodes are shift-0 cubes, so the children are
found by array reductions, one dyadic level at a time: the grid cut into
blocks of that level's side, each block any-reduced to "holds a cell off the
set", ORed over its 9-block neighbourhood per axis.  They come back in the
order of a last-in-first-out subcube walk, which fixes the recursion order
and with it the summation order of the sparse form.

The child-measure budget (default 2^-16 of |Q|) is enforced exactly; with
unit cells and desk-scale grids this budget is below one cell, so
default-budget collections consist of the root alone and deeper recursions
appear only with a relaxed budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import maximal
from .errors import (
    CalibrationFailureError,
    DomainError,
    InfeasibleCollectionError,
)
from .lattice import (
    DyadicCube,
    GridFunction,
    GridSpec,
    children as cube_children,
    cube_cells,
    dilate,
    enumerate_cubes,
    holder_aggregate,
    lr_norm_rows,
    power_mean,
)


def _scalar_profiles(inputs: Sequence[GridFunction], rs=None) -> list:
    """Per-slot scalar profiles ||f^j(x)||_{l^{r_j}} (or |f| when rs is None)."""
    if rs is None:
        out = []
        for f in inputs:
            if f.n_components != 1:
                raise DomainError("scalar sparse form needs N = 1 inputs")
            out.append(np.abs(f.values[:, 0]))
        return out
    return [lr_norm_rows(f.values, r) for f, r in zip(inputs, rs)]


@dataclass
class SparseCollection:
    """Cubes paired with explicit major subsets (flat cell index arrays).

    cell_sets are the cubes' cell arrays in order: a maker that already
    holds them passes them in, and they are built once here otherwise.
    """

    spec: GridSpec
    cubes: list
    major_sets: list
    cell_sets: list | None = None

    def __post_init__(self):
        self.major_sets = [np.asarray(m, dtype=np.int64) for m in self.major_sets]
        if self.cell_sets is None:
            self.cell_sets = [cube_cells(self.spec, c) for c in self.cubes]

    def __len__(self):
        return len(self.cubes)

    def validate(self) -> None:
        """Exact integer check of the sparsity invariants: each major set
        holds distinct cells of its cube, more than half of them, and meets
        no other major set."""
        seen = np.zeros(self.spec.ncells, dtype=bool)
        for cells, major in zip(self.cell_sets, self.major_sets):
            size = len(cells)
            if not np.all(np.isin(major, cells)):
                raise InfeasibleCollectionError("major set not inside its cube")
            if len(np.unique(major)) < len(major):
                raise InfeasibleCollectionError("major set repeats a cell")
            if 2 * len(major) <= size:
                raise InfeasibleCollectionError(
                    f"|E_Q| = {len(major)} <= |Q|/2 = {size}/2")
            if np.any(seen[major]):
                raise InfeasibleCollectionError("major sets overlap")
            seen[major] = True

    def is_valid(self) -> bool:
        try:
            self.validate()
        except InfeasibleCollectionError:
            return False
        return True


@dataclass
class SparsityVerdict:
    feasible: bool
    collection: SparseCollection | None = None
    violating: list | None = None  # indices of a Hall-violating subfamily


def _demand(size: int) -> int:
    return size // 2 + 1


class _Assignment:
    """Disjoint major sets grown one cube at a time by augmenting paths.

    owner[x] is the index of the added cube whose major set holds cell x, or
    -1 when x is free.  Every added cube owns exactly its demand of its own
    cells; augmenting paths move cells between cubes but never free one.

    The owners are a Python list and each added cube's cells are kept once,
    as a list.  A search reads a cube's owners with one comprehension and
    finds the first free cell and each other owner's first cell there with
    list and dict operations (in, index, dict.fromkeys), which cost less
    than numpy's per-call overhead on cubes of a few dozen cells.
    """

    def __init__(self, ncells: int):
        self.owner = [-1] * ncells
        self.cells = []           # cell list of each added cube

    def add(self, cells: np.ndarray) -> list | None:
        """Add a cube with these sorted cells; None on success.

        The cube takes its first free cells in cell order, then one cell
        per augmenting path.  On failure the cube is not added and the
        sorted indices of a Hall-violating subfamily (the new cube has index
        len(self.cells)) are returned.
        """
        owner = self.owner
        me = len(self.cells)
        cells = cells.tolist()
        self.cells.append(cells)
        need = _demand(len(cells))
        free = [x for x in cells if owner[x] < 0][:need]
        for x in free:
            owner[x] = me
        for _ in range(need - len(free)):
            reached = self._augment(me)
            if reached is not None:
                for x in cells:
                    if owner[x] == me:
                        owner[x] = -1
                self.cells.pop()
                return reached
        return None

    def _augment(self, start: int) -> list | None:
        """Give start one more cell along an alternating path; None on
        success, else the sorted cubes the search reached.

        The search pops cubes from a stack.  A popped cube with a free cell
        takes its first one and the path hands cells back to start;
        otherwise every other owner among its cells, in increasing order,
        is reached through the first cell it holds there.  That order fixes
        which path is found, and so the owners, certificates and major sets.
        """
        owner = self.owner
        came_from = {start: None}  # cube -> (cube it was reached from, cell)
        stack = [start]
        while stack:
            u = stack.pop()
            cells = self.cells[u]
            held = [owner[x] for x in cells]
            if -1 in held:
                v, x = u, cells[held.index(-1)]
                while True:  # each cube on the path takes the next cell
                    owner[x] = v
                    if v == start:
                        return None
                    v, x = came_from[v]
            # u itself is in came_from, so only other owners are reached
            for o in sorted(dict.fromkeys(held)):
                if o not in came_from:
                    came_from[o] = (u, cells[held.index(o)])
                    stack.append(o)
        return sorted(came_from)

    def majors(self) -> list:
        """Each added cube's major set, sorted, in the order of addition:
        one pass over the owners appends each owned cell to its cube."""
        held = [[] for _ in self.cells]
        for x, o in enumerate(self.owner):
            if o >= 0:
                held[o].append(x)
        return [np.array(m, dtype=np.int64) for m in held]


def verify_sparsity(spec: GridSpec,
                    cubes: Sequence[DyadicCube]) -> SparsityVerdict:
    """Decide sparsity of a cube family by augmenting paths.

    The cubes join one assignment in order, each taking its demand
    |Q|//2 + 1 of disjoint cells by augmenting paths.  The first cube whose
    search fails ends the decision; the cubes that search reached own all
    of their union, so that subfamily's union is smaller than its total
    demand and is returned as the certificate.
    """
    cubes, cell_sets = list(cubes), []
    assignment = _Assignment(spec.ncells)
    for cube in cubes:
        cell_sets.append(cube_cells(spec, cube))
        violating = assignment.add(cell_sets[-1])
        if violating is not None:
            return SparsityVerdict(False, None, violating)
    return SparsityVerdict(True, SparseCollection(
        spec, cubes, assignment.majors(), cell_sets), None)


def _cube_terms(profiles, cell_sets, ps, sized: bool = True) -> list:
    """t_Q prod_j <g_j>_{p_j,Q} for each nonempty cell set Q, in order, with
    t_Q = |Q| (the sparse forms) or 1 (the model operator's cube value).

    Cell sets of one size are stacked and averaged row-wise, one power_mean
    call per slot and size.  The slots multiply in from the left, starting
    at t_Q, in float64 products that round as the Python ones do; that
    order fixes the rounding, so every caller gets the same bits for the
    same cube.
    """
    terms = [0.0] * len(cell_sets)
    by_size = {}
    for i, cells in enumerate(cell_sets):
        by_size.setdefault(len(cells), []).append(i)
    for size, where in by_size.items():
        stack = np.array([cell_sets[i] for i in where])
        group = np.full(len(where), float(size) if sized else 1.0)
        for g, p in zip(profiles, ps):
            group *= power_mean(g[stack], p)
        for i, term in zip(where, group.tolist()):
            terms[i] = term
    return terms


def _form_of_cells(cell_sets, profiles, ps) -> float:
    """sum_Q |Q| prod_j <g_j>_{p_j,Q} over nonempty cell sets, added left to
    right in their order (the built-in sum compensates float sums from
    Python 3.12 on), so equal cubes in equal order give equal bits."""
    total = 0.0
    for term in _cube_terms(profiles, [c for c in cell_sets if len(c)], ps):
        total += term
    return total


def sparse_form(spec: GridSpec, cubes: Sequence[DyadicCube],
                inputs: Sequence[GridFunction], ps: Sequence[float],
                rs=None) -> float:
    """sum_Q |Q| prod_j <||f^j||_{l^{r_j}}>_{p_j,Q} (scalar when rs is None)."""
    return _form_of_cells((cube_cells(spec, c) for c in cubes),
                          _scalar_profiles(inputs, rs), ps)


def integral_of_form(inputs: Sequence[GridFunction], ps: Sequence[float],
                     shifts: str = "all") -> float:
    """Cell sum of the multilinear maximal function, its components
    aggregated in l^1."""
    return float(np.sum(maximal.vector_maximal(list(inputs), ps, r=1.0,
                                               shifts=shifts).values[:, 0]))


def lower_direction_check(collection: SparseCollection,
                          inputs: Sequence[GridFunction],
                          ps: Sequence[float], rs=None) -> dict:
    """Per-collection factor-2 bound: sparse form <= 2 * integral of the form.

    Mirrors the disjoint-major-subset argument: each cube's term is at most
    twice the integral of the maximal function over its major subset, and the
    major subsets do not overlap.
    """
    profiles = _scalar_profiles(inputs, rs)
    scalars = [GridFunction(collection.spec, g) for g in profiles]
    form = _form_of_cells(collection.cell_sets, profiles, ps)
    integral = integral_of_form(scalars, ps)
    ratio = 0.0 if integral == 0.0 else form / integral
    return {"sparse_form": form, "integral": integral, "ratio": ratio,
            "holds": form <= 2.0 * integral * (1.0 + 1e-9) + 1e-12}


# ---------------------------------------------------------------------------
# stopping-time constructors


@dataclass
class StoppingNode:
    """Diagnostics for one recursion node of the constructor."""

    cube: DyadicCube
    threshold: float | None          # final scale-free C (None: zero data)
    doublings: int
    child_measure: int               # sum |L| over stopping children
    size: int
    off_exceptional_ratio: float     # property (i): sup off E of A / threshold
    child_average_ratio: float       # property (ii), part 1 only
    child_truncated_ratio: float     # property (iii)
    n_children: int


@dataclass
class ConstructionReport:
    collection: SparseCollection
    nodes: list
    lhs: float
    rhs: float

    @property
    def depth(self) -> int:
        """Dyadic levels from the root down to the smallest cube, inclusive.

        This is not the number of recursion steps: a root whose stopping
        children are unit cubes has depth levels + 1 (9 at 1-d K = 8) after
        a single step.  Count nodes with n_children > 0 to see recursion.
        """
        root_level = self.nodes[0].cube.level
        return 1 + max(root_level - n.cube.level for n in self.nodes)

    @property
    def theta_emp(self) -> float | None:
        return None if self.rhs == 0.0 else self.lhs / self.rhs


_NINE = np.arange(-4, 5)[:, None]     # the 9L window in cubes, per axis
_MAX_DOUBLINGS = 200


def _stopping_children(spec: GridSpec, root: DyadicCube,
                       mask: np.ndarray) -> list:
    """Maximal proper dyadic subcubes L of root with cells(9L) inside the mask.

    Works one dyadic level at a time on the shift-0 lattice (a root of
    another shift raises DomainError), where level j is the grid cut into
    blocks of side 2^j.  Each block is any-reduced to "holds a cell off the
    mask" (from the level below, one strided OR of block pairs per axis,
    so whole rows go through each numpy call), then ORed over the +-4
    neighbouring blocks along each axis (indices wrapped on periodic grids,
    so an axis of at most 9 blocks is covered whole; clipped at the edges
    otherwise): the result says whether 9L meets a cell off the mask, with
    9L the clipped or wrapped dilate.
    Since 9L' lies in 9L for a child L' of L, qualifying is inherited
    downwards, so the maximal qualifying cubes are those whose parent does
    not qualify or is the root, and no cube qualifies above a level with
    none.  The children are returned in descending Morton order of their
    offset from the root's corner (axis 0 most significant): the order a
    last-in-first-out walk over the subcubes visits them, which fixes the
    recursion order and so the summation order of sparse_form.
    """
    if root.shift != 0:
        raise DomainError("stopping children are selected on the shift-0 "
                          "lattice")
    d = spec.d
    blocks = ~mask.reshape((spec.side,) * d)  # level 0: cells off the mask
    clear = []      # per level from 0 up: subcubes L of root, 9L inside mask
    for level in range(root.level):
        m = spec.side >> level            # blocks per axis
        if level:   # OR the pairs of blocks of the level below, per axis
            for axis in range(d):
                keep = (slice(None),) * axis
                blocks = blocks[keep + (slice(0, None, 2),)] | \
                    blocks[keep + (slice(1, None, 2),)]
        near = blocks
        for axis in range(d):
            idx = (root.corner[axis] >> level) + _NINE + \
                np.arange(1 << (root.level - level))
            idx = idx % m if spec.periodic else np.clip(idx, 0, m - 1)
            near = np.take(near, idx, axis=axis).any(axis=axis)
        if near.all():
            break
        clear.append(~near)
    if not clear:
        return []
    offsets, levels = [], []
    for level, ok in enumerate(clear):
        if level + 1 < len(clear):
            parent = clear[level + 1]
            for axis in range(d):
                parent = parent.repeat(2, axis=axis)
            ok = ok & ~parent
        found = np.argwhere(ok) << level
        offsets.append(found)
        levels += [level] * len(found)
    offsets = np.concatenate(offsets)
    # Morton keys: the offset bits from the most significant down, axis 0
    # first within each bit
    bits = (offsets[:, None, :] >> np.arange(root.level)[::-1, None]) & 1
    bits = bits.reshape(len(offsets), -1)
    keys = bits @ (1 << np.arange(bits.shape[1])[::-1])
    return [DyadicCube(0, levels[i], tuple(int(c + o) for c, o in
                                           zip(root.corner, offsets[i])))
            for i in np.argsort(-keys)]


def build_sparse_collection(inputs: Sequence[GridFunction],
                            ps: Sequence[float], rs: Sequence[float],
                            eps: float | None = None, variant: int = 1,
                            child_budget: float = 2.0 ** -16,
                            c0: float = 2.0 ** 10) -> ConstructionReport:
    """Run the stopping-time construction (variant 1 with eps, variant 2 without).

    Thresholds are scale-free: the per-node constant C multiplies the 3Q
    normalization of each input, and is doubled from c0 until both the
    exceptional set and the total stopping-child measure meet their budgets
    (children: child_budget * |Q|; exceptional set: 9^d/2 * child_budget * |Q|,
    the slack accounting for the 9-fold dilation in the child selection).
    The collection is not validated here: callers decide its sparsity with
    `SparseCollection.is_valid` or `validate`.
    """
    if variant == 1:
        if eps is None or eps <= 0:
            raise DomainError("variant 1 needs eps > 0")
    elif variant == 2:
        eps = None
    else:
        raise DomainError("variant must be 1 or 2")
    if not (0.0 < child_budget < 0.5):
        raise DomainError("child budget must lie in (0, 1/2)")
    for p, r in zip(ps, rs):
        if not p < r:
            raise DomainError("the construction requires p_j < r_j")

    spec = inputs[0].spec
    exc_budget = child_budget * (9 ** spec.d) / 2.0
    form_exps = [p + eps for p in ps] if variant == 1 else list(ps)
    r_agg = holder_aggregate(rs)
    profiles = _scalar_profiles(inputs, rs)
    # slot groups (inputs, exponents, l^r exponent): one localized maximal
    # function and one threshold each
    if variant == 1:
        groups = [([f], (p,), r) for f, p, r in zip(inputs, ps, rs)]
    else:
        groups = [(list(inputs), ps, r_agg)]

    cubes, majors, nodes, cell_sets = [], [], [], []
    lhs = 0.0        # also when an input vanishes on the whole grid
    root = DyadicCube(shift=0, level=spec.levels, corner=(0,) * spec.d)
    # (cube, its cells, its 3-fold dilate), last in first out with the
    # children pushed in reverse: a pre-order walk, which fixes the
    # summation order of rhs
    stack = [(root, cube_cells(spec, root), dilate(spec, root, 3))]
    while stack:
        q, cells_q, cells_3q = stack.pop()
        size_q = len(cells_q)
        cubes.append(q)
        cell_sets.append(cells_q)
        scales = [power_mean(g[cells_3q], e) if np.any(g[cells_3q]) else 0.0
                  for g, e in zip(profiles, form_exps)]
        if any(s == 0.0 for s in scales):
            # some input vanishes on 3Q, so the localized operators vanish
            # on Q
            majors.append(cells_q)
            nodes.append(StoppingNode(q, None, 0, 0, size_q, 0.0, 0.0, 0.0,
                                      0))
            continue

        if q is root:
            # per slot group, row j of raw: the sup over the cubes of level
            # j alone, from one pass over the whole grid; row j of running,
            # its max upwards: the sup over the cubes of levels <= j
            raw = [maximal.level_sups(fs, es) for fs, es, _ in groups]
            running = [np.maximum.accumulate(sups, axis=0) for sups in raw]
        # 1_Q times the maximal function truncated to sides <= side(Q), its
        # inputs restricted to 3Q: row level(Q) of running at Q.  Every cube
        # of such a side that meets Q lies in 3Q, so its full-grid sum adds
        # the same cells in the same order as one narrowed to 3Q.
        a_loc = []
        for sups, (_, _, r) in zip(running, groups):
            a = np.zeros(spec.ncells)
            a[cells_q] = lr_norm_rows(sups[q.level][cells_q], r)
            a_loc.append(a)
        if q is root:
            # the root's localized maximal functions are the full ones, so
            # they give lhs: the Hoelder majorant (variant 1) or the form's
            # maximal function
            dominator = np.ones(spec.ncells)
            for a in a_loc:
                dominator *= a
            lhs = float(np.sum(dominator))
        # the mask is read on 5Q only: _stopping_children reads +-4 blocks
        # of side <= side(Q)/2 around Q, the budget and property (i) read Q
        reach = dilate(spec, q, 5)
        if variant == 1:
            group_scales = scales
            # a vanishes off Q, so the omitted cells would add +0.0
            exceed_arrays = [lr_norm_rows(maximal.component_sup(
                [GridFunction(spec, a)], (1.0,), support=cells_q, at=reach),
                1.0) for a in a_loc]
        else:
            group_scales = [float(np.prod(scales))]
            exceed_arrays = [a[reach] for a in a_loc]

        c = c0
        for doublings in range(_MAX_DOUBLINGS + 1):
            thresholds = [c * s for s in group_scales]
            mask = np.zeros(spec.ncells, dtype=bool)
            for arr, th in zip(exceed_arrays, thresholds):
                mask[reach] |= arr >= th
            exc_count = int(np.count_nonzero(mask[cells_q]))
            kids = _stopping_children(spec, q, mask)
            # shift-0 subcubes of a shift-0 node lie inside the domain
            kid_measure = sum(L.side ** spec.d for L in kids)
            if kid_measure <= child_budget * size_q and \
                    exc_count <= exc_budget * size_q:
                break
            c *= 2.0
        else:
            raise CalibrationFailureError(
                f"no threshold below c0 * 2^{_MAX_DOUBLINGS} met the budget")

        child_cells = [cube_cells(spec, L) for L in kids]
        child_threes = [dilate(spec, L, 3) for L in kids]
        ratios = _node_property_ratios(q, cells_q, mask, kids, child_cells,
                                       child_threes, groups, raw, a_loc,
                                       thresholds, variant)
        majors.append(cells_q if not kids else np.setdiff1d(
            cells_q, np.concatenate(child_cells), assume_unique=False))
        nodes.append(StoppingNode(q, c, doublings, kid_measure, size_q,
                                  ratios[0], ratios[1], ratios[2], len(kids)))
        stack.extend(reversed(list(zip(kids, child_cells, child_threes))))

    collection = SparseCollection(spec, cubes, majors, cell_sets)
    rhs = _form_of_cells(cell_sets, profiles, form_exps)
    return ConstructionReport(collection, nodes, lhs, rhs)


def _node_property_ratios(q, cells_q, mask, kids, child_cells, child_threes,
                          groups, raw, a_loc, thresholds, variant):
    """Scale-free ratios behind the three stopping-node properties.

    (i) localized operator off the exceedance set / threshold;
    (ii) averages of the localized operators over 3L (variant 1);
    (iii) coarse-truncated operator, window (side L, side Q], on L.
    All are 0 when vacuous (no off-set cells, no children).  a_loc and
    thresholds hold each slot group's localized maximal function on Q and
    its threshold, child_cells and child_threes each child's cells and 3L,
    raw each group's per-level rows of the root's level_sups pass.  (iii)
    is the max of raw's rows level(L)+1..level(Q) at L's cells: every cube
    it reads has side <= side(Q) and meets Q, so lies in 3Q.  The rows are
    maxed from level(Q) down once per node, and each cell reads its own
    child's row; max and division by a positive threshold commute, so the
    ratio equals the per-child one.
    """
    per_group = list(zip(a_loc, thresholds))
    off = cells_q[~mask[cells_q]]
    prop1 = 0.0
    if len(off) > 0:
        prop1 = max(float(a[off].max()) / th for a, th in per_group)
    if not kids:
        return prop1, 0.0, 0.0

    prop2 = 0.0
    if variant == 1:
        for three in child_threes:
            for a, th in per_group:
                prop2 = max(prop2, float(np.mean(a[three])) / th)

    cells = np.concatenate(child_cells)
    low = min(kid.level for kid in kids)
    # row i of the max below covers levels level(Q) - i .. level(Q), so a
    # child L reads row level(Q) - level(L) - 1
    row = np.repeat([q.level - kid.level - 1 for kid in kids],
                    [len(c) for c in child_cells])
    index = np.arange(len(cells))
    prop3 = 0.0
    for sups, (_, _, r), th in zip(raw, groups, thresholds):
        down = np.maximum.accumulate(sups[q.level:low:-1, cells], axis=0)
        trunc = lr_norm_rows(down[row, index], r)
        prop3 = max(prop3, float(trunc.max()) / th)
    return prop1, prop2, prop3


# ---------------------------------------------------------------------------
# sparse-form maximization (the equivalence oracle)


def sup_sparse_form(inputs: Sequence[GridFunction], ps: Sequence[float],
                    mode: str = "bruteforce", shifts: str = "canonical"):
    """Maximize the scalar sparse form over feasible cube families.

    bruteforce (canonical lattice, <= 16 cells): exact optimum by dynamic
    programming on the dyadic tree.  For a laminar family, sparsity
    is equivalent to the per-subtree Hall condition (total demand of selected
    cubes within any cube R at most |R|), because the union of any laminar
    subfamily splits into its maximal members; the DP maximizes total weight
    under those counting constraints.  greedy: feasible lower bound by
    descending cube weight; every candidate joins one shared assignment by
    augmenting paths or is dropped, so each is decided once.  The weights
    are scored row-wise, one power_mean call per slot over the stack of all
    candidates of one size, with the bits of one call per candidate.  The
    assignment's searches visit cubes in a fixed order (see _Assignment),
    so the chosen cubes and major sets do not depend on how owners are
    read.

    Returns (value, SparseCollection with assigned major sets).
    """
    spec = inputs[0].spec
    profiles = _scalar_profiles(inputs, None)

    def weight(cells):
        return _cube_terms(profiles, [cells], ps)[0]

    if mode == "bruteforce":
        if spec.ncells > 16:
            raise DomainError("brute-force mode is limited to 16 cells")
        if shifts != "canonical":
            raise DomainError(
                "brute-force mode enumerates the canonical lattice only")
        root = DyadicCube(0, spec.levels, (0,) * spec.d)
        value, chosen = _laminar_optimum(spec, root, weight)
        verdict = verify_sparsity(spec, chosen)
        if not verdict.feasible:  # cannot happen if the Hall reduction is right
            raise InfeasibleCollectionError("laminar optimum is not sparse")
        return value, verdict.collection

    if mode == "greedy":
        cubes, cell_sets = [], []
        for cube in enumerate_cubes(spec, shifts=shifts):
            cells = cube_cells(spec, cube)
            if len(cells):
                cubes.append(cube)
                cell_sets.append(cells)
        scored = sorted(zip(_cube_terms(profiles, cell_sets, ps), cubes,
                            cell_sets),
                        key=lambda t: (-t[0], -t[1].side, t[1].corner,
                                       t[1].shift))
        assignment = _Assignment(spec.ncells)
        family, family_cells, value = [], [], 0.0
        for w, cube, cells in scored:
            if w <= 0.0:
                break
            if assignment.add(cells) is None:
                family.append(cube)
                family_cells.append(cells)
                value += w
        return value, SparseCollection(spec, family, assignment.majors(),
                                       family_cells)

    raise DomainError("mode must be 'bruteforce' or 'greedy'")


def _laminar_optimum(spec: GridSpec, root: DyadicCube, weight):
    """DP over the dyadic tree: table[d] = best weight with total demand d;
    weight maps a cube's cell array to its weight."""

    def solve(cube):
        cells = cube_cells(spec, cube)
        size = len(cells)
        table = np.full(size + 1, -np.inf)
        table[0] = 0.0
        picks = [[] for _ in range(size + 1)]
        for child in cube_children(spec, cube):
            ct, cp = solve(child)
            new = np.full(size + 1, -np.inf)
            newp = [None] * (size + 1)
            for a in range(size + 1):
                if table[a] == -np.inf:
                    continue
                for b in range(min(len(ct) - 1, size - a) + 1):
                    if ct[b] == -np.inf:
                        continue
                    if table[a] + ct[b] > new[a + b]:
                        new[a + b] = table[a] + ct[b]
                        newp[a + b] = (a, b)
            merged = [[] for _ in range(size + 1)]
            for dem in range(size + 1):
                if newp[dem] is not None:
                    a, b = newp[dem]
                    merged[dem] = picks[a] + cp[b]
            table, picks = new, merged
        w = weight(cells)
        dem = _demand(size)
        for total in range(size, dem - 1, -1):
            cand = table[total - dem] + w
            if cand > table[total]:
                table[total] = cand
                picks[total] = picks[total - dem] + [cube]
        return table, picks

    table, picks = solve(root)
    best = int(np.argmax(table))
    return float(table[best]), picks[best]
