"""Sparse collections: feasibility, forms, optimizers and the constructor."""

import gc
import itertools
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import sparsedom
from sparsedom import (
    GridFunction,
    GridSpec,
    SparseCollection,
    build_sparse_collection,
    generate_corpus,
    holder_dominator,
    integral_of_form,
    lower_direction_check,
    sparse_form,
    sup_sparse_form,
    vector_maximal,
    verify_sparsity,
)
from sparsedom.errors import (
    InfeasibleCollectionError,
    InstanceTooLargeError,
)
from sparsedom.lattice import (
    DyadicCube,
    _cells_of_box,
    children,
    cube_cells,
    dilate,
    enumerate_cubes,
    holder_aggregate,
    lr_norm_rows,
    power_mean,
)
from sparsedom.sparse import _Assignment, _stopping_children
from test_lattice import power_mean_1d
from test_maximal import localized_maximal


def canonical_cube(level, corner):
    return DyadicCube(shift=0, level=level, corner=(corner,))


def random_inputs(spec, n_slots, n_comp, rng):
    return [GridFunction(spec, rng.uniform(0.0, 3.0,
                                           size=(spec.ncells, n_comp)))
            for _ in range(n_slots)]


# ---------------------------------------------------------------------------
# feasibility


def test_single_cube_feasible():
    spec = GridSpec(1, 2)
    verdict = verify_sparsity(spec, [canonical_cube(2, 0)])
    assert verdict
    coll = verdict.collection
    assert len(coll.major_sets[0]) == 3  # demand |Q|/2 + 1 on 4 cells
    coll.validate()
    empty = verify_sparsity(spec, [])
    assert empty and empty.collection.major_sets == []


def test_parent_plus_child_infeasible():
    """|Q| = 4 with one child of size 2: demands 3 + 2 = 5 exceed 4 cells."""
    spec = GridSpec(1, 2)
    cubes = [canonical_cube(2, 0), canonical_cube(1, 0)]
    verdict = verify_sparsity(spec, cubes)
    assert not verdict
    assert verdict.violating is not None
    # the certificate is a subfamily whose union is smaller than its demand
    union = set()
    demand = 0
    for i in verdict.violating:
        cells = cube_cells(spec, cubes[i])
        union |= set(cells.tolist())
        demand += len(cells) // 2 + 1
    assert demand > len(union)


def test_disjoint_cubes_feasible():
    spec = GridSpec(1, 3)
    verdict = verify_sparsity(spec, [canonical_cube(2, 0),
                                     canonical_cube(2, 4)])
    assert verdict
    verdict.collection.validate()


def test_full_level_plus_parents_infeasible():
    """All four cells as cubes plus the root: every cell is already claimed."""
    spec = GridSpec(1, 2)
    cubes = [canonical_cube(0, c) for c in range(4)] + [canonical_cube(2, 0)]
    assert not verify_sparsity(spec, cubes)


def test_explicit_major_sets_validation():
    spec = GridSpec(1, 2)
    q = canonical_cube(2, 0)
    # not a majority
    coll = SparseCollection(spec, [q], [np.array([0, 1])])
    with pytest.raises(InfeasibleCollectionError):
        coll.validate()
    # outside the cube
    child = canonical_cube(1, 0)
    coll = SparseCollection(spec, [child], [np.array([2, 3])])
    with pytest.raises(InfeasibleCollectionError):
        coll.validate()
    # overlapping major sets
    coll = SparseCollection(spec, [canonical_cube(1, 0), canonical_cube(2, 0)],
                            [np.array([0, 1]), np.array([1, 2, 3])])
    with pytest.raises(InfeasibleCollectionError):
        coll.validate()
    # a repeated cell counted towards the majority: 2 of the 4 cells
    coll = SparseCollection(spec, [q], [[0, 0, 1]])
    assert not coll.is_valid()
    # the same set read back from the overlapping runs of its JSON
    text = coll.to_json()
    assert json.loads(text)["major_sets"] == [[[0, 1], [0, 2]]]
    assert not SparseCollection.from_json(text).is_valid()
    # a valid assignment
    coll = SparseCollection(spec, [canonical_cube(1, 0), canonical_cube(1, 2)],
                            [np.array([0, 1]), np.array([2, 3])])
    coll.validate()


def test_json_roundtrip():
    spec = GridSpec(2, 2, periodic=True)
    verdict = verify_sparsity(
        spec, [DyadicCube(0, 2, (0, 0)), DyadicCube(3, 1, (1, 1))])
    assert verdict
    coll = verdict.collection
    back = SparseCollection.from_json(coll.to_json())
    assert back.spec == coll.spec
    assert back.cubes == coll.cubes
    for a, b in zip(back.major_sets, coll.major_sets):
        assert np.array_equal(np.sort(a), np.sort(b))


def _flow_feasible(spec, cubes):
    """Oracle: the bipartite max-flow decision, source -> cube (capacity its
    demand |Q|//2 + 1) -> each of its cells -> sink (capacity 1)."""
    g = nx.DiGraph()
    g.add_nodes_from(("s", "t"))
    total = 0
    for i, cube in enumerate(cubes):
        cells = cube_cells(spec, cube)
        demand = len(cells) // 2 + 1
        total += demand
        g.add_edge("s", ("q", i), capacity=demand)
        for x in cells.tolist():
            g.add_edge(("q", i), ("c", x), capacity=1)
            g.add_edge(("c", x), "t", capacity=1)
    return nx.maximum_flow_value(g, "s", "t") == total


def _hall_feasible(spec, cubes):
    """Oracle: every subfamily's union is at least its total demand."""
    masks = [sum(1 << x for x in cube_cells(spec, c).tolist()) for c in cubes]
    for k in range(1, len(cubes) + 1):
        for sub in itertools.combinations(masks, k):
            union = 0
            for m in sub:
                union |= m
            if bin(union).count("1") < sum(bin(m).count("1") // 2 + 1
                                           for m in sub):
                return False
    return True


def _random_families(spec, shifts, seed, count, sizes):
    rng = np.random.default_rng(seed)
    pool = list(enumerate_cubes(spec, shifts=shifts))
    for _ in range(count):
        size = int(rng.integers(sizes[0], sizes[1] + 1))
        pick = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
        yield [pool[i] for i in pick]


ORACLE_GRIDS = [(d, levels, periodic, shifts)
                for d, levels in ((1, 3), (1, 5), (2, 2), (2, 3))
                for periodic in (True, False)
                for shifts in ("canonical", "all")]


@pytest.mark.parametrize("d, levels, periodic, shifts", ORACLE_GRIDS)
def test_verdicts_match_flow_and_hall_oracles(d, levels, periodic, shifts):
    """Augmenting-path verdicts agree with max-flow on every family and with
    the power-set Hall condition on families of at most 10 cubes; feasible
    verdicts carry valid major sets, infeasible ones a subfamily whose union
    is smaller than its demand."""
    spec = GridSpec(d, levels, periodic)
    seed = 1000 * d + 10 * levels + 2 * periodic + (shifts == "all")
    seen = set()
    for cubes in _random_families(spec, shifts, seed, 60, (1, 16)):
        verdict = verify_sparsity(spec, cubes)
        assert verdict.feasible == _flow_feasible(spec, cubes)
        if len(cubes) <= 10:
            assert verdict.feasible == _hall_feasible(spec, cubes)
        seen.add(verdict.feasible)
        if verdict.feasible:
            assert verdict.collection.cubes == cubes
            verdict.collection.validate()
            continue
        bad = verdict.violating
        assert bad and all(0 <= i < len(cubes) for i in bad)
        sets = [cube_cells(spec, cubes[i]) for i in bad]
        union = len(np.unique(np.concatenate(sets)))
        assert union < sum(len(s) // 2 + 1 for s in sets)
    assert seen == {True, False}


def test_some_families_need_multi_step_augmenting_paths(monkeypatch):
    """The fixture families exercise the search, not only free-cell grabs:
    some successful search hands cells along a path through two or more
    cubes (each hand-over changes one cell's owner between cubes)."""
    handovers = []
    search = _Assignment._augment

    def counted(self, start):
        before = self.owner.copy()
        reached = search(self, start)
        if reached is None:
            handovers.append(int(np.count_nonzero(
                (before >= 0) & (before != self.owner))))
        return reached

    monkeypatch.setattr(_Assignment, "_augment", counted)
    for d, levels, periodic, shifts in ORACLE_GRIDS:
        spec = GridSpec(d, levels, periodic)
        for cubes in _random_families(spec, shifts, 7, 30, (1, 16)):
            verdict = verify_sparsity(spec, cubes)
            assert verdict.feasible == _flow_feasible(spec, cubes)
    assert max(handovers) >= 2


def test_long_alternating_path_needs_no_recursion():
    """A chain of overlapping cubes whose last member is satisfied only by a
    path through every earlier one: the search is iterative, so a chain far
    longer than the recursion limit is decided."""
    n = sys.getrecursionlimit() + 500
    assignment = _Assignment(2 * n + 1)
    # cube i holds cells {2i, 2i+1, 2i+2} and needs 2 of them; each grabs
    # 2i and 2i+1, so cube n (cells {0}) must shift every cube up by one
    for i in range(n):
        assert assignment.add(np.arange(2 * i, 2 * i + 3)) is None
    assert assignment.add(np.array([0], dtype=np.int64)) is None
    majors = assignment.majors()
    assert majors[-1].tolist() == [0]
    assert majors[n - 1].tolist() == [2 * n - 1, 2 * n]


class NumpyAssignment:
    """Oracle: the assignment as it was with numpy reads on every visit
    (np.unique for the other owners), the order the fast one must keep."""

    def __init__(self, ncells):
        self.owner = np.full(ncells, -1, dtype=np.int64)
        self.cells = []

    def add(self, cells):
        owner = self.owner
        me = len(self.cells)
        self.cells.append(cells)
        need = len(cells) // 2 + 1
        free = cells[owner[cells] < 0][:need]
        owner[free] = me
        for _ in range(need - len(free)):
            reached = self._augment(me)
            if reached is not None:
                owner[owner == me] = -1
                self.cells.pop()
                return reached
        return None

    def _augment(self, start):
        owner = self.owner
        came_from = {start: None}
        stack = [start]
        while stack:
            u = stack.pop()
            cells = self.cells[u]
            held = owner[cells]
            free = cells[held < 0]
            if len(free):
                v, x = u, free[0]
                while True:
                    owner[x] = v
                    if v == start:
                        return None
                    v, x = came_from[v]
            elsewhere = held != u
            others, first = np.unique(held[elsewhere], return_index=True)
            handed = cells[elsewhere][first]
            for o, x in zip(others.tolist(), handed.tolist()):
                if o not in came_from:
                    came_from[o] = (u, x)
                    stack.append(o)
        return sorted(came_from)

    def majors(self):
        return [np.flatnonzero(self.owner == i) for i in range(len(self.cells))]


def assert_same_majors(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("d, levels, periodic, shifts", ORACLE_GRIDS)
def test_assignment_matches_numpy_oracle(d, levels, periodic, shifts):
    """Every cube of a random family is added, also after a failed add:
    the owners after each add, each Hall certificate and the major sets
    equal the numpy oracle's."""
    spec = GridSpec(d, levels, periodic)
    seed = 2000 * d + 10 * levels + 2 * periodic + (shifts == "all")
    failed = 0
    for cubes in _random_families(spec, shifts, seed, 30, (1, 24)):
        fast, oracle = _Assignment(spec.ncells), NumpyAssignment(spec.ncells)
        for cube in cubes:
            cells = cube_cells(spec, cube)
            got = fast.add(cells)
            assert got == oracle.add(cells)
            assert np.array_equal(fast.owner, oracle.owner)
            failed += got is not None
        assert_same_majors(fast.majors(), oracle.majors())
    assert failed > 0


def test_assignment_matches_numpy_oracle_on_large_cubes():
    """Cubes of at least 128 cells are read in runs of one owner; families
    of large overlapping cubes give the oracle's owners, certificates and
    major sets, with failed adds among them."""
    failed = 0
    for spec in (GridSpec(1, 10, False), GridSpec(1, 10, True),
                 GridSpec(2, 6, True)):
        # the top four levels: 64 to 512 cells in 1-d, 16 to 1024 in 2-d
        pool = [c for c in enumerate_cubes(spec, shifts="all")
                if c.level >= spec.levels - 4]
        rng = np.random.default_rng([spec.d, spec.levels, spec.periodic])
        for _ in range(6):
            pick = rng.choice(len(pool), size=8, replace=False)
            fast = _Assignment(spec.ncells)
            oracle = NumpyAssignment(spec.ncells)
            for i in pick:
                cells = cube_cells(spec, pool[i])
                got = fast.add(cells)
                assert got == oracle.add(cells)
                assert np.array_equal(fast.owner, oracle.owner)
                failed += got is not None
            assert_same_majors(fast.majors(), oracle.majors())
    assert failed > 0


def test_long_chain_matches_numpy_oracle():
    """The chain of test_long_alternating_path_needs_no_recursion gives the
    oracle's owners after every add."""
    n = 300
    fast, oracle = _Assignment(2 * n + 1), NumpyAssignment(2 * n + 1)
    chain = [np.arange(2 * i, 2 * i + 3) for i in range(n)]
    for cells in chain + [np.array([0], dtype=np.int64)]:
        assert fast.add(cells) is None and oracle.add(cells) is None
        assert np.array_equal(fast.owner, oracle.owner)
    assert_same_majors(fast.majors(), oracle.majors())


def test_import_does_not_load_networkx():
    """networkx is a test-only dependency: the package never imports it."""
    src = str(Path(sparsedom.__file__).resolve().parents[1])
    code = ("import sys, sparsedom, sparsedom.cli; "
            "print('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# forms


def test_sparse_form_of_point_mass_on_root():
    spec = GridSpec(1, 4)
    f = GridFunction.spike(spec, 0)
    root = canonical_cube(4, 0)
    assert sparse_form(spec, [root], [f], (1.0,)) == pytest.approx(1.0)


def test_sparse_form_additive_over_cubes():
    spec = GridSpec(1, 3)
    rng = np.random.default_rng(5)
    fs = random_inputs(spec, 2, 1, rng)
    cubes = [canonical_cube(2, 0), canonical_cube(2, 4), canonical_cube(3, 0)]
    total = sparse_form(spec, cubes, fs, (1.0, 2.0))
    parts = sum(sparse_form(spec, [c], fs, (1.0, 2.0)) for c in cubes)
    assert total == pytest.approx(parts)


def test_vector_form_uses_lr_profiles():
    spec = GridSpec(1, 2)
    f = GridFunction(spec, np.array([[3.0, 4.0]] * 4))
    root = canonical_cube(2, 0)
    got = sparse_form(spec, [root], [f], (1.0,), rs=(2.0,))
    assert got == pytest.approx(4 * 5.0)


def test_part2_form_below_part1_form_on_same_collection():
    """Raising the slot exponents can only increase each cube's term."""
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(6)
    eps = 0.5
    ps = (1.0, 1.0)
    for _ in range(5):
        fs = random_inputs(spec, 2, 2, rng)
        cubes = [c for i, c in enumerate(
            enumerate_cubes(spec, shifts="canonical")) if i % 3 == 0]
        lo = sparse_form(spec, cubes, fs, ps, rs=(2.0, 2.0))
        hi = sparse_form(spec, cubes, fs, [p + eps for p in ps],
                         rs=(2.0, 2.0))
        assert lo <= hi * (1 + 1e-12)


# ---------------------------------------------------------------------------
# optimizers


def powerset_optimum(spec, fs, ps):
    """Oracle: enumerate every cube subfamily and keep the sparse best."""
    cubes = list(enumerate_cubes(spec, shifts="canonical"))
    best = 0.0
    for k in range(1, len(cubes) + 1):
        for sub in itertools.combinations(cubes, k):
            if verify_sparsity(spec, list(sub)):
                best = max(best, sparse_form(spec, list(sub), fs, ps))
    return best


@pytest.mark.parametrize("seed", range(17))
def test_bruteforce_matches_powerset_oracle(seed):
    spec = GridSpec(1, 2)
    rng = np.random.default_rng(100 + seed)
    fs = random_inputs(spec, 2, 1, rng)
    for ps in ((1.0, 2.0), (1.0, 1.0)):
        value, coll = sup_sparse_form(fs, ps, mode="bruteforce")
        assert value == pytest.approx(powerset_optimum(spec, fs, ps),
                                      rel=1e-12)
        coll.validate()
        assert sparse_form(spec, coll.cubes, fs, ps) == pytest.approx(value)


def test_greedy_is_feasible_and_below_optimum():
    spec = GridSpec(1, 4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        fs = random_inputs(spec, 2, 1, rng)
        gval, gcoll = sup_sparse_form(fs, (1.0, 1.0), mode="greedy")
        gcoll.validate()
        assert gval == pytest.approx(
            sparse_form(spec, gcoll.cubes, fs, (1.0, 1.0)))
    # on a small instance the greedy value is at most the exact optimum
    spec = GridSpec(1, 3)
    fs = random_inputs(spec, 2, 1, rng)
    bval, _ = sup_sparse_form(fs, (1.0, 1.0), mode="bruteforce")
    gval, _ = sup_sparse_form(fs, (1.0, 1.0), mode="greedy")
    assert gval <= bval * (1 + 1e-12)


GREEDY_GRIDS = ((1, 4, True), (1, 4, False), (1, 5, True),
                (2, 2, True), (2, 2, False))


@pytest.mark.parametrize("d, levels, periodic", GREEDY_GRIDS)
def test_greedy_matches_per_candidate_reverify(d, levels, periodic):
    """The one-assignment greedy loop picks the same cubes, and sums the
    same value bit for bit, as re-deciding family + [candidate] from
    scratch for every candidate."""
    spec = GridSpec(d, levels, periodic)
    ps = (1.0, 1.0)
    for seed in range(2):
        rng = np.random.default_rng([seed, d, levels, periodic])
        fs = [GridFunction(spec, rng.uniform(0.1, 1.0, size=spec.ncells))
              for _ in ps]
        value, coll = sup_sparse_form(fs, ps, mode="greedy", shifts="all")
        scored = [(sparse_form(spec, [c], fs, ps), c)
                  for c in enumerate_cubes(spec, shifts="all")
                  if len(cube_cells(spec, c)) > 0]
        scored.sort(key=lambda t: (-t[0], -t[1].side, t[1].corner,
                                   t[1].shift))
        family, want = [], 0.0
        for w, cube in scored:
            if verify_sparsity(spec, family + [cube]):
                family.append(cube)
                want += w
        assert coll.cubes == family
        assert value == want
        coll.validate()


def greedy_oracle(inputs, ps, shifts):
    """Oracle: the greedy loop as it was, one 1-d power mean per slot and
    candidate and the numpy assignment."""
    spec = inputs[0].spec
    profiles = [np.abs(f.values[:, 0]) for f in inputs]
    scored = []
    for cube in enumerate_cubes(spec, shifts=shifts):
        cells = cube_cells(spec, cube)
        if len(cells) == 0:
            continue
        term = float(len(cells))
        for g, p in zip(profiles, ps):
            term *= power_mean_1d(g[cells], p)
        scored.append((term, cube, cells))
    scored.sort(key=lambda t: (-t[0], -t[1].side, t[1].corner, t[1].shift))
    assignment = NumpyAssignment(spec.ncells)
    family, value = [], 0.0
    for w, cube, cells in scored:
        if w <= 0.0:
            break
        if assignment.add(cells) is None:
            family.append(cube)
            value += w
    return value, family, assignment.majors()


GREEDY_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 0.4, -0.5, -2.0, np.inf, -np.inf)


@pytest.mark.parametrize("d, levels, periodic", GREEDY_GRIDS)
def test_greedy_matches_per_cube_oracle(d, levels, periodic):
    """Row-wise scoring by cube size and the fast assignment give the old
    loop's value, cubes and major sets exactly, for every exponent in
    either slot; inputs with zero stretches (positive exponents only) stop
    the loop at a zero weight."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng([d, levels, periodic, 5])
    positive = [GridFunction(spec, rng.uniform(0.1, 1.0, size=spec.ncells))
                for _ in range(2)]
    gaps = [GridFunction(spec, f.values[:, 0] * (rng.random(spec.ncells)
                                                 < 0.4)) for f in positive]
    for i, p in enumerate(GREEDY_EXPONENTS):
        ps = (p, GREEDY_EXPONENTS[(i + 3) % len(GREEDY_EXPONENTS)])
        cases = [positive] + ([gaps] if min(ps) > 0 else [])
        for fs in cases:
            for shifts in ("canonical", "all"):
                value, coll = sup_sparse_form(fs, ps, mode="greedy",
                                              shifts=shifts)
                want, cubes, majors = greedy_oracle(fs, ps, shifts)
                assert value == want
                assert coll.cubes == cubes
                assert_same_majors(coll.major_sets, majors)


def test_bruteforce_rejects_large_instances():
    spec = GridSpec(1, 5)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(InstanceTooLargeError):
        sup_sparse_form([f], (1.0,), mode="bruteforce")


# ---------------------------------------------------------------------------
# stopping-time constructor


def _stopping_children_walk(spec, root, mask):
    """Oracle: pop subcubes of root off a stack, keep each one whose 9-fold
    dilate lies in the mask, and push the children of every other one."""
    out = []
    stack = list(children(spec, root))
    while stack:
        cube = stack.pop()
        nine = dilate(spec, cube, 9)
        if len(nine) > 0 and np.all(mask[nine]):
            out.append(cube)
        elif cube.level > 0:
            stack.extend(children(spec, cube))
    return out


def stopping_masks(spec, rng):
    """Random masks at densities 0.5-1, plus all-true, all-false and
    single-hole masks."""
    masks = [rng.random(spec.ncells) < density
             for density in rng.uniform(0.5, 1.0, size=12)]
    masks += [np.ones(spec.ncells, dtype=bool),
              np.zeros(spec.ncells, dtype=bool)]
    for hole in rng.choice(spec.ncells, size=min(3, spec.ncells),
                           replace=False):
        mask = np.ones(spec.ncells, dtype=bool)
        mask[hole] = False
        masks.append(mask)
    return masks


def test_stopping_children_match_walk():
    """Same children, in the same order, as the walk, on every grid of
    1-d K <= 6 and 2-d K <= 4, periodic and clipped, from the root and
    from each of its children."""
    rng = np.random.default_rng(61)
    sides = set()
    for d, max_levels in ((1, 6), (2, 4)):
        for levels in range(1, max_levels + 1):
            for periodic in (True, False):
                spec = GridSpec(d, levels, periodic)
                root = DyadicCube(0, levels, (0,) * d)
                for mask in stopping_masks(spec, rng):
                    for q in [root] + children(spec, root):
                        got = _stopping_children(spec, q, mask)
                        assert got == _stopping_children_walk(spec, q, mask)
                        sides |= {kid.side for kid in got}
    assert len(sides) >= 2


@pytest.mark.parametrize("d,levels", [(1, 8), (2, 5)])
@pytest.mark.parametrize("periodic", [False, True])
def test_stopping_children_read_the_mask_on_5q_only(d, levels, periodic):
    """The children of Q depend on the mask on 5Q only (the constructor
    fills the mask there alone): +-4 blocks of side at most side(Q)/2
    around Q.  Re-drawing every cell outside 5Q leaves them unchanged, for
    nodes of every level; re-drawing the ring just outside 3Q does not."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(17 + 10 * d + periodic)
    found = 0
    for level in range(1, levels + 1):
        m = spec.side >> level
        for _ in range(4):
            q = DyadicCube(0, level, tuple(
                int(c) << level for c in rng.integers(m, size=d)))
            outside = np.setdiff1d(np.arange(spec.ncells), dilate(spec, q, 5))
            for density in (1.0, 0.999, 0.99, 0.95):
                mask = rng.random(spec.ncells) < density
                kids = _stopping_children(spec, q, mask)
                found += len(kids) > 0
                redrawn = mask.copy()
                redrawn[outside] = rng.random(len(outside)) < 0.5
                assert _stopping_children(spec, q, redrawn) == kids
    assert found >= 2 * levels

    level = 2
    q = DyadicCube(0, level, (spec.side // 2,) * d)
    mask = np.ones(spec.ncells, dtype=bool)
    kids = _stopping_children(spec, q, mask)
    ring = np.setdiff1d(_cells_of_box(spec, tuple(c - q.side - 1 for c in
                                                  q.corner), 3 * q.side + 2),
                        dilate(spec, q, 3))
    assert len(np.setdiff1d(ring, dilate(spec, q, 5))) == 0
    mask[ring] = False
    assert _stopping_children(spec, q, mask) != kids


def test_stopping_children_need_shift_zero_root():
    spec = GridSpec(1, 4, periodic=True)
    mask = np.ones(spec.ncells, dtype=bool)
    with pytest.raises(ValueError):
        _stopping_children(spec, DyadicCube(1, 2, (1,)), mask)


def spiky_inputs(spec, n_slots, rng):
    out = []
    for _ in range(n_slots):
        vals = rng.uniform(0.0, 0.2, size=(spec.ncells, 1))
        hot = rng.choice(spec.ncells, size=max(1, spec.ncells // 16),
                         replace=False)
        vals[hot, 0] += rng.uniform(5.0, 50.0, size=len(hot))
        out.append(GridFunction(spec, vals))
    return out


def test_default_budget_gives_singleton_collection():
    spec = GridSpec(1, 6, periodic=True)
    rng = np.random.default_rng(14)
    fs = random_inputs(spec, 2, 2, rng)
    for variant, eps in ((1, 0.5), (2, None)):
        rep = build_sparse_collection(fs, (1.0, 1.0), (2.0, 2.0), eps=eps,
                                      variant=variant)
        assert len(rep.collection) == 1
        assert rep.collection.cubes[0].side == spec.side
        rep.collection.validate()
        assert rep.nodes[0].child_measure * 2 ** 16 <= rep.nodes[0].size


def test_relaxed_budget_recursion_and_properties():
    """With a relaxed child budget the construction recurses; each node obeys
    the budget and the three property ratios stay within the derived
    constants (periodic grids)."""
    spec = GridSpec(1, 6, periodic=True)
    rng = np.random.default_rng(15)
    ps, rs = (1.0, 1.0), (2.0, 2.0)
    prop2_bound = (64.0 / 3.0) ** spec.d
    prop3_bound = 96.0 ** (spec.d * sum(1.0 / p for p in ps))
    saw_children = False
    for trial in range(5):
        fs = spiky_inputs(spec, 2, rng)
        for variant, eps in ((1, 0.5), (2, None)):
            rep = build_sparse_collection(fs, ps, rs, eps=eps,
                                          variant=variant, child_budget=0.4,
                                          c0=1.0)
            rep.collection.validate()
            for node in rep.nodes:
                assert node.child_measure <= 0.4 * node.size
                assert node.off_exceptional_ratio <= 1.0 + 1e-9
                if variant == 1:
                    assert node.child_average_ratio <= prop2_bound * (1 + 1e-9)
                assert node.child_truncated_ratio <= prop3_bound * (1 + 1e-9)
                saw_children |= node.n_children > 0
    assert saw_children


def node_ratios_oracle(spec, fs, ps, rs, eps, variant, node):
    """The three node ratios recomputed from the node's cube and constant:
    localized maximal functions evaluated afresh, and one windowed maximal
    function per stopping child and slot."""
    if node.threshold is None:  # an input vanishes on 3Q: nothing to compare
        return (0.0, 0.0, 0.0), set()
    q = node.cube
    cells_q = cube_cells(spec, q)
    cells_3q = dilate(spec, q, 3)
    exps = [p + eps for p in ps] if variant == 1 else list(ps)
    scales = [power_mean(lr_norm_rows(f.values, r)[cells_3q], e)
              for f, r, e in zip(fs, rs, exps)]
    r_agg = holder_aggregate(rs)
    restricted = [f.restrict(cells_3q) for f in fs]
    if variant == 1:
        a_loc = [localized_maximal([f], (p,), r, q).values[:, 0]
                 for f, p, r in zip(fs, ps, rs)]
        ths = [node.threshold * s for s in scales]
        exceed = [vector_maximal([GridFunction(spec, a)], (1.0,)).values[:, 0]
                  for a in a_loc]
        truncs = [([f], (p,), r) for f, p, r in zip(restricted, ps, rs)]
    else:
        a_loc = [localized_maximal(fs, ps, r_agg, q).values[:, 0]]
        ths = [node.threshold * float(np.prod(scales))]
        exceed = a_loc
        truncs = [(restricted, ps, r_agg)]
    mask = np.zeros(spec.ncells, dtype=bool)
    for arr, th in zip(exceed, ths):
        mask |= arr >= th
    kids = _stopping_children_walk(spec, q, mask)
    assert len(kids) == node.n_children
    off = cells_q[~mask[cells_q]]
    prop1 = prop2 = prop3 = 0.0
    if len(off) > 0:
        prop1 = max(float(a[off].max()) / th for a, th in zip(a_loc, ths))
    for kid in kids:
        if variant == 1:
            three = dilate(spec, kid, 3)
            for a, th in zip(a_loc, ths):
                prop2 = max(prop2, float(np.mean(a[three])) / th)
        kid_cells = cube_cells(spec, kid)
        for (gs, es, r), th in zip(truncs, ths):
            trunc = vector_maximal(gs, es, r,
                                   window=(kid.side, q.side)).values[:, 0]
            prop3 = max(prop3, float(trunc[kid_cells].max()) / th)
    return (prop1, prop2, prop3), {kid.side for kid in kids}


def test_node_ratios_match_per_child_oracle():
    """Each node's property ratios equal, bit for bit, their per-child
    evaluation, which the constructor does in one pass per child side,
    and the children agree with a mask filled on the whole grid.  At these
    sizes only the root has children (on the 2-d K = 4 grid only unit
    cubes can stop), so each grid runs four corpus items.  The last build
    has side-2 nodes whose candidate children see exceedance cells outside
    3Q, so a mask filled on 3Q alone gives one of them the wrong
    threshold."""
    ps, rs = (1.0, 1.0), (2.0, 2.0)
    builds = []    # (spec, inputs, variant, eps, child budget, c0)
    for d, levels, seed in ((1, 8, 1), (2, 4, 2)):
        spec = GridSpec(d, levels, periodic=True)
        for fs in generate_corpus("mixed", seed, 4, spec, n_slots=2,
                                  n_components=2):
            builds += [(spec, fs, variant, eps, 0.25, 1.0)
                       for variant, eps in ((1, 0.5), (2, None))]
    spec = GridSpec(2, 5, periodic=True)
    fs = generate_corpus("mixed", 1, 2, spec, n_slots=2, n_components=1)[1]
    builds.append((spec, fs, 1, 0.5, 0.45, 0.25))
    parents = 0
    mixed_sides = False
    for spec, fs, variant, eps, budget, c0 in builds:
        rep = build_sparse_collection(list(fs), ps, rs, eps=eps,
                                      variant=variant, child_budget=budget,
                                      c0=c0)
        for node in rep.nodes:
            want, sides = node_ratios_oracle(spec, fs, ps, rs, eps, variant,
                                             node)
            got = (node.off_exceptional_ratio, node.child_average_ratio,
                   node.child_truncated_ratio)
            assert got == want
            parents += node.n_children > 0
            mixed_sides |= len(sides) >= 2
    assert parents >= 4 and mixed_sides


def test_construction_builds_each_cube_once(monkeypatch):
    """The constructor builds each cube's cells and 3-fold dilate once: a
    node receives both from its parent (the root builds its own), and rhs
    is summed from the cell sets of the appended cubes.  The 5-fold dilate,
    where a node reads its exceedance mask, is built once per node with
    data and never on a zero-data node.  Counted on recursing builds of
    both variants."""
    calls = {}

    def cube_cells(spec, cube):
        calls["cube_cells"] = calls.get("cube_cells", 0) + 1
        return sparsedom.lattice.cube_cells(spec, cube)

    def dilate(spec, cube, factor):
        calls[f"dilate{factor}"] = calls.get(f"dilate{factor}", 0) + 1
        return sparsedom.lattice.dilate(spec, cube, factor)

    monkeypatch.setattr(sparsedom.sparse, "cube_cells", cube_cells)
    monkeypatch.setattr(sparsedom.sparse, "dilate", dilate)
    ps, rs = (1.0, 1.0), (2.0, 2.0)
    total = with_data = 0
    for d, levels in ((1, 8), (2, 4)):
        spec = GridSpec(d, levels, periodic=True)
        for fs in generate_corpus("mixed", 0, 3, spec, n_slots=2,
                                  n_components=2):
            for variant, eps in ((1, 0.5), (2, None)):
                calls.clear()
                rep = build_sparse_collection(list(fs), ps, rs, eps=eps,
                                              variant=variant,
                                              child_budget=0.25, c0=1.0)
                n_cubes = len(rep.collection)
                n_data = sum(n.threshold is not None for n in rep.nodes)
                assert calls == {"cube_cells": n_cubes, "dilate3": n_cubes,
                                 "dilate5": n_data}
                total += n_cubes
                with_data += n_data
    assert (total, with_data) == (115, 108)


def test_dropped_report_is_freed_without_gc():
    """A construction leaves no reference cycle behind: with the cycle
    collector off, dropping the report frees its nodes at once."""
    spec = GridSpec(1, 8, periodic=True)
    fs = generate_corpus("mixed", 0, 2, spec, n_slots=2, n_components=2)[1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = build_sparse_collection(list(fs), (1.0, 1.0), (2.0, 2.0),
                                      eps=0.5, child_budget=0.25, c0=1.0)
        assert len(rep.nodes) > 1
        root = weakref.ref(rep.nodes[0])
        del rep
        assert root() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("periodic", [False, True])
def test_stopping_children_lie_inside_the_domain(periodic):
    """Every selected child has side^d cells, the measure the calibration
    loop counts instead of building each child's cell array, and the
    nodes' child measures add up to the cells of all non-root cubes."""
    ps, rs = (1.0, 1.0), (2.0, 2.0)
    kids = 0
    for d, levels, seed in ((1, 8, 1), (2, 4, 2)):
        spec = GridSpec(d, levels, periodic)
        for fs in generate_corpus("mixed", seed, 4, spec, n_slots=2,
                                  n_components=2):
            for variant, eps in ((1, 0.5), (2, None)):
                rep = build_sparse_collection(list(fs), ps, rs, eps=eps,
                                              variant=variant,
                                              child_budget=0.25, c0=1.0)
                below_root = rep.collection.cubes[1:]
                for kid in below_root:
                    assert kid.side ** d == len(cube_cells(spec, kid))
                assert sum(n.child_measure for n in rep.nodes) == sum(
                    len(cube_cells(spec, kid)) for kid in below_root)
                kids += len(below_root)
    assert kids > 0


@pytest.mark.parametrize("periodic", [False, True])
def test_construction_lhs_is_the_full_maximal_integral(periodic):
    """lhs is formed from the root's localized maximal functions, which are
    the full ones: it keeps the bits of the Hoelder majorant's integral
    (variant 1) and of the form's maximal integral (variant 2)."""
    ps, rs = (1.0, 1.0), (2.0, 2.0)
    for d, levels in ((1, 6), (2, 3)):
        spec = GridSpec(d, levels, periodic)
        for fs in generate_corpus("mixed", 5, 3, spec, n_slots=2,
                                  n_components=2):
            fs = list(fs)
            dominator = float(np.sum(
                holder_dominator(fs, ps, rs).values[:, 0]))
            integral = integral_of_form(fs, ps, r=holder_aggregate(rs))
            for knobs in ({}, {"c0": 1.0, "child_budget": 0.25}):
                v1 = build_sparse_collection(fs, ps, rs, eps=0.5, variant=1,
                                             **knobs)
                v2 = build_sparse_collection(fs, ps, rs, variant=2, **knobs)
                assert v1.lhs == dominator
                assert v2.lhs == integral


def test_constructor_validation():
    spec = GridSpec(1, 4, periodic=True)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(ValueError):
        build_sparse_collection([f, f], (1.0, 1.0), (2.0, 2.0), variant=1)
    with pytest.raises(ValueError):
        build_sparse_collection([f, f], (1.0, 1.0), (2.0, 2.0), eps=0.5,
                                variant=1, child_budget=0.6)
    with pytest.raises(ValueError):
        build_sparse_collection([f, f], (2.0, 2.0), (2.0, 2.0), eps=0.5,
                                variant=1)


def test_zero_input_short_circuits():
    spec = GridSpec(1, 4, periodic=True)
    z = GridFunction.constant(spec, 0.0)
    rep = build_sparse_collection([z, z], (1.0, 1.0), (2.0, 2.0), variant=2)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert len(rep.collection) == 1


def test_domination_holds_on_constructions():
    """lhs (integral of the dominating maximal form) >= nothing is asserted
    here; what must hold exactly is the factor-2 lower direction for the
    built collection, and that the recorded rhs has the bits of sparse_form
    and of the lower-direction check over the built collection.  Default
    builds are the root alone, so relaxed builds run too, and spiky inputs
    make them recurse."""
    spec = GridSpec(1, 6, periodic=True)
    rng, spikes = np.random.default_rng(16), np.random.default_rng(161)
    recursed = False
    for _ in range(3):
        for fs in (random_inputs(spec, 2, 2, rng),
                   spiky_inputs(spec, 2, spikes)):
            for variant, eps in ((1, 0.5), (2, None)):
                for knobs in ({}, {"c0": 1.0, "child_budget": 0.25}):
                    rep = build_sparse_collection(
                        fs, (1.0, 1.0), (2.0, 2.0), eps=eps, variant=variant,
                        **knobs)
                    exps = [1.5, 1.5] if variant == 1 else [1.0, 1.0]
                    check = lower_direction_check(rep.collection, fs, exps,
                                                  rs=(2.0, 2.0))
                    assert check["holds"]
                    assert rep.rhs == check["sparse_form"] == sparse_form(
                        spec, rep.collection.cubes, fs, exps, rs=(2.0, 2.0))
                    recursed |= len(rep.collection) > 1
    assert recursed


def test_lower_direction_on_adversarial_collections():
    """The factor-2 bound is structural: it holds for every feasible
    collection, not only constructed ones.  Ten draws from one stream, then
    draws from a second until 25 families were sparse."""
    spec = GridSpec(1, 4, periodic=True)

    def check_draw(rng):
        fs = random_inputs(spec, 2, 1, rng)
        cubes = [c for c in enumerate_cubes(spec, shifts="canonical")
                 if rng.random() < 0.4]
        verdict = verify_sparsity(spec, cubes)
        if verdict:
            check = lower_direction_check(verdict.collection, fs, (1.0, 2.0))
            assert check["holds"]
            assert check["ratio"] <= 2.0 * (1 + 1e-9)
        return bool(verdict)

    rng = np.random.default_rng(17)
    for _ in range(10):
        check_draw(rng)
    rng, checked = np.random.default_rng(3003), 0
    while checked < 25:
        checked += check_draw(rng)
