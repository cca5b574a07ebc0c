"""Independent checks of each workload's outputs.

Nothing here compares against a stored copy of earlier output.  Each check
recomputes a result by a separate route written for the benchmark (direct
index sums, cube loops, block reshapes, explicit cell sets) or tests a
property the method must have.  Every check returns a list of problems;
an empty list means the outputs are correct.  Checks run after the timed
interval.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from sparsedom import harness, operators, weights
from sparsedom.lattice import GridSpec

REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# dyadic geometry, written from the lattice definition


def _axis_offset(level: int, digit: int) -> int:
    """Shift of one axis: 0, or +-((-2)^level - 1)/3 for the one-third shifts."""
    if digit == 0:
        return 0
    t = ((-2) ** level - 1) // 3
    return t if digit == 1 else -t


def cube_cell_set(d: int, levels: int, periodic: bool, level: int,
                  corner) -> np.ndarray:
    """Flat cell indices of a cube (wrapped or clipped), sorted."""
    n = 1 << levels
    side = 1 << level
    axes = []
    for c in corner:
        if periodic:
            axes.append(np.unique((c + np.arange(min(side, n))) % n))
        else:
            axes.append(np.arange(max(c, 0), min(c + side, n)))
    if any(len(a) == 0 for a in axes):
        return np.empty(0, dtype=np.int64)
    flat = axes[0]
    for a in axes[1:]:
        flat = (flat[:, None] * n + a[None, :]).ravel()
    return np.sort(flat.astype(np.int64))


def all_cubes(d: int, levels: int, periodic: bool, shifts: str):
    """Cell sets of every cube of the canonical or of all 3^d lattices."""
    n = 1 << levels
    digit_sets = [(0,)] * d if shifts == "canonical" else [(0, 1, 2)] * d
    for digits in itertools.product(*digit_sets):
        for level in range(levels + 1):
            side = 1 << level
            axis_corners = []
            for digit in digits:
                o = _axis_offset(level, digit)
                if periodic:
                    axis_corners.append([(o + k * side) % n
                                         for k in range(max(n // side, 1))])
                else:
                    lo = -((o + side - 1) // side)
                    hi = (n - 1 - o) // side
                    axis_corners.append([o + k * side
                                         for k in range(lo, hi + 1)])
            for corner in itertools.product(*axis_corners):
                cells = cube_cell_set(d, levels, periodic, level, corner)
                if len(cells):
                    yield cells


def power_mean(values: np.ndarray, p: float) -> float:
    return float(np.mean(values ** p)) ** (1.0 / p)


def cube_loop_maximal(profiles, exps, d, levels, periodic,
                      shifts="all") -> np.ndarray:
    """M(x) = max over cubes Q containing x of prod_j <g_j>_{e_j,Q}."""
    out = np.zeros(len(profiles[0]))
    for cells in all_cubes(d, levels, periodic, shifts):
        value = 1.0
        for g, e in zip(profiles, exps):
            value *= power_mean(g[cells], e)
        out[cells] = np.maximum(out[cells], value)
    return out


def major_set_problems(d, levels, periodic, cubes, majors,
                       budget=None) -> list:
    """Each major set inside its cube, more than half of it, pairwise disjoint."""
    problems = []
    owner = np.zeros(1 << (d * levels), dtype=np.int64)
    for i, (cube, major) in enumerate(zip(cubes, majors)):
        cells = cube_cell_set(d, levels, periodic, cube.level, cube.corner)
        major = np.asarray(major, dtype=np.int64)
        if len(np.unique(major)) != len(major):
            problems.append(f"major set {i} repeats a cell")
        if not np.all(np.isin(major, cells)):
            problems.append(f"major set {i} leaves its cube")
        if not 2 * len(major) > len(cells):
            problems.append(f"major set {i}: |E| = {len(major)} is not more "
                            f"than half of |Q| = {len(cells)}")
        if budget is not None and len(cells) - len(major) > budget * len(cells):
            problems.append(f"cube {i}: stopping children cover "
                            f"{len(cells) - len(major)} of {len(cells)} cells")
        owner[np.unique(major)] += 1
    if np.any(owner > 1):
        problems.append(f"{int(np.sum(owner > 1))} cells lie in two major sets")
    return problems


def _spec_tuple(spec) -> tuple:
    return spec.d, spec.levels, spec.periodic


# ---------------------------------------------------------------------------
# singular


def bht_coefficients(truncation: int, variant: str) -> np.ndarray:
    t = np.arange(1, truncation + 1, dtype=np.float64)
    if variant == "sign":
        return 1.0 / t
    u = t / (truncation + 1.0)
    return np.exp(-u * u / (1.0 - u * u)) / t


def singular_sum(f: np.ndarray, g: np.ndarray, coef: np.ndarray,
                 chunk: int = 128) -> np.ndarray:
    """T(f,g)(x) = sum_t c(t) (f(x+t) g(x-t) - f(x-t) g(x+t)) by direct indexing."""
    n = len(f)
    x = np.arange(n)
    out = np.zeros(n)
    for start in range(0, len(coef), chunk):
        t = np.arange(start + 1, min(start + chunk, len(coef)) + 1)
        plus = (x[None, :] + t[:, None]) % n
        minus = (x[None, :] - t[:, None]) % n
        out += coef[t - 1] @ (f[plus] * g[minus] - f[minus] * g[plus])
    return out


def power_weight(d: int, levels: int, a: float, center) -> np.ndarray:
    """(|x - center| + 1/2)^a at cell centres; center 'center' or 'edge'."""
    n = 1 << levels
    axes = np.meshgrid(*[np.arange(n) + 0.5] * d, indexing="ij")
    point = n / 2.0 if center == "center" else 0.0
    dist = np.sqrt(sum((ax.ravel() - point) ** 2 for ax in axes))
    return (dist + 0.5) ** a


def _mixed_norm(values: np.ndarray, q: float, r: float, w: np.ndarray) -> float:
    rows = np.sum(np.abs(values) ** r, axis=1) ** (1.0 / r)
    return float(np.sum(w * rows ** q)) ** (1.0 / q)


def singular_quotients(w) -> dict:
    """Sup of the weighted quotient per (weight, K), computed independently."""
    q = 1.0 / sum(1.0 / x for x in w.QS)
    r = 1.0 / sum(1.0 / x for x in w.RS[:2])
    out = {}
    samples = []
    for a in w.PANEL:
        for k in w.LEVELS:
            spec = GridSpec(1, k, True)
            weight = weights.make_power_weight(spec, a, "center")
            mine = power_weight(1, k, a, "center")
            if not np.allclose(weight.values, mine, rtol=1e-12, atol=0.0):
                samples.append(f"power weight a={a:g} K={k} differs")
            corpus = harness.generate_corpus("sided-inverse", w.corpus_seed,
                                             w.PAIRS, spec, n_components=2,
                                             weight=weight)
            trunc = spec.side // 4
            coefs = [bht_coefficients(trunc, v) for v in ("sign", "smooth")]
            best = 0.0
            for f, g in corpus:
                norms = [_mixed_norm(x.values, qj, rj, mine)
                         for x, qj, rj in zip((f, g), w.QS, w.RS)]
                if min(norms) == 0.0:
                    continue
                out_k = np.column_stack([
                    singular_sum(f.values[:, k_], g.values[:, k_], c)
                    for k_, c in enumerate(coefs)])
                best = max(best, _mixed_norm(out_k, q, r, mine)
                           / (norms[0] * norms[1]))
            out[(f"a={a:g}", k)] = best
    return out, samples


def singular_kernel_problems(w) -> list:
    """Program kernel against direct indexing, and T(f,g) = -T(g,f), per K."""
    problems = []
    for k in w.LEVELS:
        spec = GridSpec(1, k, True)
        weight = weights.make_power_weight(spec, w.PANEL[0], "center")
        f, g = harness.generate_corpus("sided-inverse", w.corpus_seed, 1,
                                       spec, n_components=2, weight=weight)[0]
        trunc = spec.side // 4
        for comp, variant in enumerate(("sign", "smooth")):
            op = operators.discrete_bht(spec, trunc, variant)
            fc, gc = f.component(comp), g.component(comp)
            got = op.output([fc, gc])
            ref = singular_sum(fc.values[:, 0], gc.values[:, 0],
                               bht_coefficients(trunc, variant))
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            if float(np.max(np.abs(got - ref))) > REL * scale:
                problems.append(f"{variant} kernel at K={k} differs from "
                                "the direct sum")
            swapped = op.output([gc, fc])
            if float(np.max(np.abs(got + swapped))) > 1e-12 * scale:
                problems.append(f"{variant} kernel at K={k} is not "
                                "antisymmetric")
    return problems


def _stable(sups) -> bool:
    return min(sups) > 0 and max(sups) <= 2.0 * min(sups)


def check_singular(w, outputs) -> list:
    """The quotient table recomputed, and the verdicts it implies.

    With two pairs per weight the sup quotients depend on which pairs the
    corpus seed draws, and on some seeds `good-weights-stable` or
    `bad-weight-grows` fails.  So the verdicts are checked for agreement
    with the recomputed quotients, not required to pass.
    """
    res = outputs[0]
    problems = []
    table = res["tables"].get("weighted_quotients", [])
    reported = {(row[0], int(row[1])): float(row[2]) for row in table[1:]}
    mine, weight_problems = singular_quotients(w)
    problems += weight_problems
    if set(reported) != set(mine):
        problems.append("weighted_quotients rows do not cover the panel")
    for key, value in sorted(mine.items()):
        if key in reported and not _close(reported[key], value):
            problems.append(f"sup quotient {key}: reported {reported[key]!r}, "
                            f"direct {value!r}")

    panel = {row[0]: row for row in res["tables"].get("weighted_panel",
                                                      [])[1:]}
    good, grows = [], None
    for a in w.PANEL:
        wid = f"a={a:g}"
        sups = [mine[(wid, k)] for k in w.LEVELS]
        row = panel.get(wid, [wid, "", "", "", ""])
        if a == w.BAD:
            monotone = all(y > x for x, y in zip(sups, sups[1:]))
            breaches = min(sups) > 0 and max(sups) > 2.0 * min(sups)
            grows = monotone and breaches
            expect = ["out-of-class", str(monotone), str(breaches)]
            got = [row[1], row[3], row[4]]
            if got != expect:
                problems.append(f"panel row {wid}: {got}, quotients give "
                                f"{expect}")
        elif row[1] == "in-class":
            good.append(_stable(sups))
            if row[3] != str(good[-1]):
                problems.append(f"panel row {wid}: stable {row[3]}, "
                                f"quotients give {good[-1]}")
        elif a == 0.0:
            problems.append("the constant weight is not classified in-class")
    rows = {r["id"]: r for r in res["report"]["rows"]}
    verdicts = {"good-weights-stable": bool(good) and all(good),
                "bad-weight-grows": bool(grows)}
    for rid, expect in verdicts.items():
        if rows.get(rid, {}).get("pass") is not expect:
            problems.append(f"asserted row {rid}: pass is "
                            f"{rows.get(rid, {}).get('pass')}, the "
                            f"recomputed quotients give {expect}")
    if res["exit_code"] != (0 if all(verdicts.values()) else 1):
        problems.append(f"exit code {res['exit_code']} does not match the "
                        "verdicts")
    return problems + singular_kernel_problems(w)


# ---------------------------------------------------------------------------
# stopping


def _profiles(inputs, rs):
    return [np.sum(np.abs(f.values) ** r, axis=1) ** (1.0 / r)
            for f, r in zip(inputs, rs)]


def sparse_form(profiles, exps, d, levels, periodic, cubes) -> float:
    total = 0.0
    for cube in cubes:
        cells = cube_cell_set(d, levels, periodic, cube.level, cube.corner)
        term = float(len(cells))
        for g, e in zip(profiles, exps):
            term *= power_mean(g[cells], e)
        total += term
    return total


def check_stopping(w, outputs) -> list:
    problems = []
    deepest = {}
    for i, out in enumerate(outputs):
        built, variant = out["built"], out["variant"]
        coll = built.collection
        d, levels, periodic = _spec_tuple(coll.spec)
        tag = f"trial {i} (d={d}, K={levels}, variant {variant})"
        problems += [f"{tag}: {p}" for p in major_set_problems(
            d, levels, periodic, coll.cubes, coll.major_sets, w.BUDGET)]
        exps = w.form_exponents(variant)
        profiles = _profiles(out["inputs"], w.RS)
        form = sparse_form(profiles, exps, d, levels, periodic, coll.cubes)
        integral = float(np.sum(cube_loop_maximal(profiles, exps, d, levels,
                                                  periodic)))
        if not form <= 2.0 * integral * (1.0 + REL):
            problems.append(f"{tag}: sparse form {form} exceeds twice the "
                            f"maximal integral {integral}")
        lower = out["lower"]
        if not lower["holds"]:
            problems.append(f"{tag}: lower_direction_check reports failure")
        if not _close(lower["sparse_form"], form):
            problems.append(f"{tag}: sparse form {lower['sparse_form']!r} vs "
                            f"direct {form!r}")
        if not _close(lower["integral"], integral):
            problems.append(f"{tag}: maximal integral {lower['integral']!r} "
                            f"vs cube loop {integral!r}")
        bound2 = (64.0 / 3.0) ** d
        bound3 = 96.0 ** (d * sum(1.0 / p for p in w.PS))
        for node in built.nodes:
            if node.off_exceptional_ratio > 1.0 + REL:
                problems.append(f"{tag}: stopping property 1 fails")
            if variant == 1 and node.child_average_ratio > bound2:
                problems.append(f"{tag}: stopping property 2 fails")
            if node.child_truncated_ratio > bound3:
                problems.append(f"{tag}: stopping property 3 fails")
        key = (d, levels)
        deepest[key] = max(deepest.get(key, 0), built.depth)
    for key, depth in sorted(deepest.items()):
        if depth <= 1:
            problems.append(f"grid d={key[0]} K={key[1]}: no recursion "
                            "(depth 1 in both variants)")
    return problems


# ---------------------------------------------------------------------------
# feasibility


def check_feasibility(w, outputs) -> list:
    problems = []
    verdicts = set()
    for i, out in enumerate(outputs):
        if out["kind"] == "greedy":
            coll = out["collection"]
            d, levels, periodic = _spec_tuple(coll.spec)
            tag = f"greedy {i} (d={d}, K={levels}, periodic={periodic})"
            problems += [f"{tag}: {p}" for p in major_set_problems(
                d, levels, periodic, coll.cubes, coll.major_sets)]
            profiles = [np.abs(f.values[:, 0]) for f in out["inputs"]]
            direct = sparse_form(profiles, w.PS, d, levels, periodic,
                                 coll.cubes)
            if not coll.cubes or not _close(out["value"], direct):
                problems.append(f"{tag}: value {out['value']!r} vs its "
                                f"cubes' weights {direct!r}")
            integral = float(np.sum(cube_loop_maximal(
                profiles, w.PS, d, levels, periodic)))
            if not out["value"] <= 2.0 * integral * (1.0 + REL):
                problems.append(f"{tag}: value exceeds twice the maximal "
                                "integral")
            continue
        d, levels, periodic = _spec_tuple(out["spec"])
        cubes, verdict = out["cubes"], out["verdict"]
        tag = f"family {i} (d={d}, K={levels}, {len(cubes)} cubes)"
        verdicts.add(bool(verdict.feasible))
        if verdict.feasible:
            coll = verdict.collection
            if coll is None or list(coll.cubes) != list(cubes):
                problems.append(f"{tag}: feasible without its own collection")
                continue
            problems += [f"{tag}: {p}" for p in major_set_problems(
                d, levels, periodic, coll.cubes, coll.major_sets)]
            continue
        bad = list(verdict.violating or [])
        if not bad or not all(0 <= j < len(cubes) for j in bad):
            problems.append(f"{tag}: infeasible without a subfamily")
            continue
        sets = [cube_cell_set(d, levels, periodic, cubes[j].level,
                              cubes[j].corner) for j in bad]
        union = len(np.unique(np.concatenate(sets)))
        demand = sum(len(s) // 2 + 1 for s in sets)
        if not union < demand:
            problems.append(f"{tag}: violating subfamily covers {union} "
                            f"cells for a demand of {demand}")
    if verdicts and verdicts != {True, False}:
        problems.append("the families were all decided the same way")
    return problems


# ---------------------------------------------------------------------------
# characteristics


def block_means(w: np.ndarray, p: float, d: int, levels: int,
                level: int) -> np.ndarray:
    """Power means over the canonical cubes of one level, by block reshape."""
    n, s = 1 << levels, 1 << level
    shape = (n // s, s) if d == 1 else (n // s, s, n // s, s)
    axes = (1,) if d == 1 else (1, 3)
    return np.mean((w ** p).reshape(shape), axis=axes).ravel() ** (1.0 / p)


# Every class of the weights experiment is sup_Q <w>_p / <w>_s; the products
# with an inverse weight are ratios too, since <1/w>_t = 1 / <w>_{-t}.
CLASSES = {
    "multilinear^q": (2.0, -2.0),   # <w>_2 <1/w>_2 (q = 2, t = (4/3, 4/3))
    "bilinear": (1.0, -2.0),        # <w>_1 <1/w>_2 (q = 1, t = (4/3, 4/3, 1))
    "A_3/2": (1.0, -2.0),
    "RH_2": (2.0, 1.0),
    "RC(-2,2/5)": (0.4, -2.0),
    "A_3": (1.0, -0.5),
}


def characteristic(w: np.ndarray, name: str, d: int, levels: int) -> float:
    """sup over canonical cubes of <w>_p / <w>_s for the named class."""
    p, s = CLASSES[name]
    return max(float(np.max(block_means(w, p, d, levels, level)
                            / block_means(w, s, d, levels, level)))
               for level in range(levels + 1))


def check_characteristics(w, outputs) -> list:
    problems = []
    for (d, levels), res in zip(w.GRIDS, outputs):
        tag = f"weights d={d}"
        if res["exit_code"] != 0:
            problems.append(f"{tag}: exit code {res['exit_code']}")
        rows = {r["id"]: r for r in res["report"]["rows"]}
        if not rows.get("finiteness-agreement", {}).get("pass"):
            problems.append(f"{tag}: finiteness-agreement does not pass")
        table = res["tables"].get("characteristics", [])
        seen = set()
        k0 = min(levels)
        for row in table[1:]:
            wid, cls, vals = row[0], row[2], [float(x) for x in row[4:]]
            seen.add((wid, cls))
            if len(vals) != len(levels) or min(vals) < 1.0 - 1e-12:
                problems.append(f"{tag} {wid} {cls}: value below 1")
            a_text, center = wid[2:].split("@")
            a = float(a_text)
            if a == 0.0 and max(abs(v - 1.0) for v in vals) > 1e-12:
                problems.append(f"{tag} {wid} {cls}: constant weight gives "
                                f"{vals}, not 1")
            mine = characteristic(power_weight(d, k0, a, center), cls, d, k0)
            if not _close(vals[0], mine):
                problems.append(f"{tag} {wid} {cls} K={k0}: {vals[0]!r} vs "
                                f"cube loop {mine!r}")
        expected = {(f"a={a:g}@{c}", cls) for a in w.panel
                    for c in w.CENTERS for cls in CLASSES}
        if seen != expected:
            problems.append(f"{tag}: table rows do not match the panel")
    return problems


CHECKS = {
    "singular": check_singular,
    "stopping": check_stopping,
    "feasibility": check_feasibility,
    "characteristics": check_characteristics,
}


# ---------------------------------------------------------------------------
# round digests: every round must reproduce the first bit for bit


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True, default=repr).encode())


def _collection_parts(coll):
    if coll is None:
        return [None]
    return [[(c.shift, c.level, list(c.corner)) for c in coll.cubes]] + \
        list(coll.major_sets)


def digest(workload: str, outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        if workload in ("singular", "characteristics"):
            parts = [out["exit_code"], out["report"], out["tables"]]
        elif workload == "stopping":
            b = out["built"]
            parts = [b.lhs, b.rhs, out["lower"]] + \
                _collection_parts(b.collection)
        elif out["kind"] == "greedy":
            parts = [out["value"]] + _collection_parts(out["collection"])
        else:
            v = out["verdict"]
            parts = [bool(v.feasible), v.violating] + \
                _collection_parts(v.collection)
        for part in parts:
            _feed(h, part)
    return h.hexdigest()
