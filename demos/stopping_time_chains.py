"""Walk through the stopping-time construction with a relaxed child budget.

At the default budget of 2^-16 the recursion stops immediately on desk-scale
grids (no union of dyadic children can be smaller than one cell), so every
collection is the single root cube.  Relaxing the budget exposes the actual
recursion: stopping cubes clustering around the spikes of the input, each
node reporting its calibrated threshold and property ratios.  The closing
lines say, from the relaxed build itself, how deep it went and where its
cubes lie relative to the spike at cell 0.

Run:  python3 demos/stopping_time_chains.py
"""

import numpy as np

from sparsedom import GridFunction, GridSpec, build_sparse_collection
from sparsedom.lattice import cube_cells

spec = GridSpec(1, 8, periodic=True)
rng = np.random.default_rng(2024)

# a flat profile with a heavy spike cluster near cell 0
values = rng.uniform(0.0, 0.1, size=(spec.ncells, 1))
for cell, height in ((0, 200.0), (1, 120.0), (3, 60.0), (7, 30.0)):
    values[cell, 0] = height
f = GridFunction(spec, values)

print("input: flat noise plus a spike cluster at cells 0, 1, 3, 7\n")

for budget, label in ((2.0 ** -16, "exact 2^-16 budget"),
                      (0.4, "relaxed budget 0.4")):
    report = build_sparse_collection([f, f], (1.0, 1.0), (2.0, 2.0),
                                     eps=0.5, variant=1,
                                     child_budget=budget, c0=1.0)
    print(f"--- {label} ---")
    steps = sum(node.n_children > 0 for node in report.nodes)
    print(f"cubes: {len(report.collection)}   recursion steps: {steps}   "
          f"theta_emp: {report.theta_emp:.3f}")
    for node in report.nodes[:8]:
        print(f"  corner={node.cube.corner[0]:>3}  side={node.cube.side:>3}  "
              f"C={node.threshold:<10g} "
              f"children={node.n_children}  "
              f"child measure={node.child_measure}/{node.size}  "
              f"off-set ratio={node.off_exceptional_ratio:.3f}")
    if len(report.nodes) > 8:
        print(f"  ... {len(report.nodes) - 8} more nodes")
    report.collection.validate()
    print("collection passes the exact sparsity check\n")

# report and steps are those of the relaxed build, the loop's last
below = [cube_cells(spec, c) for c in report.collection.cubes[1:]]
holding = sum(0 in cells for cells in below)
reach = max(int(np.minimum(cells, spec.ncells - cells).min())
            for cells in below)
print(f"the relaxed build makes {steps} recursion step(s): its {len(below)} "
      f"cubes below the root lie within {reach} cells of the spike")
print(f"at cell 0 on the torus, and cell 0 lies in {holding} of them.")
