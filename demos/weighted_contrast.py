"""In-class versus out-of-class weights for the singular model.

For the bilinear singular sum with component weights v_1 = v_2 = (dist+1/2)^a
the corner hypotheses ask for v_j in A_{3/2} and the geometric-mean weight in
A_{3/2} and RH_2; in one dimension that means a in (-1, 1/2).  This script
runs the weighted experiment on a smaller scale (K = 6, 8, 10, 60 adapted
input pairs) and prints its two tables: in-class exponents keep the supremum
quotient flat across grid refinements while a = 1.5 climbs with each.

Run:  python3 demos/weighted_contrast.py   (about 1 s on a 2-core x86 box)
"""

from sparsedom import ExperimentConfig
from sparsedom.harness import run_weighted

cfg = ExperimentConfig.from_dict({
    "kind": "weighted",
    "grid": {"d": 1, "levels": 6, "periodic": True},
    "corpus": {"kind": "sided-inverse", "size": 60, "seed": 8},
    "params": {"levels": [6, 8, 10], "qs": [2.0, 2.0], "rs": [4.0, 4.0],
               "bad_exponent": 1.5, "panel": [-0.5, 0.0, 0.4, 1.5],
               "center": "center"},
})
report = run_weighted(cfg)


def cell(v):
    return "" if v is None else f"{v:.4g}" if isinstance(v, float) else str(v)


for name in ("weighted_quotients", "weighted_panel"):
    header, rows = report.tables[name]
    print(f"{name}:")
    for row in [header] + rows:
        print("  " + "  ".join(f"{cell(v):>12}" for v in row))
    print()

print("only the out-of-class weight shows monotone growth of the supremum")
print("quotient; the hypotheses predict exactly which rows stay bounded.")
