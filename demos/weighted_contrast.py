"""In-class versus out-of-class weights for the singular model.

For the bilinear singular sum with component weights v_1 = v_2 = (dist+1/2)^a
the corner hypotheses ask for v_j in A_{3/2} and the geometric-mean weight in
A_{3/2} and RH_2; in one dimension that means a in (-1, 1/2).  This script
evaluates the weighted vector-valued quotient on adapted input pairs across
grid refinements: in-class exponents stay flat while a = 1.5 climbs without
bound.  A fast, smaller-scale version of the weighted experiment.

Run:  python3 demos/weighted_contrast.py   (about 1 s on a 2-core x86 box)
"""

from sparsedom import GridSpec, OperatorFamily, discrete_bht, generate_corpus
from sparsedom.operators import bht_corner_hypotheses, weighted_bound_check
from sparsedom.weights import WeightVector, make_power_weight

qs, rs = (2.0, 2.0), (4.0, 4.0)
levels = (6, 8, 10)
hypotheses = bht_corner_hypotheses(q=1.0)


def family_at(k):
    spec = GridSpec(1, k, periodic=True)
    return OperatorFamily([discrete_bht(spec, spec.side // 4, "sign"),
                           discrete_bht(spec, spec.side // 4, "smooth")])


print(f"{'a':>6}  " + "  ".join(f"K={k:<2}" for k in levels)
      + "   hypothesis verdicts")
for a in (-0.5, 0.0, 0.4, 1.5):
    def wv_at(k, a=a):
        w = make_power_weight(GridSpec(1, k, periodic=True), a, "center")
        return WeightVector([w, w], qs)

    def corpus_at(k, a=a):
        spec = GridSpec(1, k, periodic=True)
        w = make_power_weight(spec, a, "center")
        return generate_corpus("sided-inverse", 8, 60, spec,
                               n_components=2, weight=w)

    check = weighted_bound_check(family_at, wv_at, corpus_at, qs, rs,
                                 hypotheses, levels=levels)
    sups = "  ".join(f"{s:4.2f}" for s in check["sup_quotients"])
    verdicts = {n: v.verdict for n, v in check["hypotheses"].items()}
    flat = "all finite" if all(v == "finite" for v in verdicts.values()) \
        else ", ".join(f"{n}: {v}" for n, v in verdicts.items()
                       if v != "finite")
    print(f"{a:>6g}  {sups}   {flat}")

print("\nonly the out-of-class weight shows monotone growth of the supremum")
print("quotient; the hypotheses predict exactly which rows stay bounded.")
