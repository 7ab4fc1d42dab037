"""Walk the span chain of a generating system step by step.

The length of a system is the first step whose span of short products
already fills the generated algebra.  Dropping two handpicked unit
generators from the full system pushes the length up from 2 to k+1 = 3:
the dropped units only reappear as (k+1)-fold products of the chains.
"""

from subalg import (
    QQ,
    ConstructionParams,
    algebra_closure,
    build_bkml,
    length_of_system,
    li_chain,
    li_chain_spans,
    witness_system,
)

params = ConstructionParams(n=8, m=1, l=5, k=2)
full = build_bkml(params, QQ)
short = witness_system(params, QQ)
target = algebra_closure(full)

for name, system in (("full system", full), ("short system", short)):
    report = li_chain(system)
    print(f"{name}: members {system.labels}")
    for i, d in enumerate(report.dims):
        print(f"  dim L_{i} = {d}")
    print(f"  length against its own closure: {report.length}\n")

print(f"certified against the full algebra (dim {target.dim}):")
print(f"  length(full)  = {length_of_system(full, target)}")
print(f"  length(short) = {length_of_system(short, target)}")

spans = li_chain_spans(short)
b1 = dict(short.members)["B1"]
print("\nchain powers of B1 enter one step at a time:")
power = b1
for s in range(2, params.k + 2):
    power = power * b1
    before = spans[s - 1].contains_matrix(power)
    after = spans[s].contains_matrix(power)
    print(f"  B1^{s} in L_{s - 1}: {before}; in L_{s}: {after}")
