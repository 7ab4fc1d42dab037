"""Radical powers and the nilpotency bound on lengths.

For these algebras every element is a scalar plus a nilpotent part: the
radical J, the set of nilpotent elements, has codimension 1.  If N is the
first vanishing radical power, no generating system can have length
beyond N - 1.  The witness systems reach exactly that bound.
"""

from subalg import (
    QQ,
    BkmParams,
    algebra_closure,
    bound_check,
    build_bkm,
    radical_power_dims,
    radical_span,
    sample_generating_systems,
    witness_system_bkm,
)

params = BkmParams(n=8, m=1, k=2)
full = build_bkm(params, QQ)
closure = algebra_closure(full)
radical = radical_power_dims(radical_span(closure))

print(f"algebra dimension: {closure.dim}")
print(f"radical power dims: {radical}")
print(f"nilpotency index N = {len(radical)}, so lengths stay <= {len(radical) - 1}")

report = bound_check(witness_system_bkm(params, QQ))
print(f"\nwitness system: length {report.length}, bound holds: {report.bound_holds}")

print("\ntwenty sampled generating systems of the same algebra:")
# Each sample comes with the report of its span chain.
samples = sample_generating_systems(closure, 20, seed=42)
lengths = [report.length for _, report in samples]
print(f"  lengths: {sorted(lengths)}")
print(f"  all within the bound: {all(v <= len(radical) - 1 for v in lengths)}")
