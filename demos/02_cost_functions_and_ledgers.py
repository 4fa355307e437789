"""A tour of the cost-function catalog and exact total-cost ledgers.

A cost function prices the change of a position at a stage; a trace pays,
per stage, the price of its least changed position.  Everything below is an
exact rational and can be replayed from the ledger.
"""

from fractions import Fraction

from costlab.catalog import (
    LeftCEReal,
    additive_from_real,
    cost_k,
    cost_max,
    cost_omega,
    real_from_additive,
)
from costlab.core import ApproximationTrace, benign_witness, cost_of_trace, limit_estimate
from costlab.machine import baseline_provider
from costlab.transforms import trim
from costlab.util import pow2

p = baseline_provider(256)
ck, co, cm = cost_k(p), cost_omega(p), cost_max(p)

print("== the provider's three costs at (x, s) = (3, 200) ==")
print(f"  complexity-sum  {ck(3, 200)}")
print(f"  domain-measure  {co(3, 200)}")
print(f"  complexity-max  {cm(3, 200)}")
print(f"  max <= sum <= measure: {cm(3,200) <= ck(3,200) <= co(3,200)}")

print("\n== an additive cost is a left-c.e. real in disguise ==")
beta = LeftCEReal.of(tuple(1 - pow2(s) for s in range(17)))
c_beta = additive_from_real(beta)
print(f"  c(2, 9) = beta_9 - beta_2 = {c_beta(2, 9)}  (algebra: 2^-2 - 2^-9 = {pow2(2) - pow2(9)})")
print(f"  roundtrip recovers the sequence: {real_from_additive(c_beta).seq == beta.seq}")

print("\n== ledgers charge the least changed position per stage ==")
a = ApproximationTrace(16, [(6, 2, 1), (6, 5, 1), (9, 2, 0)])
ledger = cost_of_trace(c_beta, a)
for s, x, amount in ledger.charges:
    print(f"  stage {s}: position {x} charged {amount}")
print(f"  total {ledger.total}")

print("\n== cheapening an approximation below any epsilon ==")
for eps in (Fraction(1, 8), Fraction(1, 1024)):
    t = trim(a, c_beta, eps)
    print(
        f"  eps = {eps}: total {cost_of_trace(c_beta, t).total}, "
        f"same final set: {t.final_set() == a.final_set()}"
    )

print("\n== limit estimates and benignity chains ==")
print(f"  complexity-sum limit at 10 (horizon proxy): {limit_estimate(ck, 10)}")
chain = benign_witness(ck, 6, 256)
print(f"  greedy chain at level 2^-6: length {chain.k} (bound 2^6 = 64): {chain.chain}")
