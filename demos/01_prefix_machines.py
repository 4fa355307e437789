"""Bounded request sets and the machine-existence builder.

Every description schedule in the lab is realized as an actual prefix-free
machine by leftmost-fit allocation of dyadic intervals, so Kraft budgets and
prefix-freeness can be audited exhaustively.
"""

from itertools import accumulate

from costlab.machine import (
    baseline_provider,
    check_prefix_free,
    kc_machine,
    register_requests,
    request_set,
)
from costlab.util import pow2

print("== building a bounded request set ==")
rs = request_set([(r, 100 + r, r) for r in range(1, 6)])
prefix_weights = accumulate(pow2(r) for r, _y, _stage in rs.entries)
for (r, y, _stage), weight in zip(rs.entries, prefix_weights):
    print(f"  requested a length-{r} description of {y}; weight now {weight}")
print(f"  the set's weight: {rs.weight}")

machine = kc_machine(rs, 0)
print("\n== the realized machine ==")
for sigma, y in machine.descriptions:
    print(f"  {sigma!r:>8} -> {y}")
print(f"  kraft sum {machine.kraft_sum()}, prefix conflicts: {check_prefix_free(machine.domain())}")

print("\n== the baseline provider ==")
p = baseline_provider(2**11 + 2)
print(f"  domain measure at the horizon: {p.omega(p.horizon)} (= {float(p.omega(p.horizon)):.5f})")
print(f"  every w beyond the stage is undescribed: K_5(9) = {p.k(9, 5)}")
print(f"  main schedule: K(1024) via 2*floor(log2(1026)) + 3 = {p.k(1024, 1026)}")
print(f"  after the power-of-two shortcut at stage 2^11: K(1024) = {p.k(1024, 2**11 + 1)}")

print("\n== registering extra requests with a coding constant ==")
extra = request_set([(4, 99, 100)])
q = register_requests(p, extra, d=2)
print(f"  K(99) at stage 100: {q.k(99, 100)}; from stage 101 on: {q.k(99, 101)} (= 4 + 2)")
print(f"  omega jumps by exactly {q.omega(101) - p.omega(101)} (= 2^-6)")
