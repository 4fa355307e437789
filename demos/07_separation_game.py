"""The sum-versus-max separation game, bounded and audited.

The builder buys cost beyond its last sequence element and waits for a
single description to dominate the whole sum by the factor 2^b.  A greedy
opponent can play along while the unit measure lasts — but only when b >= 1:
at b = 0 the response asks a sum to fit under one of its own terms, which
dies as soon as two requests are outstanding.  The claim ledger verifies the
doubling inequality on every completed pair.
"""

from costlab.constructions import separation_run
from costlab.machine import baseline_provider

p = baseline_provider(2048)

print("== b = 1: the game runs until the measure is spent ==")
out = separation_run(1, p, 1, 50_000)
print(f"  k = 2^(b+d+1) = {out.k}; full contradiction needs 2^k = {out.declared_model_size} elements (not attempted)")
print(f"  completed {len(out.sequence)} elements in {out.stages_used} stages; status {out.status}")
print(f"  opponent granted {len(out.grants)} descriptions")
print(f"  claim inequality on all {len(out.claim_checks)} completed pairs (r <= 2): {out.claim_ok}")
for pi, r, lhs, rhs in out.claim_checks[:5]:
    print(f"    p={pi} r={r}: {float(lhs):.6f} >= {float(rhs):.6f}")

print("\n== b = 0: the response condition is a sum bounded by its own term ==")
out0 = separation_run(0, p, 1, 50_000)
print(f"  status {out0.status} after {len(out0.sequence)} element(s)")

print("\n== no opponent: honest providers simply never respond ==")
honest = separation_run(1, p, 1, 5000, greedy=False)
print(f"  status {honest.status} with {len(honest.sequence)} element(s)")
