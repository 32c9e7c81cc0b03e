"""RNA folding: trading pair count against stacking stability with one knob.

The objective  rho*|pairs| + (1-rho)*stacking  interpolates between "as many
pairs as possible" (rho=1) and "only well-stacked helices" (rho=0).  Because
the best folding at each pair count is fixed, the whole sweep collapses to an
upper envelope with at most n/2 + 1 pieces.  ``rho_breakpoints`` finds it by
running the folding DP at O(pieces) values of rho; the per-size table printed
first comes from the separate size-indexed DP ``max_stack_by_size`` and shows
the lines the envelope is drawn from, including sizes that never win.
"""

from algotune.rnafold import (
    Folding,
    RnaSequence,
    StackScores,
    fold,
    max_stack_by_size,
    pair_utility,
    rho_breakpoints,
    utility_breakpoints,
)

s = RnaSequence("GGGAAAUCCCAUGCAU")
m = StackScores.watson_crick()

print("per-size best stacking scores:")
for k, stack in max_stack_by_size(s, m):
    print(f"  k={k}  stack={stack:.1f}")

for rho in (0.0, 0.35, 0.8, 1.0):
    phi, obj = fold(s, rho, m)
    print(f"rho={rho:<5} objective={obj:6.3f}  pairs={list(phi.pairs)}")

env = rho_breakpoints(s, m)
print(f"\nenvelope has {len(env.pieces)} pieces (cap {len(s) // 2 + 1}):")
for i, (slope, icept, k) in enumerate(env.pieces):
    lo, hi = env.piece_bounds(i)
    print(f"  [{lo:.4f}, {hi:.4f})  winning size k={k}")

# Against a ground-truth folding, utility is piecewise constant in rho.
truth, _ = fold(s, 0.6, m)
util = utility_breakpoints(s, m, truth)
print("\nfraction of truth pairs recovered, by rho piece:")
for i, (_, u, _) in enumerate(util.pieces):
    lo, hi = util.piece_bounds(i)
    print(f"  [{lo:.4f}, {hi:.4f})  utility={u:.3f}")

print("\npair_utility of an empty prediction:", pair_utility(Folding(), truth))
