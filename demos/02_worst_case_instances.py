#!/usr/bin/env python3
"""Adversarial two-slot instances and the ratios they force.

Each construction makes one policy look as bad as it can: first-fit is
baited into burning expensive brown power when waiting was free, best-fit
is baited into hogging the good slot so a later job dies, and the coin
policy splits the difference.
"""

from greensched.adversary import expected_ratio, measure_ratio, standard_suite

print(
    f"{'construction':<22} {'policy':<6} {'formula':>9} {'exact':>9} "
    f"{'measured':>9} {'stderr':>8}"
)
for inst in standard_suite():
    trials = 30000 if inst.target.randomized else 1
    m = measure_ratio(inst, trials=trials, base_seed=1)
    print(
        f"{inst.name:<22} {inst.target.kind:<6} {inst.formula_ratio:>9.5f} "
        f"{expected_ratio(inst):>9.5f} {m.ratio:>9.5f} {m.stderr:>8.2g}"
    )

# walk through the first-fit trap by hand
inst = [i for i in standard_suite() if i.name == "ff_green_next"][0]
print()
print("ff_green_next mechanics:")
print(f"  both slots on-peak, green arrives only in slot 1 "
      f"({inst.green.supply.tolist()} nodes)")
print(f"  one cluster-wide job released at 0 with a slot of slack")
m = measure_ratio(inst, trials=1)
print(f"  first-fit runs it at slot 0 and nets {m.mean_alg_profit:.4f}")
print(f"  hindsight waits one slot and nets {m.opt_profit:.4f}")
print(f"  ratio {m.ratio:.4f} = the v_g/v_on lower bound")
