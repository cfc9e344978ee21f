"""Generalized stabilizers of a cubic form and their germinal axioms.

The level-n stabilizer set of a form collects the group elements that
move it invisibly on the first n coordinates.  These sets are not
subgroups, but they nest, contain the identity, and satisfy an
approximate product law; the suite samples all three.  For the
monomial x1 x2 x3 the finite symmetries (coordinate permutations,
torus elements with product one) show up as genuine members at every
level, while a generic cubic rejects everything that touches the
window.
"""

import random
from fractions import Fraction

from sigmabrauer import (
    GLElement,
    germinal_axiom_suite,
    in_gamma,
    parse_tuple,
    permutation_element,
    random_block_fixing,
    random_form,
)
from sigmabrauer.modcat import monomial_cubic_form

sig3 = parse_tuple("3")

print("== monomial form x1 x2 x3 at rank 4 ==")
mono = monomial_cubic_form(4)
cyc = permutation_element({1: 2, 2: 3, 3: 1})
torus = GLElement([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])
shear = GLElement([[1, 1], [0, 1]])
for name, g in [("3-cycle", cyc), ("diag(2,3,1/6)", torus), ("shear", shear)]:
    verdicts = [in_gamma(mono, lvl, g) for lvl in range(1, 5)]
    print(f"  {name:13s} member at levels 1..4: {verdicts}")

print("\n== generic cubic at rank 5: only window-avoiding elements remain ==")
form = random_form(sig3, 5, seed=77)
rng = random.Random(1)
g_fix = random_block_fixing(3, 5, rng)
print("  element fixing the first 3 coordinates, level 3:",
      in_gamma(form, 3, g_fix))
print("  coordinate swap (1 2), level 2:",
      in_gamma(form, 2, permutation_element({1: 2, 2: 1})))

print("\n== germinal axiom suite (identity / nesting / product law) ==")
for r in germinal_axiom_suite(form, [1, 2, 3, 4, 5], samples=30, seed=5):
    print(f"  axiom {r['axiom']}: {r['passes']}/{r['samples']} passed, "
          f"{len(r['failures'])} failures")
