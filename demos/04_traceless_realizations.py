"""Traceless tensors at finite rank realize the simple objects.

A form turns every diagram into a concrete matrix on tensor powers of
k^N.  The joint kernel of the block contractions on n slots carries a
symmetric group action, and its isotypic pieces are finite-rank
shadows of the simple objects: for the symmetric pair type at N = 5
one recovers the classical traceless symmetric matrices (14), the full
alternating square (10), and the untouched alternating cube (10).
"""

from sigmabrauer import (
    Partition,
    dot_product_form,
    parse_tuple,
    random_form,
    simple_realization_dim,
    socle_check,
    theta_apply,
    traceless_space,
)
from sigmabrauer.brauer import Morphism, make_diagram

sig2 = parse_tuple("2")

print("== the dot product as a form, evaluated on a single pair diagram ==")
dp = dot_product_form(2)
cap = Morphism.from_diagram(sig2, make_diagram(sig2, 2, 0, (((1, 2), 0, 0),), ()))
mat = theta_apply(dp, cap)
print("  values on e_i (x) e_j:", [str(x) for x in mat.data[0]])

print("\n== traceless spaces for a seeded generic form at N = 5 ==")
form = random_form(sig2, 5, seed=20250809)
for n in range(4):
    print(f"  n={n}: joint contraction kernel has dimension {traceless_space(form, n)}")

print("\n== isotypic pieces: finite-rank realizations of the simples ==")
for text, expected in [("2", 14), ("1,1", 10), ("1,1,1", 10)]:
    lam = Partition(tuple(int(x) for x in text.split(",")))
    dim = simple_realization_dim(form, lam)
    print(f"  lambda = {text}: dimension {dim} (expected {expected})")

print("\n== the generating contractions already cut out the socle ==")
for text in ["0", "1", "2", "1,1"]:
    lam = Partition(()) if text == "0" else Partition(tuple(int(x) for x in text.split(",")))
    print(f"  lambda = {text}: {socle_check(form, lam)}")
