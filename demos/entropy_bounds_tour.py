"""A walking tour of the entropy sandwich.

Builds a chirp dataset, forms its data operator, augments it over a
rectangle in phase space, and prints the three quantities of the main
inequality: the concentration-based lower bound, the von Neumann entropy
of the augmented operator, and the smoothed differential entropy above it.

Run:  python3 demos/entropy_bounds_tour.py
"""

import math

import tfaug as T

d = 128
dataset = T.gen_chirps(60, d, seed=0)
S = T.data_operator(dataset)
H, ed = T.effective_dimension(S)
print(f"chirp dataset: {len(dataset)} signals, d={d}")
print(f"  H_vN(S) = {H:.4f}   effective dimension = {ed:.2f}")

# how fast do correlations decay with time-frequency displacement?
S_tilde = T.total_correlation(S)
print(f"  purity tr(S^2) = S~(0) = {S_tilde[0, 0]:.4f}")

for width, height in [(2.45, 2.45), (4.0, 1.49), (1.49, 4.0)]:
    omega = T.make_rect_domain(d, width, height)
    a = T.alc(S_tilde, omega)
    lower, upper = T.check_bounds(S, omega)[:2]  # the two halves of the sandwich
    print(f"domain {width} x {height}  (|Omega| = {omega.measure:.3f})")
    print(f"  ALC = {a:.4f}")
    print(
        f"  ln|Omega|+ALC = {lower.lhs:.4f}  <=  H_vN = {lower.rhs:.4f}"
        f"  <=  H(smoothed) = {upper.rhs:.4f}   pass={lower.ok and upper.ok}"
    )

# the lower bound is attained on the full torus
lower = T.check_bounds(S, T.full_domain(d))[0]
print(f"full torus: lower = {lower.lhs:.4f} = mid = {lower.rhs:.4f} = ln d = {math.log(d):.4f}")
