"""Augmenting a dataset by time-frequency shifts, two equivalent ways.

The enlarged dataset {pi(z) f_i : z in Omega} has the data operator
chi_Omega (x) S / |Omega|, so we can either materialize the shifted
signals or convolve the indicator with the operator.  This script does
both and checks they agree, then shows the finite-rank surrogate.

Run:  python3 demos/augmentation_tour.py
"""

import numpy as np

import tfaug as T

d = 64
dataset = T.gen_gaussian_combos(10, d, seed=1)
S = T.data_operator(dataset)
omega = T.make_rect_domain(d, 1.5, 1.5)
print(f"{len(dataset)} signals, domain of measure {omega.measure:.3f} "
      f"({omega.n_cells} cells)")

# route 1: materialize the shifted signals
augmented = T.augment_dataset(omega, dataset)
S_route1 = T.data_operator(augmented)
print(f"materialized augmentation: {len(augmented)} signals")

# route 2: operator convolution with the indicator
loc = T.mixed_state_localization(omega, S)
S_route2 = loc.matrix / omega.measure
print(f"route agreement: {np.max(np.abs(S_route1.matrix - S_route2)):.2e}")

H_plain, ed_plain = T.effective_dimension(S)
H_aug, ed_aug = T.effective_dimension(T.HermitianOperator(S_route2))
print(f"effective dimension {ed_plain:.2f} -> {ed_aug:.2f} after augmentation")

# the localization operator is nearly a projection of rank ceil(|Omega|)
T_omega, A_omega, err = T.finite_rank_approx(omega, S)
print(f"rank-{A_omega} projection surrogate, trace-norm error {err:.4f}")
bound = next(r for r in T.check_bounds(S, omega) if r.name == "finite_rank")
print(f"error bound from the concentration theorem holds: {bound.ok} "
      f"({bound.lhs:.4f} <= {bound.rhs:.4f})")
