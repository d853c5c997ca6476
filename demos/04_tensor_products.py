"""Product systems: bounds and frame operators factor across Kronecker products."""

import numpy as np

from biframekit import (BiframeSystem, app, factor_bounds_check, frame_operator, optimal_bounds,
                        tensor_system)
from biframekit.tensor import kron

# Kronecker building blocks obey the usual algebra.
a, b = np.array([[1.0, 2.0], [0.0, 1.0]]), np.diag([3.0, 0.5])
print("mixed product law residual:",
      np.linalg.norm(kron(a, b) @ kron(b, a) - kron(a @ b, b @ a)))

# Combine two reference systems on the product space.  The result's node
# set is the cartesian product of the factors' nodes, its families are the
# Kronecker products of the factor families, and its frame operator
# factors exactly: the combined system forms S1 (x) S2 from the factors,
# and never sums over the product nodes.
left = app.fixture_record("example-5-3-left")
right = app.fixture_record("example-5-3-right")
combo = tensor_system(left.system, right.system)

print(f"\nfactors: dim {left.system.dim} x dim {right.system.dim} "
      f"-> combined dim {combo.combined.dim}")

# The node sum over the combined samples, on a plain system that holds
# them, against the S1 (x) S2 every bound of the combined system reads.
c = combo.combined
summed = BiframeSystem.from_samples(c.measure, c.analysis.samples, c.synthesis.samples, c.target)
print("frame operator factorization residual:",
      np.linalg.norm(frame_operator(summed) - frame_operator(c)))

# Bounds multiply: if the factors achieve (A1, B1) and (A2, B2), the
# combined system achieves (A1*A2, B1*B2) -- and on this pair, exactly.
r1 = optimal_bounds(left.system)
r2 = optimal_bounds(right.system)
rc = optimal_bounds(combo.combined)
print(f"left optimal   ({r1.lower_opt}, {r1.upper_opt})")
print(f"right optimal  ({r2.lower_opt}, {r2.upper_opt})")
print(f"combined       ({rc.lower_opt}, {rc.upper_opt})")

# factor_bounds_check validates all three systems and the product law in
# one call; it is what the command-line `tensor` subcommand runs.
print("factor bounds check:", factor_bounds_check(combo))
