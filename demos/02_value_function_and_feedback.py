"""Closed-form value function and optimal consumption feedback.

Once the leading eigenpair (lambda_0, b0) is known, the relaxed problem has
the explicit value v(x) = alpha <x,b0>^(1-gamma)/(1-gamma) and the optimal
consumption is a fixed profile times <x,b0>. This script builds both and
checks the algebra that makes them exact.
"""

import numpy as np

import akgrowth as ak

grid = ak.Grid(128)
one = ak.GridFunction.constant(grid, 1.0)
params = ak.ModelParams(sigma=1.0, rho=0.75, gamma=0.5, q=0.0, A=one, eta=one)
basis = ak.eigendecompose(ak.assemble_generator(params, grid))

print(f"well posed?  rho > lambda0*(1-gamma): "
      f"{params.rho} > {basis.lambda0 * (1 - params.gamma):.3f} -> "
      f"{ak.wellposed(params.rho, params.gamma, basis.lambda0)}")

sol = ak.solve_hjb(basis, params)
print(f"alpha = {sol.alpha:.12f}    (closed form [2*(2*pi)^(3/2)]^(1/2) = "
      f"{(2 * (2 * np.pi) ** 1.5) ** 0.5:.12f})")
print(f"growth rate g = (lambda0 - rho)/gamma = {sol.g:.6f}")

K0 = ak.GridFunction.from_callable(grid, lambda t: 1 + 0.4 * np.cos(t))
v = ak.value_function(sol, K0)
print(f"v(K0) = {v:.12f}")
print(f"homogeneity: v(2 K0)/v(K0) = {ak.value_function(sol, 2 * K0) / v:.12f} "
      f"(2^(1-gamma) = {2 ** 0.5:.12f})")

print()
print("== the feedback control is rank one and, here, flat in space ==")
c0 = ak.feedback_control(sol, K0)
print(f"consumption profile range: [{c0.values.min():.8f}, {c0.values.max():.8f}]")
print(f"closed form (A - g)/(2*pi) * integral(K0) = "
      f"{(1 - sol.g) / (2 * np.pi) * grid.weight * K0.values.sum():.8f}")
# a plan maps an array of times to one consumption row per time
c_later = ak.optimal_control_path(sol, K0, np.array([2.0]))[0]
print(f"plan at t=2 is e^(2g) times the t=0 plan: factor "
      f"{c_later[0] / c0.values[0]:.8f} vs e^(2g) = {np.exp(2 * sol.g):.8f}")

print()
print("== the dynamic-programming equation is satisfied to rounding ==")
for mode in (1, 2, 3):
    x = ak.GridFunction.from_callable(grid, lambda t: 1 + 0.3 * np.sin(mode * t))
    print(f"residual at 1 + 0.3 sin({mode} theta): "
          f"{ak.hjb_residual(sol, x):.2e}")

print()
print("== gamma > 1 flips the sign of utility and value ==")
params2 = ak.ModelParams(sigma=1.0, rho=0.3, gamma=2.0, q=0.0, A=one, eta=one)
sol2 = ak.solve_hjb(ak.eigendecompose(ak.assemble_generator(params2, grid)), params2)
print(f"gamma=2: v(K0) = {ak.value_function(sol2, K0):.6f} < 0, "
      f"g = {sol2.g:.4f}")
zero = np.zeros(grid.n_points)
print(f"utility of zero consumption: gamma=0.5 -> {ak.utility(params, zero)}, "
      f"gamma=2 -> {ak.utility(params2, zero)}")
