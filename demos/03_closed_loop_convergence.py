"""Closed-loop dynamics, steady state, and the explicit convergence bound.

Substituting the optimal feedback into the state equation gives a linear
integro-PDE. Detrending by e^(-g t) exposes convergence to the steady
profile <K0, beta> w at the spectral-gap rate g - lambda_1, with the fully
explicit constant M = 1 + sup|w| * integral(beta); when an a-priori
inequality holds, the whole path stays strictly positive, which is what
promotes the relaxed optimum to the positivity-constrained problem.
"""

import numpy as np

import akgrowth as ak

grid = ak.Grid(128)
one = ak.GridFunction.constant(grid, 1.0)
params = ak.ModelParams(sigma=1.0, rho=0.75, gamma=0.5, q=0.0, A=one, eta=one)
basis = ak.eigendecompose(ak.assemble_generator(params, grid))
sol = ak.solve_hjb(basis, params)
clo = ak.build_closed_loop(basis, sol)
pd = ak.compute_projection_data(basis, sol)
K0 = ak.GridFunction.from_callable(grid, lambda t: 1 + 0.4 * np.cos(t))

print("== spectrum of the closed-loop generator ==")
top = np.sort(clo.spectrum.real)[::-1][:4]
print(f"top eigenvalues: {np.round(top, 6)}")
print(f"g = {sol.g:.6f} replaced lambda_0 = {basis.lambda0:.6f}; "
      f"the rest of the spectrum is untouched")

traj = ak.simulate(clo, K0, 10.0, 200)
report = ak.convergence_bound_check(traj, pd)

print()
print("== growth and convergence ==")
pair0 = ak.inner_l2(K0, basis.b0)
pair_end = ak.inner_l2(ak.GridFunction(grid, traj.states[-1]), basis.b0)
print(f"<K(10), b0> / <K0, b0> = {pair_end / pair0:.6f} vs e^(10 g) = "
      f"{np.exp(10 * sol.g):.6f}")
print(f"steady state is the flat profile {report.steady_state.values[0]:.6f} "
      f"(the spatial mean of K0)")
print(f"explicit constant M = {report.M:.12f}")
print(f"bound holds at all 201 samples: {report.bound_satisfied}")
print(f"fitted decay rate {report.fitted_rate:.6f} vs lambda_1 - g = "
      f"{basis.lambda1 - sol.g:.6f}")

print()
print("== positivity promotion ==")
mean = grid.weight * K0.values.sum() / (2 * np.pi)
print(f"a-priori condition 2*sup|K0 - mean| <= mean: "
      f"{2 * ak.sup_norm(K0 - mean):.3f} <= {mean:.3f} -> "
      f"{report.admissibility_condition}")
print(f"trajectory strictly positive at every node and time: {report.admissible}")

print()
print("== the spectral projection, two ways ==")
contour = ak.projection_via_contour(clo)
closed = ak.projection_matrix(pd)
print(f"contour integral vs closed form <.,beta> w: max entry diff "
      f"{np.abs(contour.matrix - closed).max():.2e} "
      f"(imaginary residue {contour.imag_residue:.1e})")
print(f"trace of the projection: {np.trace(contour.matrix):.12f}")
