"""Spectral data of the capital-diffusion generator on the circle.

The generator acts as sigma * d^2/dtheta^2 + A(theta) with periodic boundary
conditions. For constant technology its eigenvalues are A - sigma*k^2 with
the flat positive eigenfunction 1/sqrt(2*pi); for varying A(theta) the
leading eigenpair shifts but keeps a simple, strictly positive ground mode.
"""

import numpy as np

import akgrowth as ak

grid = ak.Grid(128)

print("== homogeneous technology: everything is closed form ==")
one = ak.GridFunction.constant(grid, 1.0)
params = ak.ModelParams(sigma=0.7, rho=0.9, gamma=0.5, q=0.0,
                        A=ak.GridFunction.constant(grid, 1.3), eta=one)
basis = ak.eigendecompose(ak.assemble_generator(params, grid))
print(f"lambda_0 = {basis.lambda0:.12f}   (A = 1.3)")
print(f"lambda_1 = lambda_2 = {basis.eigenvalues[1]:.12f}   (A - sigma = 0.6)")
print(f"lambda_3 = lambda_4 = {basis.eigenvalues[3]:.12f}   (A - 4*sigma = -1.5)")
flat = 1.0 / np.sqrt(2 * np.pi)
print(f"sup |b0 - 1/sqrt(2*pi)| = {np.abs(basis.b0.values - flat).max():.2e}")

print()
print("== varying technology: the ground mode localizes where A is high ==")
A = ak.GridFunction.from_callable(grid, lambda t: 1 + 0.5 * np.cos(t))
vparams = ak.ModelParams(sigma=1.0, rho=0.8, gamma=0.5, q=0.0, A=A, eta=one)
vbasis = ak.eigendecompose(ak.assemble_generator(vparams, grid))
print(f"lambda_0 = {vbasis.lambda0:.12f}  (between min A = 0.5 and max A = 1.5)")
print(f"lambda_1 = {vbasis.lambda1:.12f}  (the double mode splits)")
peak = grid.nodes[np.argmax(vbasis.b0.values)]
print(f"b0 is strictly positive (min {vbasis.b0.values.min():.4f}) "
      f"and peaks at theta = {peak:.3f} where A peaks at 0")
