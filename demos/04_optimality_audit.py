"""Numerical optimality certification of the feedback plan.

Two independent routes must meet: the discounted payoff of the feedback
control, computed by time quadrature, has to reproduce the closed-form value
function; and no perturbation of the feedback law may beat it. Each
perturbed law consumes P <x(t), b0> (1 + a e^(-t) cos(m theta + phi)), so it
keeps <x(t), b0> positive and is admissible by construction. The script also
shows the discounted value dying out along the path (transversality).
"""

import numpy as np

import akgrowth as ak

grid = ak.Grid(128)
one = ak.GridFunction.constant(grid, 1.0)
params = ak.ModelParams(sigma=1.0, rho=0.75, gamma=0.5, q=0.0, A=one, eta=one)
basis = ak.eigendecompose(ak.assemble_generator(params, grid))
sol = ak.solve_hjb(basis, params)
clo = ak.build_closed_loop(basis, sol)
K0 = ak.GridFunction.from_callable(grid, lambda t: 1 + 0.4 * np.cos(t))

audit = ak.optimality_audit(sol, K0, n_perturbations=10, seed=7)

print("== payoff equality ==")
print(f"horizon T = {audit.horizon:.2f} chosen so the closed-form tail is "
      f"{audit.tail_bound / abs(audit.v):.1e} of |v|")
print(f"J(feedback plan) = {audit.J_opt:.12f}")
print(f"v(K0)            = {audit.v:.12f}")
print(f"relative gap     = {audit.rel_gap:.2e}")

print()
print("== dominance over perturbed feedback laws, all admissible ==")
print("sample  amplitude  mode  payoff gap to v")
for i, s in enumerate(audit.samples):
    print(f"  {i:>2}      {s.amplitude:.3f}     {s.mode}   {s.payoff - audit.v:+.3e}")
print(f"all dominated: {audit.all_dominated}  "
      f"(worst gap {audit.max_perturbed_J - audit.v:+.3e})")
print(f"discounted terminal value along perturbed paths: "
      f"{audit.max_discounted_terminal_rel:.1e} of |v|")

print()
print("== transversality along the optimal path ==")
traj = ak.simulate(clo, K0, audit.horizon, 200)
for t_index in (0, 50, 100, 200):
    t = traj.times[t_index]
    state = ak.GridFunction(grid, traj.states[t_index])
    discounted = np.exp(-params.rho * t) * ak.value_function(sol, state)
    print(f"  e^(-rho t) v(K(t)) at t = {t:5.1f}: {discounted:.3e}")
# the value function reads each state through its pairing <K(t), b0>
pairings = grid.weight * (traj.states @ basis.b0.values)
print(f"transversality check: {ak.transversality_check(sol, traj.times, pairings)}")
