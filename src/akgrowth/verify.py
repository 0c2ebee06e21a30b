"""Numerical optimality certification.

The discounted payoff of a consumption plan is evaluated by composite
Gauss-Legendre quadrature in time.  Optimality of the closed-form feedback
is audited two ways: the payoff of the feedback control must reproduce the
value function (equality), and the payoffs of randomly perturbed admissible
controls must never exceed it (dominance).

The audit perturbs the feedback law, as a verification theorem compares
feedback controls: a perturbed plan consumes P <x(t), b0> (1 + a e^(-t)
cos(m theta + phi)), P the feedback profile.  As L b0 = lambda0 b0 and
<eta P, b0> = lambda0 - g, its pairing is p(t) = p0 exp(g t - Q1 (1 - e^(-t)))
with the quadrature Q1 = a <eta P cos(m theta + phi), b0>.  It is positive
for every draw, so every plan is admissible by construction, and both
overconsumption (Q1 > 0) and underconsumption are tested.  The payoff over
[0, inf) is a double series whose series in c = (1-gamma) Q1 has positive
terms on either side of c = 0, and the discounted terminal value at the
horizon a scalar; all seeded draws are evaluated together as one array
program.  The feedback plan's own discounted utility is the scalar
U(c_hat0) e^(-a0 t), a0 = rho - g (1-gamma), since U is homogeneous of
degree 1-gamma; the audit sums it over [0, T] in closed form on a composite
Gauss-Legendre rule of equal intervals, ceil(T) of them but at most 4096,
or more when a0 is large, so that none spans more than 64/a0: once with 64
nodes per interval and once with 128 as a quadrature-convergence check.  The
feedback plan is rank one,
c_hat0 = feedback_profile <x0, b0>, so these closed forms see the start
state only through p0 = <x0, b0>: the audit pairs x0 once and its helpers
take p0.

The residual of the dynamic-programming equation is homogeneous of degree 0
in <x, b0>, so ``hjb_residual`` has one value on the whole half-space.
``transversality_check`` reads a path through its pairings <K(t), b0>, which
for the optimal path are the closed loop's leading mode <K0, b0> e^(r t).
``certificate`` compares every defect with its threshold: audit.json's record.

``payoff`` and ``open_loop_trajectory`` integrate any control numerically; a
control maps a 1-D array of m times to the (m, n) array of consumption
profiles at those times, and both evaluate it on one sub-interval of their
composite Gauss-Legendre rule at a time.  ``payoff`` returns a float.  Both
use 64 nodes per unit of time; ``payoff`` takes another count.  They are the
oracles the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import HalfSpaceError, SeriesCancellationError, TailDivergenceError
from .grid import GridFunction, inner_l2
from .hjb import HjbSolution, _pairing, consumption_weight, hamiltonian, utility, value_at_pairing
from .spectral import ModelParams, SpectralBasis

# (m,) times -> (m, n) consumption rows
ControlProvider = Callable[[np.ndarray], np.ndarray]

# Gauss-Legendre nodes per unit of time in the payoff and open-loop quadratures
_NODES_PER_UNIT = 64

# the largest interval count of the composite rule, whatever the horizon
_MAX_INTERVALS = 4096

# range of the perturbation amplitude a drawn by the audit
_AMPLITUDES = (0.05, 0.2)

# log of the largest float: e^|c| past it leaves the float range
_MAX_EXPONENT = math.log(np.finfo(float).max)

# the certificate's thresholds, relative to |v(x0)|: the feedback payoff's
# truncation tail, the dominance slack of a perturbed payoff, the defect of
# the dynamic-programming equation, the payoff-equals-value gap, and the
# discounted value left at the horizon
TAIL_REL = 1e-8
DOMINANCE_REL = 1e-6
HJB_RESIDUAL_REL = 1e-9
VALUE_EQUALITY_REL = 1e-6
TRANSVERSALITY_TAIL_REL = 1e-6


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-node Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _interval_count(T: float) -> int:
    """ceil(T), but at least 1 and at most ``_MAX_INTERVALS``."""
    return min(max(1, math.ceil(T)), _MAX_INTERVALS)


def _composite_gauss_legendre(T: float, nodes_per_unit: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on [0, T], on
    ``_interval_count(T)`` equal intervals."""
    n_intervals = _interval_count(T)
    x, w = _gauss_legendre(nodes_per_unit)
    edges = np.linspace(0.0, T, n_intervals + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def payoff(
    params: ModelParams,
    control: ControlProvider,
    T: float,
    nodes_per_unit: int = _NODES_PER_UNIT,
) -> float:
    """Discounted payoff of a consumption plan, truncated at horizon T.

    The quadrature of e^(-rho t) U(c(t)) over [0, T] by a composite
    Gauss-Legendre rule with ``nodes_per_unit`` nodes per interval.
    ``control`` maps a 1-D array of m times to the (m, n) array of
    nonnegative consumption profiles at those times; it is called on the
    nodes of one sub-interval at a time.  A -inf utility at any node
    (gamma > 1 with zero consumption) makes the whole payoff -inf.
    """
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
    nodes, weights = _composite_gauss_legendre(T, nodes_per_unit)
    discounted = weights * np.exp(-params.rho * nodes)
    total = 0.0
    for t, w in zip(nodes.reshape(-1, nodes_per_unit), discounted.reshape(-1, nodes_per_unit)):
        u = utility(params, control(t))
        if np.any(u == -np.inf):
            return float("-inf")
        total += w @ u
    return float(total)


def optimal_payoff_exponent(sol: HjbSolution) -> float:
    """Decay exponent rho - g*(1-gamma) of e^(-rho t) U(c_hat(t)).

    Positive exactly when the parameters are well posed; a nonpositive value
    means the discounted payoff of the feedback control diverges.
    """
    return sol.params.rho - sol.g * (1.0 - sol.params.gamma)


def _feedback_utility(sol: HjbSolution, p0: float) -> tuple[float, float]:
    """a = rho - g*(1-gamma) > 0 (else TailDivergenceError) and U(c_hat(0)) at pairing p0."""
    a = optimal_payoff_exponent(sol)
    if a <= 0:
        raise TailDivergenceError(
            f"rho - g*(1-gamma) = {a!r} <= 0: payoff tail diverges"
        )
    return a, float(utility(sol.params, sol.feedback_profile.values * p0))


def _feedback_payoff(a0: float, u0: float, T: float, nodes_per_unit: int) -> float:
    """Quadrature over [0, T] of the feedback plan's discounted utility.

    Along the feedback path e^(-rho t) U(c_hat(t)) = u0 e^(-a0 t) with
    a0, u0 from ``_feedback_utility``: the integrand of ``payoff`` for that
    plan, on a composite Gauss-Legendre rule of N equal intervals with
    ``nodes_per_unit`` nodes each.  N is ``_interval_count(T)``, or more when
    a0 is large, so that no interval spans more than 64/a0.  With h = T/(2N)
    the half-width, the rule's sum factors into one interval's sum times a
    geometric series,
    u0 (h sum_i w_i e^(-a0 h x_i)) e^(-a0 h) (1 - e^(-2 a0 h N)) / (1 - e^(-2 a0 h)),
    so it costs the same on any N.
    """
    n_intervals = max(_interval_count(T), math.ceil(a0 * T / _NODES_PER_UNIT))
    x, w = _gauss_legendre(nodes_per_unit)
    h = T / (2 * n_intervals)
    interval = h * float(w @ np.exp(-a0 * h * x))
    return u0 * interval * math.exp(-a0 * h) * (
        math.expm1(-2.0 * a0 * h * n_intervals) / math.expm1(-2.0 * a0 * h)
    )


def perturbed_transversality_envelope(sol: HjbSolution, T: float) -> float:
    """Decay envelope for e^(-rho T)|v(x(T))| / |v(x0)| along admissible plans.

    For gamma in (0,1) every admissible plan obeys the hard bound
    e^(-rho t) v(x(t)) <= v(x0) e^(-(rho - lambda0 (1-gamma)) t): the pairing
    <x(t), b0> can never exceed the null-consumption envelope
    <x0, b0> e^(lambda0 t), which grows at lambda0 rather than at g, so the
    discounted value of a perturbed plan dies more slowly than the feedback
    path's e^(-(rho - g (1-gamma)) t).  For gamma > 1 no such upper envelope
    exists in general.  Along the audit's feedback family
    (p(T) / (p0 e^(g T)))^(1-gamma) = e^(-c (1 - e^(-T))), c = (1-gamma) Q1,
    with |Q1| <= a (lambda0 - g) since eta P b0 >= 0: decay at the feedback
    rate within the factor e^((gamma-1) a_max (lambda0 - g)), a_max the
    family's largest amplitude.  The envelope takes that factor, and at
    least 2, in one exponent, so a factor past the float range alone leaves
    a finite envelope; an envelope past it is inf.
    """
    gamma = sol.params.gamma
    if gamma < 1:
        rate = sol.params.rho - sol.basis.lambda0 * (1.0 - gamma)
        return math.exp(-rate * T) * (1.0 + 1e-9)
    spread = (gamma - 1.0) * _AMPLITUDES[1] * (sol.basis.lambda0 - sol.g)
    try:
        return math.exp(max(math.log(2.0), spread) - optimal_payoff_exponent(sol) * T)
    except OverflowError:
        return math.inf


def open_loop_trajectory(
    basis: SpectralBasis,
    params: ModelParams,
    x0: GridFunction,
    control: ControlProvider,
    times: np.ndarray,
) -> np.ndarray:
    """Mild solution of the state equation under an arbitrary control.

    Integrates x(t) = e^(tL) x0 - int_0^t e^((t-s)L) eta c(s) ds in the
    eigenbasis: each coefficient obeys c_k' = lambda_k c_k - <eta c(s), b_k>.
    Between consecutive sample times the forcing is projected on the basis
    and integrated against e^(lambda (t-s)) with Gauss-Legendre quadrature,
    64 nodes per unit of time (spectrally accurate for smooth plans).

    ``control`` maps a 1-D array of m times to the (m, n) array of
    consumption profiles at those times; it is called on the quadrature
    nodes of one interval at a time.  Returns the read-only (len(times), n)
    array whose row i is the state at times[i].
    """
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if times[0] != 0.0 or np.any(dts <= 0):
        raise ValueError("times must increase strictly from 0")
    basis.require_full("open_loop_trajectory")
    lam = basis.eigenvalues
    # weight and eta folded into the basis: <eta c(s), b_k> = c(s) @ projector[:, k]
    projector = (basis.grid.weight * params.eta.values)[:, None] * basis.vectors
    gl_x, gl_w = _gauss_legendre(max(4, math.ceil(_NODES_PER_UNIT * dts.max(initial=0.0))))
    coeffs = basis.coefficients(x0)
    rows = [coeffs]
    for t0, t1, dt in zip(times[:-1], times[1:], dts):
        forcing_coeffs = control((t0 + t1) / 2.0 + dt / 2.0 * gl_x) @ projector
        # t1 - s = dt (1 - x)/2: e^(lambda (t1 - s)) weighted by dt w/2
        kernel = np.exp(lam * (dt / 2.0 * (1.0 - gl_x))[:, None]) * (dt / 2.0 * gl_w)[:, None]
        coeffs = np.exp(lam * dt) * coeffs - (kernel * forcing_coeffs).sum(axis=0)
        rows.append(coeffs)
    states = np.array(rows) @ basis.vectors.T
    states.setflags(write=False)
    return states


@dataclass(frozen=True, eq=False)
class PerturbationSample:
    amplitude: float
    mode: int
    phase: float
    payoff: float


@dataclass(frozen=True, eq=False)
class OptimalityAudit:
    """Outcome of the payoff-equality and dominance audits.

    Every perturbed plan is admissible by construction (see the module
    docstring).  J_opt is the feedback plan's payoff over [0, horizon], and
    the samples' payoffs and max_perturbed_J are over [0, inf).
    max_discounted_terminal_rel is the largest
    e^(-rho T) |v(x(T))| over the perturbed plans, relative to |v(x0)|; it
    audits the vanishing of the discounted value along them.
    quadrature_doubling_gap is |J_opt at 128 nodes per unit - J_opt|.
    """

    J_opt: float
    v: float
    rel_gap: float
    quadrature_doubling_gap: float
    horizon: float
    tail_bound: float
    n_perturbations: int
    samples: list[PerturbationSample]
    max_perturbed_J: float
    all_dominated: bool
    max_discounted_terminal_rel: float
    seed: int
    perturbation_family: str


def _perturbation_family(
    sol: HjbSolution, p0: float, T: float, a0: float, u0: float
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, ...]]:
    """Map arrays of draws (a, m, phase) of the perturbed feedback law from the
    pairing p0, whose ``_feedback_utility`` is (a0, u0), to arrays of their
    payoffs over [0, inf), their discounted terminal values at T relative
    to |v(x0)| and their pairing exponents c, building what does not depend
    on the draws once.  All draws cost a fixed number of array operations.

    By homogeneity U(c(t)) e^(-rho t) = e^(-a0 t - c (1 - e^(-t)))
    U(c_hat0 (1 + a e^(-t) cos)), a0 = rho - g (1-gamma), c = (1-gamma) Q1, so
    the terminal value is e^(-a0 T - c (1 - e^(-T))).  The binomial series of
    (1 + x)^(1-gamma), converging for |a| < 1, writes the last factor as
    sum_k C(1-gamma, k) a^k M_k e^(-k t) with quadratures
    M_k = int f c_hat0^(1-gamma) cos^k / (1-gamma), M_0 = U(c_hat0).  With
    s = e^(-t), J = sum_k C(1-gamma, k) a^k M_k I_k, where
    I_k = int_0^1 s^(a0+k-1) e^(-c (1-s)) ds = 1F1(1; a0+k+1; -c) / (a0+k)
    is Kummer's function.  Its series is summed in positive terms on either
    side of c = 0: I_k = e^(-c) sum_j (c^j/j!) / (a0+k+j) for c >= 0, and by
    Kummer's transformation I_k = sum_j (|c|^j/j!) B(a0+k, j+1) for c < 0,
    with B(a, 1) = 1/a and B(a, j+2) = B(a, j+1) (j+1)/(a+j+1).  The Hankel
    matrix 1/(a0+k+j) and the Beta matrix B(a0+k, j+1) are shared by all
    draws, and each draw takes the one the sign of its c selects.  Both
    series keep the terms their largest |a| and |c| need, up to the first
    term below 1e-17 past the peak.

    Past |c| = log(float max) ~ 709.8 the terms |c|^j/j! leave the float
    range: a batch with such a draw, or with a c that is not finite, is a
    ``SeriesCancellationError`` naming the first one.
    """
    exponent = 1.0 - sol.params.gamma
    basis = sol.basis
    nodes, weight = basis.grid.nodes, basis.grid.weight
    weighted = consumption_weight(sol.params) * (sol.feedback_profile.values * p0) ** exponent
    # Q1 = a <eta P cos(m theta + phase), b0> = a (cosine @ shift_weights)
    shift_weights = weight * sol.withdrawal.values * basis.b0.values

    def evaluate(
        amplitudes: np.ndarray, modes: np.ndarray, phases: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cosine = np.cos(np.multiply.outer(modes, nodes) + phases[:, None])
        # as many binomial terms as the largest |a| needs: past k = |1-gamma|
        # each term is below 2|a| times the one before
        a_max = float(np.abs(amplitudes).max(initial=0.0))
        term, n_terms = 1.0, 1
        while n_terms <= abs(exponent) + 1 or abs(term) > 1e-17:
            term = term * (exponent - n_terms + 1) / n_terms * a_max
            n_terms += 1
        # C(1-gamma, k+1) / C(1-gamma, k) for k = 0 .. n_terms-2
        ratios = (exponent - np.arange(n_terms - 1)) / np.arange(1, n_terms)
        terms = np.ones((amplitudes.size, n_terms))  # C(1-gamma, k) a^k
        np.cumprod(np.multiply.outer(amplitudes, ratios), axis=1, out=terms[:, 1:])
        moments = np.empty_like(terms)  # M_k, with cos^k by repeated products
        moments[:, 0] = u0
        power = np.ones_like(cosine)
        for k in range(1, n_terms):
            power *= cosine
            moments[:, k] = power @ weighted
        moments[:, 1:] *= weight / exponent
        c = exponent * (amplitudes * (cosine @ shift_weights))
        beyond = np.flatnonzero(~(np.abs(c) <= _MAX_EXPONENT))
        if beyond.size:
            i = int(beyond[0])
            raise SeriesCancellationError(
                f"perturbation {i} (a = {float(amplitudes[i])!r}, m = {int(modes[i])}, "
                f"phi = {float(phases[i])!r}): its payoff series in c = (1-gamma) Q1 = "
                f"{float(c[i])!r} needs terms near e^|c|, beyond the float range "
                f"past |c| = {_MAX_EXPONENT!r}"
            )
        # as many terms |c|^j / j! as the largest |c| needs: they decrease once j > |c|
        c_max = float(np.abs(c).max(initial=0.0))
        term, n_decay = 1.0, 1
        while n_decay <= c_max + 1 or term > 1e-17:
            term = term * c_max / n_decay
            n_decay += 1
        decay = np.ones((c.size, n_decay))
        np.cumprod(np.divide.outer(np.abs(c), np.arange(1, n_decay)), axis=1, out=decay[:, 1:])
        # I_k = e^(-c) sum_j decay_j / (a0+k+j) for c >= 0, sum_j decay_j B(a0+k, j+1)
        # for c < 0, with B(a0+k, j+1) = prod_(i <= j) max(i, 1) / (a0+k+i)
        steps = np.arange(n_decay)
        hankel = 1.0 / np.add.outer(a0 + np.arange(n_terms), steps)
        beta = np.cumprod(hankel * np.maximum(steps, 1), axis=1)
        weighted_terms = terms * moments
        series = np.where((c >= 0.0)[:, None], weighted_terms @ hankel, weighted_terms @ beta)
        J = np.exp(-np.maximum(c, 0.0)) * (series * decay).sum(axis=1)
        return J, np.exp(-a0 * T + c * math.expm1(-T)), c

    return evaluate


def optimality_audit(
    sol: HjbSolution,
    x0: GridFunction,
    n_perturbations: int,
    seed: int,
) -> OptimalityAudit:
    """Certify v(x0) against the payoff functional.

    First checks that the quadrature payoff of the feedback control, whose
    discounted utility is the scalar U(c_hat0) e^(-a0 t), reproduces v(x0)
    up to the truncation tail with 64 time nodes per unit, and records how
    far the same quadrature with 128 nodes per unit moves it.  Then draws
    n_perturbations seeded smooth multiplicative perturbations of the
    feedback law, each admissible by construction, evaluates their
    closed-form payoffs over [0, inf) in one batch and checks that every one
    is dominated by v(x0); J_opt stays the payoff over [0, horizon].  Each
    one's discounted terminal value at the horizon relative to |v(x0)| is
    e^(-a0 T - c (1 - e^(-T))).  Raises ``SeriesCancellationError``, naming
    the first such draw, when its pairing exponent c is not finite or |c| is
    past the float range of e^|c|, where no series can be evaluated.
    """
    p0 = _pairing(sol, x0)
    v = value_at_pairing(sol, p0)
    a0, u0 = _feedback_utility(sol, p0)
    # the smallest horizon, at least 1, at which the closed-form tail of the
    # feedback payoff, |u0| e^(-a0 T)/a0, drops below TAIL_REL * |v|
    horizon = 1.0
    if u0 != 0.0:
        horizon = max(1.0, math.log(abs(u0) / (a0 * TAIL_REL * abs(v))) / a0)
    tail = math.exp(-a0 * horizon) / a0 * abs(u0)
    optimal = _feedback_payoff(a0, u0, horizon, _NODES_PER_UNIT)
    doubled = _feedback_payoff(a0, u0, horizon, 2 * _NODES_PER_UNIT)
    rel_gap = abs(optimal - v) / abs(v)

    rng = np.random.default_rng(seed)
    draws = [
        (rng.uniform(*_AMPLITUDES), int(rng.integers(1, 4)), rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(n_perturbations)
    ]
    amplitudes, modes, phases = np.array(draws, dtype=float).reshape(-1, 3).T
    perturbed, terminal, _ = _perturbation_family(sol, p0, horizon, a0, u0)(
        amplitudes, modes, phases
    )
    samples = [
        PerturbationSample(float(a), m, float(phase), float(J))
        for (a, m, phase), J in zip(draws, perturbed)
    ]
    max_perturbed = float(perturbed.max(initial=-math.inf))
    dominated = bool(np.all(perturbed <= v + DOMINANCE_REL * abs(v)))
    return OptimalityAudit(
        J_opt=optimal,
        v=v,
        rel_gap=rel_gap,
        quadrature_doubling_gap=abs(doubled - optimal),
        horizon=horizon,
        tail_bound=tail,
        n_perturbations=n_perturbations,
        samples=samples,
        max_perturbed_J=max_perturbed,
        all_dominated=dominated,
        max_discounted_terminal_rel=float(terminal.max(initial=0.0)),
        seed=seed,
        perturbation_family=(
            "feedback law times 1 + a*exp(-t)*cos(m*theta+phi), "
            f"{_AMPLITUDES[0]}<=a<={_AMPLITUDES[1]}, "
            "m in {1,2,3}; admissible by construction; smooth parametric family "
            "only, not an exhaustive search"
        ),
    )


def hjb_residual(sol: HjbSolution, x: GridFunction) -> float:
    """Relative defect of the dynamic-programming equation at x.

    Uses the eigenvector identity to evaluate the drift term: since b0 is an
    eigenfunction, <x, L* grad v(x)> = lambda0 <x,b0> * alpha <x,b0>^(-gamma).
    Every term is then a multiple of <x,b0>^(1-gamma), so the relative defect
    is the same at every x of the half-space, up to rounding.
    """
    basis = sol.basis
    inner = _pairing(sol, x)
    v = value_at_pairing(sol, inner)
    gamma = sol.params.gamma
    drift = basis.lambda0 * inner * sol.alpha * inner ** (-gamma)
    residual = sol.params.rho * v - drift - hamiltonian(sol, x)
    return abs(residual) / abs(sol.params.rho * v)


def transversality_check(
    sol: HjbSolution,
    times: np.ndarray,
    pairings: np.ndarray,
) -> bool:
    """Discounted value along a path must decay to (numerical) zero.

    ``pairings`` are the path's <K(t), b0> at ``times``, all the value
    function reads of a state.  True iff e^(-rho t) |v(K(t))| is
    nonincreasing over the sampled tail (second half of the samples) and its
    final value is below ``TRANSVERSALITY_TAIL_REL`` times |v(K(0))|.
    """
    if np.any(pairings <= 0.0):
        raise HalfSpaceError(
            f"<K(t), b0> = {float(pairings.min())!r} is not strictly positive along the path"
        )
    values = np.exp(-sol.params.rho * times) * np.abs(value_at_pairing(sol, pairings))
    tail = values[values.size // 2 :]
    slack = 1e-12 * values[0]
    decreasing = bool(np.all(np.diff(tail) <= slack))
    small = values[-1] < TRANSVERSALITY_TAIL_REL * values[0]
    return decreasing and small


def certificate(sol: HjbSolution, x0: GridFunction, n_perturbations: int, seed: int) -> dict:
    """The optimality certificate of ``sol`` at x0, the record of audit.json: its
    ``checks`` are, in order, ``hjb_residual`` < HJB_RESIDUAL_REL, the
    ``optimality_audit`` gap < VALUE_EQUALITY_REL, dominance and
    transversality; ``failed_check`` is the first that fails, or None.

    Transversality reads the optimal path through its pairing, the closed
    loop's leading mode <K0, b0> e^(r t), r = lambda0 - <withdrawal, b0>, so
    its discounted value is v(K0) e^(-d t), d = rho - r (1-gamma).  It holds
    when three clauses do, T the audit's horizon:
    - d > 0: the discounted value dies.  d equals a0 = rho - g (1-gamma)
      exactly when the growth identity <eta P, b0> = lambda0 - g holds.
    - e^(-d T) < TRANSVERSALITY_TAIL_REL: it has died by T.  T makes
      e^(-a0 T) = TAIL_REL (unless floored at 1), so the clause holds
      whenever d > ln(1/TRANSVERSALITY_TAIL_REL)/T, about 3/4 of a0.
    - max_discounted_terminal_rel <= perturbed_terminal_envelope: at T no
      perturbed plan's discounted value exceeds the envelope that
      ``perturbed_transversality_envelope`` proves, for every admissible
      plan if gamma < 1 and for the audit's family if gamma > 1.
    """
    max_residual = hjb_residual(sol, x0)  # one value on the whole half-space
    audit = optimality_audit(sol, x0, n_perturbations, seed)
    params, basis = sol.params, sol.basis
    r = basis.lambda0 - inner_l2(sol.withdrawal, basis.b0)
    decay = params.rho - r * (1.0 - params.gamma)
    envelope = perturbed_transversality_envelope(sol, audit.horizon)
    transversal = bool(decay > 0
                       and math.exp(-decay * audit.horizon) < TRANSVERSALITY_TAIL_REL
                       and audit.max_discounted_terminal_rel <= envelope)
    checks = {"hjb_residual": bool(max_residual < HJB_RESIDUAL_REL),
              "value_equality": bool(audit.rel_gap < VALUE_EQUALITY_REL),
              "dominance": audit.all_dominated, "transversality": transversal}
    return {
        "J_opt": audit.J_opt, "v": audit.v, "rel_gap": audit.rel_gap,
        "n_perturbations": audit.n_perturbations, "max_perturbed_J": audit.max_perturbed_J,
        "all_dominated": audit.all_dominated, "max_hjb_residual": max_residual,
        "transversality": transversal,
        "max_discounted_terminal_rel": audit.max_discounted_terminal_rel,
        "perturbed_terminal_envelope": envelope, "horizon": audit.horizon,
        "tail_bound": audit.tail_bound, "quadrature_doubling_gap": audit.quadrature_doubling_gap,
        "seed": audit.seed, "perturbation_family": audit.perturbation_family,
        "checks": checks, "failed_check": next((k for k, ok in checks.items() if not ok), None),
    }
