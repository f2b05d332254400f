"""Joint-distribution test of the sampler's conditionals (Geweke, "Getting it
right", JASA 2004).

With lambda, beta and sigma2 fixed, the model is g ~ N(0, lam K),
tau_i ~ Exponential with mean sigma2 (the prior that conditional_tau's
GIG(2/sigma2, r_i^2, 1/2) implies) and y | g, tau ~ N(U g, diag tau).  The
marginal-conditional simulator draws (g, tau, y) from this law
independently.  The successive-conditional simulator repeats
``conditional_tau``, ``conditional_g`` and a fresh y from the likelihood.
If both conditionals belong to this one joint law, the chain keeps it
stationary, so every test function has the same mean under both
simulators.  The means are compared by z-scores, with batch means for the
chain's variance.

A conditional that agrees with its own oracle but uses another convention
than the rest of the sweep passes the per-conditional tests and fails this
one; the catch-tests break each conditional's parameter on purpose.
lambda itself is not tested: the "half" rate implies a flat, improper prior
on 1/lambda, so no marginal-conditional simulator exists for it.
"""

import numpy as np
import pytest
from scipy.stats import t as student_t

from stablespline import (
    KernelSpec,
    build_regressor,
    conditional_g,
    conditional_tau,
)
from stablespline.distributions import RngHandle
from stablespline.kernels import kernel_factor

LAM, BETA, SIGMA2 = 1.5, 0.7, 0.8
DRAWS = 6000  # chain length of each case
CATCH_DRAWS = 4000
MARGINAL_FACTOR = 4  # independent draws per chain draw
BATCHES = 20

# (kernel order, N, n): both orders, and N < n, where U'U is singular
CASES = [("first", 6, 4), ("second", 6, 4), ("first", 3, 5)]
N_FUNCTIONS = 8

# Bonferroni bound for a family-wise false-alarm rate of 1e-3 over every
# test function of every case.  The chain's variance is a batch-means
# estimate on BATCHES - 1 degrees of freedom, so the bound is taken from
# Student's t with those degrees of freedom rather than the normal.
FAMILY_WISE_RATE = 1e-3
THRESHOLD = float(
    student_t.ppf(1.0 - FAMILY_WISE_RATE / (2 * N_FUNCTIONS * len(CASES)), BATCHES - 1)
)


def problem(order, N, n):
    U = build_regressor(np.random.default_rng(N * n).standard_normal(N), N, n)
    spec = KernelSpec(order, BETA, n)
    return U, spec, kernel_factor(spec)


def summaries(g, tau, y, U, L_K):
    """One row per draw (rows of g, tau and y).  Each conditional's
    parameter moves at least one mean: lam the first two, sigma2 the
    third and fourth; the last four couple g, tau and y."""
    v = np.linalg.solve(L_K, g.T).T  # g = L_K v, v ~ N(0, lam I)
    r = y - g @ U.T
    return np.stack(
        [
            (v * v).mean(axis=1) / LAM,
            v[:, 0] / np.sqrt(LAM),
            tau.mean(axis=1) / SIGMA2,
            np.log(tau).mean(axis=1),
            (r * r / tau).mean(axis=1),
            (r * r).mean(axis=1),
            (y * y).mean(axis=1),
            g[:, 0] * g[:, -1],
        ],
        axis=1,
    )


def marginal_conditional(U, L_K, draws, gen):
    N, n = U.shape
    g = np.sqrt(LAM) * gen.standard_normal((draws, n)) @ L_K.T
    tau = SIGMA2 * gen.exponential(size=(draws, N))
    y = g @ U.T + np.sqrt(tau) * gen.standard_normal((draws, N))
    return summaries(g, tau, y, U, L_K)


def successive_conditional(U, spec, L_K, draws, gen, cond_tau, cond_g):
    N, n = U.shape
    g = np.sqrt(LAM) * L_K @ gen.standard_normal(n)
    tau = SIGMA2 * gen.exponential(size=N)
    y = U @ g + np.sqrt(tau) * gen.standard_normal(N)
    G, T, Y = np.empty((draws, n)), np.empty((draws, N)), np.empty((draws, N))
    for k in range(draws):
        tau = cond_tau(g, U, y, SIGMA2, gen)
        g = cond_g(LAM, tau, spec, U, y, gen)
        y = U @ g + np.sqrt(tau) * gen.standard_normal(N)
        G[k], T[k], Y[k] = g, tau, y
    return summaries(G, T, Y, U, L_K)


def geweke_z(case, draws, seed, cond_tau=conditional_tau, cond_g=conditional_g):
    """z-scores of the marginal-conditional minus the successive-conditional
    means, one per test function."""
    U, spec, L_K = problem(*case)
    gen = RngHandle(seed).generator()
    chain = successive_conditional(U, spec, L_K, draws, gen, cond_tau, cond_g)
    independent = marginal_conditional(U, L_K, MARGINAL_FACTOR * draws, gen)
    size = draws // BATCHES
    batch_means = chain[: size * BATCHES].reshape(BATCHES, size, -1).mean(axis=1)
    var = (
        independent.var(axis=0, ddof=1) / independent.shape[0]
        + batch_means.var(axis=0, ddof=1) / BATCHES
    )
    return (independent.mean(axis=0) - chain.mean(axis=0)) / np.sqrt(var)


@pytest.mark.parametrize("case", CASES, ids=["first", "second", "first-N<n"])
def test_conditionals_share_one_joint_law(case):
    z = geweke_z(case, DRAWS, seed=41)
    assert np.abs(z).max() <= THRESHOLD, np.round(z, 2)


def _g_with_lambda_times_1_2(lam, tau, spec, U, y, rng):
    return conditional_g(1.2 * lam, tau, spec, U, y, rng)


def _tau_with_sigma2_times_1_2(g, U, y, sigma2, rng):
    return conditional_tau(g, U, y, 1.2 * sigma2, rng)


@pytest.mark.parametrize(
    "broken",
    [{"cond_g": _g_with_lambda_times_1_2}, {"cond_tau": _tau_with_sigma2_times_1_2}],
    ids=["lambda_in_g_step", "sigma2_in_tau_step"],
)
def test_catches_a_broken_conditional(broken):
    # the second-order kernel, on which the prior scale weighs most
    z = geweke_z(CASES[1], CATCH_DRAWS, seed=42, **broken)
    assert np.abs(z).max() > THRESHOLD, np.round(z, 2)
