import numpy as np
import pytest
from scipy.special import expit

from eprbm.exact import enumerate_distribution
from eprbm.rbm import advance_chains
from eprbm.trainer import load_reference_model


@pytest.fixture(scope="session")
def reference_model():
    return load_reference_model()


@pytest.fixture(scope="session")
def reference_dist(reference_model):
    return enumerate_distribution(reference_model)


@pytest.fixture(scope="session")
def reference_gibbs_sample(reference_model):
    """10^6 block-Gibbs samples of the reference model, shared session-wide.

    One chain per sample, started from uniform random visible states and run
    for 30 burn-in sweeps (enough to push the joint within TV well under 0.01
    of exact) by rbm.advance_chains, the sampler train runs, so the checks
    against the exact law that read this sample check shipped code. The
    hidden draw from the final visible state, by scipy's expit, makes each
    (visible, hidden) pair a sample of the joint law.
    """
    rng = np.random.default_rng(20260819)
    n = 1_000_000
    start = (rng.random((n, reference_model.n_visible)) < 0.5).astype(np.float64)
    visible = advance_chains(reference_model, start, rng, n_sweeps=30)
    p_hidden = expit(visible @ reference_model.weights + reference_model.hidden_bias)
    hidden = (rng.random(p_hidden.shape) < p_hidden).astype(np.float64)
    return visible, hidden
