"""Restricted Boltzmann machine core: parameters and the block Gibbs sampler.

Units are binary with values in {0, 1} and the temperature is fixed at kT = 1,
so the joint law is P(v, h) = exp(-E(v, h)) / Z with

    E(v, h) = -(sum_i c_i v_i + sum_j d_j h_j + sum_ij w_ij v_i h_j).

The bipartite wiring makes both conditionals factorize,
P(h_j = 1 | v) = sigmoid(d_j + sum_i v_i w_ij) and likewise for v given h,
which is what the block Gibbs sampler and the gradient estimators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _logistic(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    Where exp(-x) overflows to inf (x below about -709.8) the result is 0.0,
    less than 1e-308 from the exact value, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _as_param_array(name: str, value, ndim: int) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RbmModel:
    """Parameters of a binary RBM: visible biases, hidden biases, weights.

    Attributes:
        visible_bias: shape (m,), bias c_i of each visible unit.
        hidden_bias: shape (n,), bias d_j of each hidden unit.
        weights: shape (m, n), coupling w_ij between visible i and hidden j.
    """

    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        c = _as_param_array("visible_bias", self.visible_bias, 1)
        d = _as_param_array("hidden_bias", self.hidden_bias, 1)
        w = _as_param_array("weights", self.weights, 2)
        if w.shape != (c.size, d.size):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"({c.size} visible, {d.size} hidden)"
            )
        object.__setattr__(self, "visible_bias", c)
        object.__setattr__(self, "hidden_bias", d)
        object.__setattr__(self, "weights", w)

    @property
    def n_visible(self) -> int:
        return self.visible_bias.size

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.size


def advance_chains(
    model: RbmModel,
    visible: np.ndarray,
    rng: np.random.Generator,
    n_sweeps: int = 1,
) -> np.ndarray:
    """Run block Gibbs sweeps on a batch of chains, returning the visible states.

    Each sweep draws the hidden layer from P(h | v), then the visible layer
    from P(v | h), each unit independently. This is the reference sampler:
    the trainer's one-draw pattern-space advance is tested against it.

    Args:
        visible: shape (n_chains, m) batch of {0, 1} visible states, or a
            single state of shape (m,).
        n_sweeps: number of full sweeps (hidden then visible) to apply.

    Returns:
        The visible states after the sweeps, in the shape of visible.
    """
    v = np.asarray(visible, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != model.n_visible:
        raise ValueError(
            f"visible states must have shape ({model.n_visible},) or "
            f"(batch, {model.n_visible}), got {v.shape}"
        )
    batched = v.ndim == 2
    if not batched:
        v = v[None, :]
    w = model.weights
    c = model.visible_bias
    d = model.hidden_bias
    for _ in range(n_sweeps):
        ph = _logistic(v @ w + d)
        h = (rng.random(ph.shape) < ph).astype(np.float64)
        pv = _logistic(h @ w.T + c)
        v = (rng.random(pv.shape) < pv).astype(np.float64)
    return v if batched else v[0]
