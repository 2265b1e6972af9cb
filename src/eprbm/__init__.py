"""Restricted Boltzmann machine as a hidden-variable model of EPR correlations.

The package simulates two-station EPR experiments at CHSH-optimal detector
angles, trains a small binary RBM on the encoded trials, and checks exactly
(by state enumeration) that the trained machine reproduces the quantum
correlations, satisfies Bell locality, and violates measurement independence.
"""

__version__ = "0.1.0"
