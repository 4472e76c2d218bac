"""Deterministic 2D navigation-and-mapping engine driven by barrier-shaped
Hamiltonian energies.

Submodules
----------
workspace   world models, local sensing, stages, coverage accounting
energy      barrier/goal/deformation energies and analytic gradients
dynamics    symplectic integrators and rollouts
ring        hyperelastic ring geometry (periodic B-spline boundary)
navigator   the online adaptive navigation loop
learning    offline weight identification and meta-regressor training
baselines   A*, potential fields, DWA reference planners
evalkit     metrics, perturbations, the eval table
cli         command-line entry points and artifact emission
"""

__version__ = "0.1.0"
