"""Numerical laboratory for a hybrid quantum-classical ensemble of two
quantum probes coupled through a mediator mode.

Two backends cover the same dynamics: an exact Gaussian phase-space
backend (closed-form symplectic propagation of means and covariances)
and a 3-D grid backend (exact three-shear FFT evolution of the full
amplitude), plus the configuration-ensemble machinery of functional
derivatives and hybrid Poisson brackets used for locality diagnostics,
on the grid and in closed form for pure Gaussian states.
"""

from .gaussian import (
    HamiltonianVariant,
    MediatorEstimate,
    PhaseSpaceState,
    QuadraticHamiltonian,
    chsh_displaced_parity,
    evolve_gaussian,
    logarithmic_negativity,
    mediator_moment_inversion,
    optimize_chsh,
    optimize_chsh_many,
    probe_moments,
    symplectic_form,
    symplectic_propagator,
    witness_expectation,
)
from .grid import (
    EnsembleRepresentation,
    GridSpec,
    GridState,
    grid_moments,
    init_product_gaussian,
    split_step_evolve,
    to_ensemble,
)
from .observables import ObservableKind, ObservableSpec, parse_observable
from .brackets import (
    FunctionalGradient,
    classical_functional,
    continuity_rate_field,
    ensemble_hamiltonian_value,
    factorization_probe,
    functional_gradients,
    gaussian_brackets,
    hybrid_bracket,
    hybrid_brackets,
    quantum_functional,
    separability_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
