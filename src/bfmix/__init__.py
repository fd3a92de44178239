"""Exact solutions of the 1D delta-interacting Bose-Fermi mixture.

Finite-size Bethe-ansatz ground states and excitations for the three
reference orderings (bff, fbf, ffb), thermodynamic-limit densities, and
ground-state phase diagrams, with a reproducible CLI (``bfmix``).
"""
from .algebra import CASES, GRADINGS, permutation_matrix, r_matrix, \
    ybe_residual
from .bae import (InvalidConfig, MixtureSpec, NonConvergence, Observables,
                  QuantumNumberConfig, RootSet, energy_momentum, momentum,
                  required_parities, residual, jacobian, solve, solve_many,
                  validate)
from .excitations import (AddOneFermion, DispersionPoint, GroundState,
                          ParticleHole, TwoFermions, add_fermion_numbers,
                          density_histogram, dispersion,
                          ground_state_numbers, particle_hole_numbers,
                          sector_ground, two_fermion_numbers)
from .phases import (FieldPoint, PhasePoint, classify, general_phase,
                     grand_energy, phase_scan, strong_coupling_phase,
                     weak_coupling_phase, young_sectors)
from .thermo import (DensityProfile, fermion_dressed_energy, hole_energy,
                     kernel, solve_ground_density)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
