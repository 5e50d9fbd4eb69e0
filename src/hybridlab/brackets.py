"""Configuration-ensemble functionals and hybrid Poisson brackets.

Classical observables map to C_f = integral of P f(x, dS/dx); quantum
operators to their expectation in psi = sqrt(P) exp(iS/hbar).  Both are
functionals of (P, S), and the bracket

    {A, B} = integral of [dA/dP dB/dS - dA/dS dB/dP]

reproduces the classical Poisson bracket on C_f's and the commutator
bracket on expectations.  The integrand carries no extra factor of P:
only the P-free form satisfies the sector isomorphism identities.  A
bracket is a plain float: the midpoint sum of the integrand over the
support mask.  It carries no error estimate; a value that is not finite
is rejected where the report is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# unused, but benchmarks/tracing.py patches to_ensemble under this name too
from .grid import (EnsembleRepresentation, GridState, _spectral_derivative,
                   to_ensemble)  # noqa: F401
from .observables import (ObservableKind, ObservableSpec, apply_quantum,
                          classical_partial, classical_value, quantum_product,
                          _require_kind)


class SupportOverlapError(ValueError):
    """Observable touches a subsystem it must not."""


class HermiticityError(ValueError):
    """Expectation value came out with a non-negligible imaginary part."""


@dataclass(frozen=True)
class FunctionalGradient:
    """Variational derivatives of a functional with respect to P and S."""

    d_dP: np.ndarray
    d_dS: np.ndarray


def classical_functional(ens: EnsembleRepresentation, f: ObservableSpec) -> float:
    """C_f = integral of P f(x, dS/dx) over the support mask."""
    _require_kind(f, ObservableKind.CLASSICAL)
    x = ens.spec.coordinate_field(2)
    u = ens.phase_gradient(2)
    vals = classical_value(f, np.broadcast_to(x, ens.density.shape), u)
    return float(np.sum(ens.density[ens.support_mask] * vals[ens.support_mask])
                 * ens.spec.cell_volume)


def quantum_functional(state: GridState, m: ObservableSpec,
                       imag_tol: float = 1e-8) -> float:
    """<psi| M |psi> with M the Weyl-symmetrized operator polynomial."""
    _require_kind(m, ObservableKind.QUANTUM)
    mpsi = apply_quantum(m, state)
    val = np.sum(np.conj(state.amplitudes) * mpsi) * state.spec.cell_volume
    if abs(val.imag) > imag_tol:
        raise HermiticityError(
            f"expectation has imaginary part {val.imag:.3e}; spec is not "
            "Hermitian after symmetrization")
    return float(val.real)


def functional_gradients(ens: EnsembleRepresentation,
                         obs: ObservableSpec) -> FunctionalGradient:
    """Variational derivatives of C_f or Q_M with respect to (P, S).

    Classical: dA/dP = f(x, u), dA/dS = -d/dx (P df/du).
    Quantum:   dA/dP = Re[(M psi)* psi]/P, dA/dS = -(2/hbar) Im[(M psi)* psi].
    Both vanish off the ensemble's support mask.  A classical f without
    u has df/du = 0, so its dA/dS is zero and costs no transform.
    `hybrid_brackets` calls this once per distinct observable of a state.
    """
    state, spec, mask = ens.state, ens.spec, ens.support_mask
    if obs.kind is ObservableKind.CLASSICAL:
        x = np.broadcast_to(spec.coordinate_field(2), ens.density.shape)
        u = ens.phase_gradient(2)
        d_dp = classical_value(obs, x, u)
        d_dp[~mask] = 0.0
        df_du = classical_partial(obs, "u")
        if not df_du.terms:
            return FunctionalGradient(d_dp, np.zeros_like(ens.density))
        flux = ens.density * classical_value(df_du, x, u)
        d_ds = -np.real(_spectral_derivative(flux.astype(complex), spec, 2))
    else:
        mpsi = apply_quantum(obs, state)
        overlap = np.conj(mpsi) * state.amplitudes
        # the division leaves d_dp at 0 off the mask
        d_dp = np.zeros_like(ens.density)
        np.divide(np.real(overlap), ens.density, out=d_dp, where=mask)
        d_ds = -(2.0 / spec.hbar) * np.imag(overlap)
    d_ds[~mask] = 0.0
    return FunctionalGradient(d_dp, d_ds)


def hybrid_brackets(ens: EnsembleRepresentation,
                    pairs: Sequence[tuple[ObservableSpec, ObservableSpec]],
                    ) -> list[float]:
    """{A, B} for each (A, B) in pairs, over the ensemble's support mask.

    The brackets of one state share its ensemble, with the phase
    gradient u = dS/dx the classical functionals read, and each distinct
    observable's gradients (dA/dP, dA/dS): they are built at the
    observable's first pair and dropped after its last.
    """
    kept = {}
    results = []
    for i, (a, b) in enumerate(pairs):
        for obs in (a, b):
            if obs not in kept:
                kept[obs] = functional_gradients(ens, obs)
        ga, gb = kept[a], kept[b]
        integrand = ga.d_dP * gb.d_dS - ga.d_dS * gb.d_dP
        # a gradient or integrand held past its last use would join the
        # next pair's peak
        del ga, gb
        later = pairs[i + 1:]
        for obs in (a, b):
            if not any(obs in pair for pair in later):
                kept.pop(obs, None)
        results.append(float(np.sum(integrand[ens.support_mask])
                             * ens.spec.cell_volume))
        del integrand
    return results


def hybrid_bracket(ens: EnsembleRepresentation, a: ObservableSpec,
                   b: ObservableSpec) -> float:
    """{A, B} over the ensemble's support mask: `hybrid_brackets` on the
    one pair.  A state's brackets are cheaper in one `hybrid_brackets`
    call, which builds each observable's gradients once."""
    return hybrid_brackets(ens, [(a, b)])[0]


def separability_probe(ens: EnsembleRepresentation, m: ObservableSpec,
                       f: ObservableSpec) -> float:
    """Cross-sector bracket {Q_M, C_f}; nonzero magnitude = non-locality.

    M must be supported on exactly one probe; touching the mediator is
    a support overlap, and f must be classical.
    """
    _require_kind(m, ObservableKind.QUANTUM)
    _require_kind(f, ObservableKind.CLASSICAL)
    support = m.mode_support
    if "C" in support:
        raise SupportOverlapError("probe observable must not touch the mediator")
    if len(support) != 1:
        raise SupportOverlapError("probe observable must act on a single probe")
    return hybrid_bracket(ens, m, f)


def ensemble_hamiltonian_value(ens: EnsembleRepresentation,
                               g1: float, g2: float) -> float:
    """g1 * int P (dS/dq) x + g2 * int P (dS/dx) q'."""
    x = ens.spec.coordinate_field(2)
    qp = ens.spec.coordinate_field(1)
    mask = ens.support_mask
    term1 = ens.density * ens.phase_gradient(0) * x
    term2 = ens.density * ens.phase_gradient(2) * qp
    dv = ens.spec.cell_volume
    return float((g1 * np.sum(term1[mask]) + g2 * np.sum(term2[mask])) * dv)


def continuity_rate_field(state: GridState, g1: float, g2: float) -> np.ndarray:
    """dH/dS of the ensemble Hamiltonian: -d_q(g1 P x) - d_x(g2 P q').

    This is the right-hand side of the density equation of motion
    dP/dt = dH/dS, evaluated spectrally.
    """
    spec = state.spec
    p = np.abs(state.amplitudes) ** 2
    x = spec.coordinate_field(2)
    qp = spec.coordinate_field(1)
    flux_q = (g1 * p * x).astype(complex)
    flux_x = (g2 * p * qp).astype(complex)
    return -(np.real(_spectral_derivative(flux_q, spec, 0))
             + np.real(_spectral_derivative(flux_x, spec, 2)))


def factorization_probe(state: GridState, m: ObservableSpec,
                        mprime: ObservableSpec) -> tuple[float, float, float]:
    """(E_M, E_M', E_MM') for probe observables on disjoint supports."""
    _require_kind(m, ObservableKind.QUANTUM)
    _require_kind(mprime, ObservableKind.QUANTUM)
    if m.mode_support & mprime.mode_support:
        raise SupportOverlapError("probe observables must have disjoint supports")
    e_m = quantum_functional(state, m)
    e_mp = quantum_functional(state, mprime)
    e_joint = quantum_functional(state, quantum_product(m, mprime))
    return e_m, e_mp, e_joint
