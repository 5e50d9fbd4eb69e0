"""Configuration-ensemble functionals and hybrid Poisson brackets.

Classical observables map to C_f = integral of P f(x, dS/dx); quantum
operators to their expectation in psi = sqrt(P) exp(iS/hbar).  Both are
functionals of (P, S), and the bracket

    {A, B} = integral of [dA/dP dB/dS - dA/dS dB/dP]

reproduces the classical Poisson bracket on C_f's and the commutator
bracket on expectations.  The integrand carries no extra factor of P:
only the P-free form satisfies the sector isomorphism identities.

Two evaluations give a bracket as a plain float.  `hybrid_brackets`
takes the midpoint sum of the integrand over a grid ensemble's support
mask, for any state the grid holds, with no error estimate.
`gaussian_brackets` takes a pure Gaussian state, for which every
functional derivative is a polynomial times P, and sums Gaussian
moments in closed form; `run_scenario` takes every bracket column from
it.  A value that is not finite is rejected where the report is built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussian import PhaseSpaceState, _symplectic_eigenvalues
# unused, but benchmarks/tracing.py patches to_ensemble under this name too
from .grid import (EnsembleRepresentation, GridState, _spectral_derivative,
                   to_ensemble)  # noqa: F401
from .observables import (ObservableKind, ObservableSpec, apply_quantum,
                          classical_partial, classical_value, mode_orders,
                          quantum_product, _require_kind)


class SupportOverlapError(ValueError):
    """Observable touches a subsystem it must not."""


class HermiticityError(ValueError):
    """Expectation value came out with a non-negligible imaginary part."""


class GaussianBracketError(ValueError):
    """A Gaussian state whose brackets cannot be given: it is mixed, so it
    has no wavefunction, or its position covariance is too ill-conditioned
    for double precision."""


@dataclass(frozen=True)
class FunctionalGradient:
    """Variational derivatives of a functional with respect to P and S."""

    d_dP: np.ndarray
    d_dS: np.ndarray


def classical_functional(ens: EnsembleRepresentation, f: ObservableSpec) -> float:
    """C_f = integral of P f(x, dS/dx) over the support mask."""
    _require_kind(f, ObservableKind.CLASSICAL)
    vals = classical_value(f, *_classical_fields(ens, f))
    return float(np.sum(ens.density[ens.support_mask] * vals[ens.support_mask])
                 * ens.spec.cell_volume)


def _classical_fields(ens: EnsembleRepresentation, f: ObservableSpec):
    """The x field over the grid, and the phase gradient u = dS/dx if f
    reads u, else 0: building u costs a transform."""
    x = np.broadcast_to(ens.spec.coordinate_field(2), ens.density.shape)
    reads_u = any("u" in factors for _, factors in f.terms)
    return x, ens.phase_gradient(2) if reads_u else 0.0


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
    u reads no u and has df/du = 0, so its dA/dS is zero and it costs no
    transform.
    `hybrid_brackets` calls this once per distinct observable of a state.
    """
    state, spec, mask = ens.state, ens.spec, ens.support_mask
    if obs.kind is ObservableKind.CLASSICAL:
        x, u = _classical_fields(ens, obs)
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


# ---------------------------------------------------------------------------
# Exact brackets of a pure Gaussian state
# ---------------------------------------------------------------------------

# A polynomial in z is a dict {(a, b, c): coefficient} of the monomials
# z_0^a z_1^b z_2^c, where r = (q, q', x) = rbar + L z, Sigma = L L^T, and
# z is standard normal under P
_ONE = (0, 0, 0)
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_POSITION_AXIS = {"q": 0, "q'": 1, "x": 2}
_MOMENTUM_AXIS = {"p": 0, "p'": 1, "k": 2}
# a bracket keeps about eps cond(R) relative accuracy, R the correlation
# matrix of Sigma; `gaussian_brackets` refuses states that would keep less
MAX_LOST_PRECISION = 1e-6


def _linear(const, row) -> dict:
    """const + row . z."""
    out = {_ONE: const}
    for j, c in enumerate(row):
        out[_UNIT[j]] = c
    return out


def _poly_add(a: dict, b: dict, scale=1.0) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * c
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for (a0, a1, a2), ca in a.items():
        for (b0, b1, b2), cb in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _normal_moment(n: int) -> int:
    """E[z^n] of a standard normal z: (n - 1)!! for even n, else 0."""
    return 0 if n % 2 else math.prod(range(n - 1, 0, -2))


class _PureGaussian:
    """psi proportional to exp(-delta^T A delta / 2 + i pbar . delta / hbar),
    delta = r - rbar, with A = Sigma^-1 / 2 - (i/hbar) B and B = Sigma^-1 C:
    Sigma is the position block of the covariance, C the
    position-momentum block, and B the Hessian of the phase S.

    Fields are polynomials in the whitened coordinates z = L^-1 delta, in
    which Sigma^-1 delta is L^-T z and every moment of P is an integer.
    Expanding in delta instead would cancel Sigma^-1 against Sigma in each
    moment, which lost up to 1e7 eps cond(Sigma) of a bracket's scale.
    """

    def __init__(self, state: PhaseSpaceState):
        hbar = state.hbar
        v = state.covariance
        pos, mom = [0, 2, 4], [1, 3, 5]
        sigma = v[np.ix_(pos, pos)]
        scale = 1.0 / np.sqrt(np.diag(sigma))
        lost = np.finfo(float).eps * np.linalg.cond(
            sigma * scale[:, None] * scale[None, :])
        if not lost <= MAX_LOST_PRECISION:
            raise GaussianBracketError(
                f"position covariance is too ill-conditioned: its brackets "
                f"would keep only about {lost:.3g} relative accuracy, above "
                f"{MAX_LOST_PRECISION:g}")
        # rounding lifted the symplectic eigenvalues of evolved pure states
        # by at most 0.25 lost (widths 1e-3 to 100, couplings to 1e3)
        nu = _symplectic_eigenvalues(v).max()
        if nu > 0.5 * hbar * (1.0 + 1e-9 + lost):
            raise GaussianBracketError(
                f"covariance is mixed (largest symplectic eigenvalue "
                f"{nu:.6g} > hbar/2 = {0.5 * hbar:.6g}): it has no "
                "wavefunction")
        l = np.linalg.cholesky(sigma)
        l_inv_t = np.linalg.inv(l).T
        # B is symmetric for a pure state
        b = np.linalg.solve(sigma, v[np.ix_(pos, mom)])
        b_l = 0.5 * (b + b.T) @ l
        self.hbar = hbar
        self.l = l.tolist()
        self.l_inv_t = l_inv_t.tolist()
        self.rbar = state.means[pos].tolist()
        pbar = state.means[mom].tolist()
        # u = pbar_x + (B delta)_x
        self.u = _linear(pbar[2], b_l[2].tolist())
        # -i hbar d_j ln psi = pbar_j + i hbar (A delta)_j, and A L z is
        # (L^-T / 2 - (i/hbar) B L) z
        a_l = 0.5 * l_inv_t - (1j / hbar) * b_l
        self.momentum = [_linear(pbar[j], (1j * hbar * a_l[j]).tolist())
                         for j in range(3)]

    def position(self, j: int) -> dict:
        """r_j = rbar_j + (L z)_j."""
        return _linear(self.rbar[j], self.l[j])

    def diff(self, m: dict, j: int) -> dict:
        """dm/d delta_j = sum over k of (L^-1)_kj dm/dz_k."""
        row = self.l_inv_t[j]
        out = {}
        for e, c in m.items():
            for k in range(3):
                if e[k]:
                    lower = list(e)
                    lower[k] -= 1
                    lower = tuple(lower)
                    out[lower] = out.get(lower, 0.0) + row[k] * e[k] * c
        return out

    def expect_product(self, a: dict, b: dict) -> float:
        """E_P[a b]."""
        total = 0.0
        for (a0, a1, a2), ca in a.items():
            for (b0, b1, b2), cb in b.items():
                total += ca * cb * (_normal_moment(a0 + b0)
                                    * _normal_moment(a1 + b1)
                                    * _normal_moment(a2 + b2))
        return total

    def apply_factor(self, m: dict, symbol: str) -> dict:
        """The polynomial of (symbol)(m psi) / psi."""
        if symbol in _POSITION_AXIS:
            return _poly_mul(m, self.position(_POSITION_AXIS[symbol]))
        j = _MOMENTUM_AXIS[symbol]
        return _poly_add(_poly_mul(m, self.momentum[j]), self.diff(m, j),
                         -1j * self.hbar)

    def quantum(self, obs: ObservableSpec) -> dict:
        """m with M psi = m psi, ordered as `apply_quantum` orders M."""
        out = {}
        for coeff, factors in obs.terms:
            term, count = {_ONE: 1.0}, 1
            for orders in mode_orders(factors):
                total = {}
                for order in orders:
                    t = term
                    for f in reversed(order):
                        t = self.apply_factor(t, f)
                    total = _poly_add(total, t)
                term = total
                count *= len(orders)
            out = _poly_add(out, term, coeff / count)
        return out

    def classical(self, f: ObservableSpec) -> dict:
        """f(x, u(r))."""
        x = self.position(2)
        out = {}
        for coeff, factors in f.terms:
            term = {_ONE: coeff}
            for name in factors:
                term = _poly_mul(term, x if name == "x" else self.u)
            out = _poly_add(out, term)
        return out

    def gradients(self, obs: ObservableSpec) -> tuple[dict, dict]:
        """(dA/dP, (dA/dS) / P) as real polynomials.

        Quantum: Re m and (2/hbar) Im m.  Classical: f and
        -(d_x g + g d_x ln P), with g = df/du and d_x ln P =
        -(Sigma^-1 delta)_x = -(L^-T z)_x.
        """
        if obs.kind is ObservableKind.QUANTUM:
            m = self.quantum(obs)
            return ({e: c.real for e, c in m.items()},
                    {e: 2.0 / self.hbar * c.imag for e, c in m.items()})
        g = self.classical(classical_partial(obs, "u"))
        d_ds = _poly_add(_poly_mul(g, _linear(0.0, self.l_inv_t[2])),
                         self.diff(g, 2), -1.0)
        return self.classical(obs), d_ds


def gaussian_brackets(state: PhaseSpaceState,
                      pairs: Sequence[tuple[ObservableSpec, ObservableSpec]],
                      ) -> list[float]:
    """{A, B} for each (A, B) in pairs, in closed form, for a pure
    Gaussian state.

    For psi = sqrt(P) exp(iS/hbar) Gaussian, dA/dP and (dA/dS)/P are
    polynomials in the configuration r = (q, q', x) (see `_PureGaussian`),
    so {A, B} = E_P[dA/dP (dB/dS)/P - (dA/dS)/P dB/dP] is a sum of
    Gaussian moments of P.  Quantum products are ordered as
    `apply_quantum` orders them.  Each distinct observable's derivatives
    are built once.  A bracket keeps a relative accuracy of about
    eps cond(R), R the correlation matrix of the position covariance;
    above MAX_LOST_PRECISION the state raises GaussianBracketError, as
    does a mixed covariance (a symplectic eigenvalue above hbar/2 beyond
    that rounding), which has no wavefunction.
    """
    if not pairs:
        return []
    psi = _PureGaussian(state)
    kept = {}
    results = []
    for a, b in pairs:
        for obs in (a, b):
            if obs not in kept:
                kept[obs] = psi.gradients(obs)
        (a_p, a_s), (b_p, b_s) = kept[a], kept[b]
        results.append(float(psi.expect_product(a_p, b_s)
                             - psi.expect_product(a_s, b_p)))
    return results


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
