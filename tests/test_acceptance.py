"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line with the measured numbers, then
asserts.  Criteria 2 and 3 assert what the model proves rather than
targets it cannot reach.  Check 2: p and q' are conserved, so for every
product Gaussian input the evolved Q-Q' cross block C has
det C = a^2 Var(p) Var(q') >= 0 (a = g1 g2 t^2 / 2), which the PPT
criterion (Simon, PRL 84, 2726 (2000)) classifies as separable; the
probe-probe negativity is zero and entanglement forms across Q|C.
Check 3: the commutator [g1 p x, g2 q' k] is central, so the grid
propagator is an exact product of three shears that sees dt only
through the sample times; the grid moments do not move with dt, and the
only cross-backend residual is the grid's band-limit floor at late
times.
"""

import time

import numpy as np

from hybridlab.brackets import (
    classical_functional,
    continuity_rate_field,
    hybrid_brackets,
    separability_probe,
)
from hybridlab.gaussian import (
    IDX_P,
    IDX_QP,
    MODE_SLICES,
    OMEGA,
    PhaseSpaceState,
    QuadraticHamiltonian,
    evolve_gaussian,
    logarithmic_negativity,
    mediator_moment_inversion,
    optimize_chsh,
    optimize_chsh_many,
    probe_moments,
    product_state,
    symplectic_propagator,
    witness_expectation,
)
from hybridlab.grid import (
    GridSpec,
    init_product_gaussian,
    split_step_evolve,
    to_ensemble,
)
from hybridlab.observables import (
    classical,
    quantum,
)

from fock_oracle import evolved_probe_log_negativity
from grid_oracle import grid_moments
from conftest import (
    BENCH_CHIRPS,
    BENCH_MEANS,
    BENCH_TILTS,
    BENCH_WIDTHS,
    classical_poisson,
    entangling_time_scan,
    half_resolution_estimates,
    quantum_commutator_over_ihbar,
    stack,
    two_mode_squeezed_state,
    vacuum_state,
)

from scipy.linalg import expm


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{detail}]")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_1_symplectic_suite():
    t0, cpu0 = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(42)
    worst_symp = 0.0
    worst_closed = 0.0
    for _ in range(100):
        g1, g2, t = rng.uniform(-2.0, 2.0, 3)
        h = QuadraticHamiltonian(g1, g2)
        s = symplectic_propagator(h, t)
        worst_symp = max(worst_symp,
                         float(np.abs(s.T @ OMEGA @ s - OMEGA).max()))
        oracle = expm(OMEGA @ h.gmatrix * t)
        worst_closed = max(worst_closed, float(np.abs(s - oracle).max()))
    elapsed = time.perf_counter() - t0
    # the time gate reads this process's CPU seconds: wall time also counts
    # the time other processes on a loaded host hold the cores
    cpu = time.process_time() - cpu0
    ok = worst_symp < 1e-10 and worst_closed < 1e-12 and cpu < 1.0
    report(1, "symplectic suite", ok,
           f"symplectic residual {worst_symp:.2e}, closed-form vs expm "
           f"{worst_closed:.2e}, {elapsed:.2f}s wall, {cpu:.2f}s CPU")


def test_2_probe_probe_entanglement():
    # Committed benchmark: squeezed probe inputs, unit couplings.  With p
    # and q' conserved, q(t) = q + g1 t x + a q' and p'(t) = p' - g2 t k +
    # a p, so the Q-Q' cross block of a product input is
    # C = [[a Var q', .], [0, a Var p]] and det C = a^2 Var(p) Var(q') >= 0:
    # PPT-separable at every t.  The scan must find no entangling time,
    # the Fock oracle must agree, and the Q|C split must entangle.
    g1 = g2 = 1.0
    widths = (0.5, 1.0, 0.5)
    st = product_state(widths=widths)
    h = QuadraticHamiltonian(g1, g2)
    times = np.linspace(0.05, 2.5, 50)
    t_entangle = entangling_time_scan(st, g1, g2, times)
    var_p = st.covariance[IDX_P, IDX_P]
    var_qp = st.covariance[IDX_QP, IDX_QP]
    worst_probe, worst_det, least_qc = 0.0, 0.0, np.inf
    for t in times:
        ev = evolve_gaussian(st, h, t)
        a = 0.5 * g1 * g2 * t * t
        cross = ev.covariance[MODE_SLICES["Q"], MODE_SLICES["Qprime"]]
        worst_det = max(worst_det, abs(np.linalg.det(cross)
                                       - a * a * var_p * var_qp))
        worst_probe = max(worst_probe, logarithmic_negativity(ev))
        least_qc = min(least_qc,
                       logarithmic_negativity(ev, (["Q"], ["C"])))
    ev = evolve_gaussian(st, h, 1.0)
    e_n = logarithmic_negativity(ev)
    e_n_qc = logarithmic_negativity(ev, (["Q"], ["C"]))
    oracle = evolved_probe_log_negativity(g1, g2, 1.0, widths=widths,
                                          cutoff=14)
    agrees = abs(e_n - oracle) < 1e-3
    ok = (t_entangle is None and e_n == 0.0 and worst_probe == 0.0
          and worst_det <= 1e-12 and agrees
          and e_n_qc > 0.01 and least_qc > 0.01)
    report(2, "probe-probe separability", ok,
           f"scan found t={t_entangle}, max E_N(Q|Q')={worst_probe:.1e} "
           f"(need 0), det C residual {worst_det:.1e} (need <= 1e-12), "
           f"Fock oracle {oracle:.3e} at t=1, agreement "
           f"{abs(e_n - oracle):.1e} (need < 1e-3), E_N(Q|C)={e_n_qc:.3f} "
           f"at t=1, min {least_qc:.3f} over scan (need > 0.01)")


def test_3_cross_backend_agreement():
    g1, g2 = 1.0, 1.0
    spec = GridSpec((64, 64, 64), (14.0, 6.0, 10.0))
    gauss0 = product_state(widths=BENCH_WIDTHS, means=BENCH_MEANS,
                           tilts=BENCH_TILTS, chirps=BENCH_CHIRPS)
    h = QuadraticHamiltonian(g1, g2)
    refs = [evolve_gaussian(gauss0, h, 0.25 * (j + 1)) for j in range(8)]

    def grid_samples(dt):
        state = init_product_gaussian(spec, means=BENCH_MEANS,
                                      widths=BENCH_WIDTHS, tilts=BENCH_TILTS,
                                      chirps=BENCH_CHIRPS)
        steps_per_unit = int(round(1.0 / dt))
        samples = []
        for _ in refs:
            state = split_step_evolve(state, g1, g2, dt,
                                      steps_per_unit // 4)
            samples.append(grid_moments(state))
        return samples

    def worst_difference(samples, others):
        return max(max(float(np.abs(m - n).max()), float(np.abs(v - w).max()))
                   for (m, v), (n, w) in zip(samples, others))

    coarse = grid_samples(1.0 / 64.0)
    fine = grid_samples(1.0 / 128.0)
    gauss = [(ref.means, ref.covariance) for ref in refs]
    r1 = worst_difference(coarse, gauss)
    r2 = worst_difference(fine, gauss)
    # the commutator of the two Hamiltonian terms is central, so the
    # propagator is exact: halving dt must leave the grid moments where
    # they are, and the residual to the Gaussian backend is the grid's
    # band-limit floor, which appears only at late sample times
    dt_shift = worst_difference(coarse, fine)
    ok = r1 < 1e-4 and r2 < 1e-4 and dt_shift <= 1e-10
    report(3, "cross-backend agreement", ok,
           f"moment residual {r1:.2e} at dt=1/64, {r2:.2e} at dt=1/128 "
           f"(need < 1e-4), dt=1/64 vs 1/128 grid moments differ by "
           f"{dt_shift:.1e} (need <= 1e-10)")


def test_4_isomorphism_identities():
    states = [
        init_product_gaussian(GridSpec((64, 64, 64), (8.0, 8.0, 8.0)),
                              widths=(1.0, 1.0, 1.0)),
        init_product_gaussian(GridSpec((64, 64, 64), (8.0, 8.0, 8.0)),
                              means=(0.3, 0.0, -0.2), widths=(1.0, 1.0, 1.0),
                              tilts=(0.2, 0.0, 0.3), chirps=(0.0, 0.1, 0.2)),
        init_product_gaussian(GridSpec((64, 64, 64), (8.0, 10.0, 8.0)),
                              widths=(0.8, 1.2, 1.0), chirps=(0.2, 0.0, 0.1)),
    ]
    classical_family = [classical(e) for e in ("x", "u", "x*u", "x*x", "u*u")]
    quantum_family = [quantum(e) for e in ("q", "p", "sym(q*p)", "q*q", "p*p")]
    worst = 0.0
    ok = True
    for state in states:
        ens = to_ensemble(state)
        dv = state.spec.cell_volume
        classical_pairs = [(f, g) for f in classical_family
                           for g in classical_family]
        quantum_pairs = [(m, n) for m in quantum_family for n in quantum_family]
        families = [
            (classical_pairs, [classical_functional(ens, classical_poisson(f, g))
                               for f, g in classical_pairs]),
            (quantum_pairs, [float(np.real(np.sum(
                np.conj(state.amplitudes)
                * quantum_commutator_over_ihbar(m, n, state))) * dv)
                for m, n in quantum_pairs]),
        ]
        # one hybrid_brackets call per state and family; each tolerance
        # reads the tests' half-resolution estimate of its bracket
        for pairs, targets in families:
            values = hybrid_brackets(ens, pairs)
            estimates = half_resolution_estimates(ens, pairs, values)
            for value, est, target in zip(values, estimates, targets):
                err = abs(value - target)
                worst = max(worst, err)
                ok = ok and err <= max(1e-6, 10.0 * est)
    report(4, "sector isomorphism", ok,
           f"worst identity residual {worst:.2e} over "
           f"{2 * 25 * len(states)} pairs on {len(states)} states")


def test_5_separability_dichotomy(product_grid_state, evolved_grid_state):
    m, f = quantum("sym(p'*p')"), classical("u*u")
    before = separability_probe(to_ensemble(product_grid_state), m, f)
    ens = to_ensemble(evolved_grid_state)
    after = separability_probe(ens, m, f)
    [est] = half_resolution_estimates(ens, [(m, f)], [after])
    ratio = abs(after) / max(est, 1e-300)
    ok = abs(before) <= 1e-8 and ratio > 10.0
    report(5, "separability dichotomy", ok,
           f"product-state bracket {before:.2e} (need <= 1e-8), "
           f"evolved bracket {after:.3f} at {ratio:.1e}x its "
           f"quadrature estimate (need > 10x)")


def test_6_mediator_tomography():
    g1 = g2 = 1.0
    planted = {"mean_x": 0.5, "mean_k": -0.3, "var_x": 0.64, "var_k": 0.9}
    w = np.sqrt(planted["var_x"])
    k_extra = planted["var_k"] - 0.25 / planted["var_x"]
    chirp = np.sqrt(k_extra) / w
    st = product_state(widths=(0.7, 1.1, w), means=(0.3, -0.2, 0.5),
                       tilts=(0.1, 0.0, -0.3), chirps=(0.0, 0.0, chirp))
    times = np.linspace(0.25, 2.0, 8)
    h = QuadraticHamiltonian(g1, g2)
    moments = probe_moments(evolve_gaussian(st, h, times))
    clean = mediator_moment_inversion(times, moments, g1, g2)
    noise = np.random.default_rng(11).normal(0.0, 1e-4, moments.shape)
    noisy = mediator_moment_inversion(times, moments + noise, g1, g2)
    planted["cov_xk"] = chirp * w * w
    clean_err = max(abs(getattr(clean, k) - v) for k, v in planted.items())
    noisy_err = max(abs(getattr(noisy, k) - v) / max(abs(v), 1.0)
                    for k, v in planted.items()
                    if k in ("mean_x", "mean_k", "var_x", "var_k"))
    ok = clean_err < 1e-6 and noisy_err < 0.01
    report(6, "mediator tomography", ok,
           f"noiseless error {clean_err:.2e} (need < 1e-6), "
           f"1e-4-noise relative error {noisy_err:.2e} (need < 1%)")


def test_7_witness_behavior():
    h = QuadraticHamiltonian(1.0, 1.0)
    worst_vac = max(abs(witness_expectation(evolve_gaussian(
        vacuum_state(), h, t))) for t in np.linspace(0.0, 2.0, 41))
    c = 0.2
    w = 0.8
    planted = product_state(widths=(None, None, w),
                            chirps=(0.0, 0.0, c / (w * w)))
    worst_planted = max(
        abs(witness_expectation(evolve_gaussian(planted, h, t)) + t * t * c)
        for t in np.linspace(0.0, 2.0, 41))
    ok = worst_vac < 1e-9 and worst_planted < 1e-6
    report(7, "witness behavior", ok,
           f"vacuum witness max {worst_vac:.2e} (need < 1e-9), planted "
           f"c=0.2 deviation from -g1 g2 t^2 c max {worst_planted:.2e}")


def random_separable_two_mode(rng, hbar=1.0):
    """Product of two random squeezed, rotated, heated one-mode states."""
    cov = 0.5 * hbar * np.eye(6)
    means = np.zeros(6)
    for block in (0, 2):
        theta = rng.uniform(0.0, np.pi)
        r = rng.uniform(-0.6, 0.6)
        n_th = rng.uniform(1.0, 1.5)
        rot = np.array([[np.cos(theta), np.sin(theta)],
                        [-np.sin(theta), np.cos(theta)]])
        s = rot @ np.diag([np.exp(r), np.exp(-r)])
        cov[block:block + 2, block:block + 2] = \
            0.5 * hbar * n_th * (s @ s.T)
        means[block:block + 2] = rng.uniform(-0.5, 0.5, 2)
    return PhaseSpaceState(means, cov, hbar)


def test_8_chsh_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    states = [random_separable_two_mode(rng) for _ in range(50)]
    worst = max(val for val, _ in optimize_chsh_many(stack(states)))
    tmsv_val, _ = optimize_chsh(two_mode_squeezed_state(0.3))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2.0 + 1e-6 and tmsv_val > 2.0 and elapsed < 30.0
    report(8, "CHSH bound", ok,
           f"max over 50 separable states {worst:.6f} (need <= 2), "
           f"squeezed r=0.3 optimum {tmsv_val:.4f} (need > 2), "
           f"{elapsed:.1f}s")


def test_9_equation_of_motion_residual():
    g1 = g2 = 1.0

    def residual(n, dt):
        spec = GridSpec((n, n, n), (12.0, 8.0, 10.0))
        state = init_product_gaussian(spec, means=BENCH_MEANS,
                                      widths=BENCH_WIDTHS, tilts=BENCH_TILTS,
                                      chirps=BENCH_CHIRPS)
        stepped = split_step_evolve(state, g1, g2, dt, 1)
        fd = (np.abs(stepped.amplitudes) ** 2
              - np.abs(state.amplitudes) ** 2) / dt
        mid = split_step_evolve(state, g1, g2, 0.5 * dt, 1)
        return float(np.abs(fd - continuity_rate_field(mid, g1, g2)).max())

    r_coarse = residual(64, 0.04)
    r_mid = residual(64, 0.02)
    r_fine = residual(64, 0.01)
    ratios = (r_coarse / r_mid, r_mid / r_fine)
    coarse_grid = residual(32, 0.01)
    ok = all(abs(r - 4.0) <= 0.8 for r in ratios) \
        and r_fine <= coarse_grid
    report(9, "equation-of-motion residual", ok,
           f"dt-halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
           f"(need ~4), residual {r_fine:.2e} at 64^3 vs "
           f"{coarse_grid:.2e} at 32^3")
