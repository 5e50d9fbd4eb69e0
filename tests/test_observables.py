import ast
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridlab.grid import GridSpec, apply_operator, init_product_gaussian
from hybridlab.observables import (
    CLASSICAL_PRIMITIVES,
    MAX_FACTORS_PER_MODE,
    QUANTUM_PRIMITIVES,
    KindMismatchError,
    ObservableKind,
    ObservableSpec,
    ParseError,
    apply_quantum,
    classical,
    classical_partial,
    classical_value,
    parse_observable,
    quantum,
)

from grid_oracle import grid_moments
from conftest import (BENCH_BRACKET_PAIRS, classical_poisson,
                      quantum_commutator_over_ihbar)

REPO = Path(__file__).resolve().parents[1]


class TestParsing:
    @pytest.mark.parametrize("text", [
        "C[ x*u ]",
        "C[ x*x + u*u ]",
        "C[ 2*x ]",
        "C[ 0.5*x*u + 3*u ]",
        "Q[ q ]",
        "Q[ sym(q*p') ]",
        "Q[ sym(p'*p') ]",
        "Q[ q*q + 2*sym(x*k) ]",
    ])
    def test_round_trip(self, text):
        spec = parse_observable(text)
        again = parse_observable(str(spec))
        assert again == spec

    @pytest.mark.parametrize("spec", [
        classical_partial(classical("u"), "x"),
        ObservableSpec(ObservableKind.QUANTUM, ()),
        ObservableSpec(ObservableKind.CLASSICAL, ((-0.0, ()),)),
    ])
    def test_zero_observable_round_trips(self, spec):
        # the zero observable has no terms, whether built empty or from
        # one zero constant; it is written as its one zero constant
        assert spec.terms == ()
        assert str(spec) == f"{spec.kind.value}[ 0 ]"
        assert parse_observable(str(spec)) == spec

    def test_shorthand_helpers(self):
        assert classical("x*u") == parse_observable("C[ x*u ]")
        assert quantum("sym(q*p')") == parse_observable("Q[ sym(q*p') ]")

    def test_signs_and_constants(self):
        spec = classical("1 - 2*x + x*u")
        assert spec.terms == ((1.0, ()), (-2.0, ("x",)), (1.0, ("x", "u")))

    @pytest.mark.parametrize("expr,terms", [
        # the second sign belongs to the term: q - (-2p), not q - 2p
        ("x - -2*u", ((1.0, ("x",)), (2.0, ("u",)))),
        ("x - +u", ((1.0, ("x",)), (-1.0, ("u",)))),
        ("x + -u", ((1.0, ("x",)), (-1.0, ("u",)))),
        ("-x", ((-1.0, ("x",)),)),
        ("x*2*0.5e1 + 1E-3", ((10.0, ("x",)), (1e-3, ()))),
    ])
    def test_term_signs_and_numbers(self, expr, terms):
        assert classical(expr).terms == terms

    def test_primed_symbols(self):
        spec = quantum("q'*p'")
        assert spec.terms == ((1.0, ("q'", "p'")),)

    @pytest.mark.parametrize("text", [
        "C[ q ]",            # quantum primitive in a classical spec
        "Q[ u ]",            # classical primitive in a quantum spec
        "X[ x ]",
        "C[ x u ]",          # missing '*'
        "C[ x",
        "Q[ sym(q*p' ]",     # unclosed sym
        "C[ x ? u ]",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises((ParseError, ValueError)):
            parse_observable(text)

    # each of these used to parse to a wrong or empty spec
    @pytest.mark.parametrize("text", [
        "C[ 2*-x ]", "C[ x* ]", "C[ *x ]", "C[ x**u ]", "C[ x - ]",
        "C[ --x ]", "C[ -+x ]", "Q[ sym() ]", "Q[ sym(q p) ]",
        "Q[ sym(q*) ]", "C[ + ]", "C[ - ]", "Q[ ]",
    ])
    def test_rejects_malformed_terms(self, text):
        with pytest.raises(ParseError, match="unexpected"):
            parse_observable(text)

    def test_mode_support(self):
        assert quantum("sym(q*p')").mode_support == {"Q", "Qprime"}
        assert quantum("x*k").mode_support == {"C"}
        assert classical("x*u").mode_support == {"C"}


def term_lists(primitives, max_factors):
    coefficient = st.floats(allow_nan=False, allow_infinity=False)
    factors = st.lists(st.sampled_from(primitives), max_size=max_factors)
    return st.lists(st.tuples(coefficient, factors.map(tuple)),
                    max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    term_lists(CLASSICAL_PRIMITIVES, MAX_FACTORS_PER_MODE).map(
        lambda terms: ObservableSpec(ObservableKind.CLASSICAL, terms)),
    term_lists(QUANTUM_PRIMITIVES, MAX_FACTORS_PER_MODE).map(
        lambda terms: ObservableSpec(ObservableKind.QUANTUM, terms))))
def test_canonical_form_round_trips(spec):
    assert parse_observable(str(spec)) == spec


VALUES = {"x": 1.3, "u": -0.7}


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(["x", "u", "2", "0.5", "1e-3", "*", "+", "-",
                                 "sym(", ")", " "]),
                min_size=1, max_size=12).map("".join))
@example("x - -2*u")            # once read as x - 2u
def test_accepted_specs_read_as_python_does(text):
    # '**' is a power in Python, where 22**22**22 would never finish; the
    # parser rejects it (test_rejects_malformed_terms)
    if "**" in text:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # "2(" warns, then fails
            expected = eval(text.replace("sym(", "("), {"__builtins__": {}},
                            dict(VALUES))
    except (SyntaxError, NameError, TypeError):
        return                                  # not Python: nothing to compare
    if not isinstance(expected, (int, float)):
        return                                  # "()" is a tuple
    try:
        spec = classical(text)
    except ValueError:
        return
    terms = [c * math.prod(VALUES[f] for f in fs) for c, fs in spec.terms]
    # the two may round differently where terms cancel
    assert math.isclose(sum(terms), expected, rel_tol=1e-12,
                        abs_tol=1e-12 * sum(map(abs, terms)))


def workload_bracket_pairs() -> list[str]:
    """PROBE_MEDIATOR and BRACKET_PAIRS of benchmarks/workloads.py, read
    without importing it."""
    tree = ast.parse((REPO / "benchmarks" / "workloads.py").read_text())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            values[node.targets[0].id] = node.value
    probe = values["PROBE_MEDIATOR"].value
    return [probe] + [probe if isinstance(e, ast.Name) else e.value
                      for e in values["BRACKET_PAIRS"].elts]


def readme_specs() -> list[str]:
    """The specs that README.md shows: its config's bracket_pairs, the
    specs it quotes, and its quantum(...) and classical(...) calls."""
    text = (REPO / "README.md").read_text()
    specs = [side for pairs in re.findall(r"^bracket_pairs = (.*)$", text,
                                          re.MULTILINE)
             for pair in pairs.split(";") for side in pair.split("|")]
    specs += [s for s in re.findall(r"`([CQ]\[[^`]*\])`", text)
              if "..." not in s]
    specs += [f"{'Q' if kind == 'quantum' else 'C'}[ {expr} ]" for kind, expr
              in re.findall(r"(quantum|classical)\(\"([^\"]*)\"\)", text)]
    return specs


REPO_SPECS = sorted({side.strip()
                     for pair in workload_bracket_pairs() + list(BENCH_BRACKET_PAIRS)
                     for side in pair.split("|")} | set(readme_specs()))


def test_repo_specs_found():
    assert len(workload_bracket_pairs()) == 5 and len(readme_specs()) >= 6


@pytest.mark.parametrize("text", REPO_SPECS)
def test_repo_specs_parse_and_round_trip(text):
    # a stricter grammar must not break the benchmark's or README's specs
    spec = parse_observable(text)
    assert parse_observable(str(spec)) == spec


class TestClassicalCalculus:
    def test_value_evaluation(self):
        x = np.array([1.0, 2.0])
        u = np.array([3.0, -1.0])
        spec = classical("2*x*u + u*u - 1")
        np.testing.assert_allclose(classical_value(spec, x, u),
                                   2 * x * u + u * u - 1)

    def test_partial_derivatives(self):
        spec = classical("x*x*u")
        dx = classical_partial(spec, "x")
        du = classical_partial(spec, "u")
        x = np.linspace(-1, 1, 5)
        u = np.linspace(0, 2, 5)
        np.testing.assert_allclose(classical_value(dx, x, u), 2 * x * u)
        np.testing.assert_allclose(classical_value(du, x, u), x * x)

    def test_poisson_canonical_pair(self):
        pb = classical_poisson(classical("x"), classical("u"))
        x = np.zeros(3)
        np.testing.assert_allclose(classical_value(pb, x, x), 1.0)

    def test_poisson_antisymmetry(self):
        a, b = classical("x*x"), classical("x*u + u*u")
        x = np.linspace(-2, 2, 7)
        u = np.linspace(-1, 3, 7)
        np.testing.assert_allclose(
            classical_value(classical_poisson(a, b), x, u),
            -classical_value(classical_poisson(b, a), x, u))

    def test_kind_checked(self):
        with pytest.raises(KindMismatchError):
            classical_value(quantum("q"), np.zeros(2), np.zeros(2))
        with pytest.raises(KindMismatchError):
            classical_partial(quantum("q"), "x")


@pytest.fixture(scope="module")
def state():
    spec = GridSpec((64, 32, 32), (10.0, 8.0, 8.0))
    return init_product_gaussian(spec, means=(0.5, 0.0, 0.0),
                                 widths=(0.9, None, None),
                                 tilts=(0.4, 0.0, 0.0))


class TestQuantumApplication:
    def expectation(self, spec, state):
        field = apply_quantum(spec, state)
        return float(np.real(np.sum(np.conj(state.amplitudes) * field))
                     * state.spec.cell_volume)

    def test_first_moments_match_grid_moments(self, state):
        means, _ = grid_moments(state)
        assert self.expectation(quantum("q"), state) \
            == pytest.approx(means[0], abs=1e-12)
        assert self.expectation(quantum("p"), state) \
            == pytest.approx(means[1], abs=1e-12)

    def test_symmetrized_cross_moment(self, state):
        means, cov = grid_moments(state)
        val = self.expectation(quantum("sym(q*p)"), state)
        assert val == pytest.approx(cov[0, 1] + means[0] * means[1], abs=1e-10)

    def test_symmetrization_order_invariance(self, state):
        a = apply_quantum(quantum("sym(q*p)"), state)
        b = apply_quantum(quantum("sym(p*q)"), state)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unsymmetrized_product_differs_by_commutator(self, state):
        psi, spec = state.amplitudes, state.spec
        qp = apply_operator(apply_operator(psi, spec, "p"), spec, "q")
        pq = apply_operator(apply_operator(psi, spec, "q"), spec, "p")
        np.testing.assert_allclose(qp - pq, 1j * spec.hbar * psi, atol=1e-8)

    def test_canonical_commutator(self, state):
        field = quantum_commutator_over_ihbar(quantum("q"), quantum("p"), state)
        np.testing.assert_allclose(field, state.amplitudes, atol=1e-8)

    def test_commuting_pair(self, state):
        field = quantum_commutator_over_ihbar(quantum("q"), quantum("p'"),
                                              state)
        np.testing.assert_allclose(field, 0.0, atol=1e-10)

    def test_kind_checked(self, state):
        with pytest.raises(KindMismatchError):
            apply_quantum(classical("x"), state)


def test_spec_rejects_nonfinite_coefficient():
    with pytest.raises(ValueError):
        ObservableSpec(ObservableKind.CLASSICAL, ((float("nan"), ("x",)),))


@pytest.mark.parametrize("expr", [
    "sym(q*q*q*q*p*p*p*p)",             # 8 factors on one mode
    "sym(q*p*q*q'*p'*q'*x*k*x)",        # 9 factors, 3 on each mode
])
def test_spec_accepts_eight_factors_per_mode(expr):
    assert len(quantum(expr).terms[0][1]) in (8, 9)


@pytest.mark.parametrize("factors", [
    ("q",) * 9,
    ("q",) * 11 + ("p",) * 10,          # never finished enumerating
    ("x", "x", "q") + ("k",) * 7,
])
def test_spec_rejects_more_than_eight_factors_on_one_mode(factors):
    # apply_quantum would enumerate all n! orders of the mode's factors
    with pytest.raises(ValueError, match="factors on mode"):
        ObservableSpec(ObservableKind.QUANTUM, ((1.0, factors),))


def test_classical_spec_accepts_eight_factors():
    assert len(classical("x*x*x*x*u*u*u*u").terms[0][1]) == 8


@pytest.mark.parametrize("factors", [
    ("u",) * 9,
    ("u",) * 30,
    ("x", "u") * 5,
])
def test_classical_spec_rejects_more_than_eight_factors(factors):
    # every classical primitive lives on the mediator mode C, and the
    # exact brackets' polynomials grow with the degree
    with pytest.raises(ValueError,
                       match=f"has {len(factors)} factors on mode C"):
        ObservableSpec(ObservableKind.CLASSICAL, ((1.0, factors),))


def test_apply_quantum_is_independent_of_hash_seed():
    # the six orders of a cubic monomial must be summed in the same order
    # whatever the string-hash seed of the process
    code = (
        "import sys\n"
        "from hybridlab.grid import GridSpec, init_product_gaussian\n"
        "from hybridlab.observables import apply_quantum, quantum\n"
        "spec = GridSpec((32, 32, 32), (10.0, 6.0, 8.0))\n"
        "st = init_product_gaussian(spec, means=(0.5, 0.0, 0.0),\n"
        "                           tilts=(0.4, 0.0, 0.0),\n"
        "                           chirps=(0.0, 0.3, 0.4))\n"
        "out = apply_quantum(quantum(\"sym(q*p'*x)\"), st)\n"
        "sys.stdout.buffer.write(out.tobytes())\n")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                      capture_output=True, check=True).stdout)
    assert outputs[0] == outputs[1]


def full_symmetrization(spec, state):
    """The Weyl average over all n! orders of each monomial's factors,
    applied right to left and summed in first-seen order: the oracle for
    apply_quantum, which averages within each mode only."""
    psi = state.amplitudes
    out = np.zeros_like(psi)
    for coeff, factors in spec.terms:
        if not factors:
            out += coeff * psi
            continue
        orders = dict.fromkeys(itertools.permutations(factors))
        acc = np.zeros_like(psi)
        for order in orders:
            term = psi
            for f in reversed(order):
                term = apply_operator(term, state.spec, f)
            acc += term
        out += (coeff / len(orders)) * acc
    return out


@pytest.fixture(scope="module")
def state_hbar2():
    spec = GridSpec((32, 32, 32), (10.0, 8.0, 8.0), hbar=2.0)
    return init_product_gaussian(spec, means=(0.5, 0.0, -0.3),
                                 tilts=(0.4, 0.0, 0.2),
                                 chirps=(0.0, 0.3, 0.4))


class TestPerModeSymmetrization:
    MIXED = ["sym(q*p'*x)", "sym(q*p*k)", "q*q'*q", "2*sym(p*k) - 0.5 + q'"]

    @pytest.mark.parametrize("expr", MIXED)
    @pytest.mark.parametrize("fixture", ["state", "evolved_grid_state",
                                         "state_hbar2"])
    def test_matches_full_average(self, expr, fixture, request):
        st = request.getfixturevalue(fixture)
        spec = quantum(expr)
        expected = full_symmetrization(spec, st)
        got = apply_quantum(spec, st)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("expr", ["sym(q*p)", "p'*p'", "sym(q*q*p)",
                                      "q*q + 2*sym(x*k)"])
    def test_single_mode_terms_unchanged(self, expr, evolved_grid_state):
        # a monomial on one mode is summed over all its orders, as before
        spec = quantum(expr)
        assert np.array_equal(apply_quantum(spec, evolved_grid_state),
                              full_symmetrization(spec, evolved_grid_state))

    def test_cubic_cross_mode_product_takes_one_order(self, state, fft_calls):
        spec = quantum("sym(q*p'*x)")
        full_symmetrization(spec, state)
        assert sorted(fft_calls) == ["fft"] * 6 + ["ifft"] * 6
        fft_calls.clear()
        apply_quantum(spec, state)
        assert sorted(fft_calls) == ["fft", "ifft"]

    def test_empty_spec_gives_zero(self, state):
        out = apply_quantum(ObservableSpec(ObservableKind.QUANTUM, ()), state)
        assert out.shape == state.amplitudes.shape and not out.any()
