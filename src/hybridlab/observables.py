"""Symbolic observables for both sectors, with a canonical text form.

Classical observables are polynomials in x and u = dS/dx (the mediator
configuration and its phase gradient); quantum observables are real
polynomials in the six canonical operators, Weyl-symmetrized before
evaluation so every spec is Hermitian.

Text grammar (round-trip guaranteed)::

    spec      := ('C' | 'Q') '[' expr ']'
    expr      := term (('+' | '-') term)*
    term      := [number '*'] factors | number
    factors   := primitive ('*' primitive)* | 'sym(' primitive ('*' primitive)* ')'
    primitive := 'x' | 'u'                      (classical)
               | 'q' | 'p' | "q'" | "p'" | 'x' | 'k'   (quantum)

The sym(...) wrapper is cosmetic: quantum products are symmetrized
either way.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import GridSpec, GridState, apply_operator

CLASSICAL_PRIMITIVES = ("x", "u")
QUANTUM_PRIMITIVES = ("q", "p", "q'", "p'", "x", "k")
_MODE_OF = {"q": "Q", "p": "Q", "q'": "Qprime", "p'": "Qprime", "x": "C", "k": "C"}
# apply_quantum sums a mode's factors over their distinct orders, found
# among all n! permutations: 8! = 40320 enumerate in milliseconds, and
# each further factor multiplies the time and memory
MAX_FACTORS_PER_MODE = 8


class ObservableKind(Enum):
    CLASSICAL = "C"
    QUANTUM = "Q"


class KindMismatchError(TypeError):
    """Observable of the wrong sector passed to a functional."""


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ObservableSpec:
    """Sum of coefficient * product-of-primitives terms."""

    kind: ObservableKind
    terms: tuple[tuple[float, tuple[str, ...]], ...]

    def __post_init__(self):
        allowed = (CLASSICAL_PRIMITIVES if self.kind is ObservableKind.CLASSICAL
                   else QUANTUM_PRIMITIVES)
        norm = []
        for coeff, factors in self.terms:
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            for f in factors:
                if f not in allowed:
                    raise ValueError(f"primitive {f!r} not allowed in "
                                     f"{self.kind.name} observables")
            if self.kind is ObservableKind.QUANTUM:
                for mode, n in Counter(_MODE_OF[f] for f in factors).items():
                    if n > MAX_FACTORS_PER_MODE:
                        raise ValueError(
                            f"a quantum monomial has {n} factors on mode "
                            f"{mode}; at most {MAX_FACTORS_PER_MODE} are "
                            "allowed")
            norm.append((coeff, tuple(factors)))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def mode_support(self) -> frozenset[str]:
        if self.kind is ObservableKind.CLASSICAL:
            return frozenset({"C"})
        return frozenset(_MODE_OF[f] for _, fs in self.terms for f in fs)

    def __str__(self) -> str:
        parts = []
        for coeff, factors in self.terms:
            if not factors:
                body = _fmt_number(coeff)
            else:
                prod = "*".join(factors)
                if self.kind is ObservableKind.QUANTUM and len(factors) > 1:
                    prod = f"sym({prod})"
                body = prod if coeff == 1.0 else f"{_fmt_number(coeff)}*{prod}"
            parts.append(body)
        return f"{self.kind.value}[ {' + '.join(parts) if parts else '0'} ]"


def _fmt_number(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def classical(expr: str) -> ObservableSpec:
    return parse_observable(f"C[ {expr} ]")


def quantum(expr: str) -> ObservableSpec:
    return parse_observable(f"Q[ {expr} ]")


_TOKEN = re.compile(r"\s*(sym\(|[()\[\]+\-*]|[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?"
                    r"|[a-z]'?|,)", re.IGNORECASE)


def _tokenize(text: str) -> list[str]:
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character at {text[pos:pos+8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_observable(text: str) -> ObservableSpec:
    """Parse the canonical text form, e.g. C[ x*u ] or Q[ sym(q*p') ]."""
    toks = _tokenize(text.strip())
    if len(toks) < 3 or toks[0] not in ("C", "Q") or toks[1] != "[" or toks[-1] != "]":
        raise ParseError("expected C[ ... ] or Q[ ... ]")
    kind = ObservableKind.CLASSICAL if toks[0] == "C" else ObservableKind.QUANTUM
    body = toks[2:-1]
    terms: list[tuple[float, tuple[str, ...]]] = []
    i = 0
    sign = 1.0
    while i < len(body):
        tok = body[i]
        if tok == "+":
            sign = 1.0
            i += 1
            continue
        if tok == "-":
            sign = -1.0
            i += 1
            continue
        coeff = sign
        factors: list[str] = []
        expect_factor = True
        while i < len(body) and body[i] not in ("+", "-"):
            tok = body[i]
            if tok == "*":
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(f"missing '*' before {tok!r}")
            if tok == "sym(":
                i += 1
                while i < len(body) and body[i] != ")":
                    if body[i] != "*":
                        factors.append(body[i])
                    i += 1
                if i == len(body):
                    raise ParseError("unclosed sym(")
                i += 1
            elif re.fullmatch(r"[0-9.eE+-]+", tok) and tok[0].isdigit():
                coeff *= float(tok)
                i += 1
            else:
                factors.append(tok)
                i += 1
            expect_factor = False
        terms.append((coeff, tuple(factors)))
        sign = 1.0
    return ObservableSpec(kind, tuple(terms))


# ---------------------------------------------------------------------------
# Term calculus for classical observables f(x, u)
# ---------------------------------------------------------------------------

def classical_value(spec: ObservableSpec, x_field: np.ndarray,
                    u_field: np.ndarray) -> np.ndarray:
    """Evaluate f(x, u) pointwise."""
    _require_kind(spec, ObservableKind.CLASSICAL)
    out = np.zeros(np.broadcast(x_field, u_field).shape)
    for coeff, factors in spec.terms:
        term = np.full_like(out, coeff)
        for f in factors:
            term = term * (x_field if f == "x" else u_field)
        out += term
    return out


def classical_partial(spec: ObservableSpec, wrt: str) -> ObservableSpec:
    """Termwise partial derivative of f(x, u) with respect to x or u."""
    _require_kind(spec, ObservableKind.CLASSICAL)
    terms = []
    for coeff, factors in spec.terms:
        for pos, f in enumerate(factors):
            if f == wrt:
                terms.append((coeff, factors[:pos] + factors[pos + 1:]))
    return ObservableSpec(ObservableKind.CLASSICAL, tuple(terms))


def classical_poisson(a: ObservableSpec, b: ObservableSpec) -> ObservableSpec:
    """{f, g} in the (x, u) pair: f_x g_u - f_u g_x."""
    return _spec_sum(
        _spec_product(classical_partial(a, "x"), classical_partial(b, "u")),
        _spec_scale(_spec_product(classical_partial(a, "u"),
                                  classical_partial(b, "x")), -1.0))


def _spec_product(a: ObservableSpec, b: ObservableSpec) -> ObservableSpec:
    terms = tuple((ca * cb, fa + fb) for ca, fa in a.terms for cb, fb in b.terms)
    return ObservableSpec(a.kind, terms)


def _spec_sum(a: ObservableSpec, b: ObservableSpec) -> ObservableSpec:
    return ObservableSpec(a.kind, a.terms + b.terms)


def _spec_scale(a: ObservableSpec, s: float) -> ObservableSpec:
    return ObservableSpec(a.kind, tuple((s * c, f) for c, f in a.terms))


def quantum_product(a: ObservableSpec, b: ObservableSpec) -> ObservableSpec:
    """Operator product of two quantum specs (factors concatenated)."""
    _require_kind(a, ObservableKind.QUANTUM)
    _require_kind(b, ObservableKind.QUANTUM)
    return _spec_product(a, b)


def _require_kind(spec: ObservableSpec, kind: ObservableKind) -> None:
    if spec.kind is not kind:
        raise KindMismatchError(f"expected a {kind.name} observable, got "
                                f"{spec.kind.name}")


# ---------------------------------------------------------------------------
# Quantum operator application on the grid
# ---------------------------------------------------------------------------

def apply_quantum(spec: ObservableSpec, state: GridState) -> np.ndarray:
    """Apply the Weyl-symmetrized operator polynomial to the amplitudes.

    Symmetrization averages each monomial over all orders of its
    factors.  Factors of different modes act on different grid axes and
    commute, and a uniform order of all factors induces independent
    uniform orders within each mode.  So a monomial is applied as the
    product over its modes of each mode's own average (`mode_orders`):
    sym(q*p'*x) takes one order instead of six, and a single-mode
    monomial is summed over its orders exactly as a full average would.
    Factors are applied right to left, and a mode's distinct orders are
    summed in first-seen order, so the result does not depend on the
    process's string-hash seed.
    """
    _require_kind(spec, ObservableKind.QUANTUM)
    psi = state.amplitudes
    out = None
    for coeff, factors in spec.terms:
        if factors:
            term, count = psi, 1
            for orders in mode_orders(factors):
                term = _order_sum(term, state.spec, orders)
                count *= len(orders)
            term *= coeff / count
        else:
            term = coeff * psi
        # the first term's array becomes the sum: no zero-filled array
        # joins the peak
        if out is None:
            out = term
        else:
            out += term
    return np.zeros_like(psi) if out is None else out


def mode_orders(factors: tuple[str, ...]) -> list[list[tuple[str, ...]]]:
    """The distinct orders of each mode's factors in a quantum monomial.

    Modes are grouped in first-seen order and listed last group first,
    the order in which a right-to-left product applies them; each
    group's orders are its permutations in first-seen order.  A
    monomial's symmetrized average is the product over the groups of
    the mean over each group's orders.
    """
    groups = {}
    for f in factors:
        groups.setdefault(_MODE_OF[f], []).append(f)
    return [list(dict.fromkeys(itertools.permutations(group)))
            for group in reversed(groups.values())]


def _order_sum(psi: np.ndarray, spec: GridSpec,
               orders: list[tuple[str, ...]]) -> np.ndarray:
    """Sum of one mode's factor orders, each applied right to left, as a
    new array."""
    total = None
    for order in orders:
        term = psi
        for f in reversed(order):
            term = apply_operator(term, spec, f)
        if total is None:
            total = term
        else:
            total += term
    return total


def quantum_commutator_over_ihbar(a: ObservableSpec, b: ObservableSpec,
                                  state: GridState) -> np.ndarray:
    """([A, B]/(i hbar)) psi with A, B Weyl-symmetrized."""
    psi_b = apply_quantum(b, state)
    psi_a = apply_quantum(a, state)
    ab = apply_quantum(a, GridState(state.spec, psi_b))
    ba = apply_quantum(b, GridState(state.spec, psi_a))
    return (ab - ba) / (1j * state.spec.hbar)
