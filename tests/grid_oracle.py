"""Independent q-representation oracle for the grid moments.

`grid.product_moments` never builds psi: it takes every moment of a
product state in the mixed (k_q, q', x) representation.  The kernel here
is the one it replaced, kept as its reference: it assembles psi (and
d_0 psi) on the grid from `grid.product_pieces` and takes the moments of
any grid state in the q representation, one q slab at a time.
"""

import numpy as np

from hybridlab.grid import (GridSpec, GridState, _spectral_derivative,
                            product_pieces)


def assemble_product(spec: GridSpec, pieces,
                     out: np.ndarray | None = None) -> np.ndarray:
    """psi(t) from `product_pieces`: one inverse FFT along q of their
    product, built in `out` (allocated if not given), the only full-size
    array.  Pieces whose L is times i k_q give d_0 psi(t)."""
    lq, f, s = pieces
    if out is None:
        out = np.empty(spec.points_per_axis, dtype=complex)
    np.copyto(out, f[None])
    out *= lq[:, :, None]
    out *= s[:, None, :]
    return np.fft.ifft(out, axis=0, out=out)


def derivative_pieces(spec: GridSpec, pieces):
    """The pieces of d_0 psi: L times i k_q."""
    lq, f, s = pieces
    return lq * (1j * spec.wavenumbers(0))[:, None], f, s


# complex values of one slab of a field: 256 KiB, so that psi's and
# d_0 psi's slabs and the three scratch slabs stay in a core's cache
_SLAB_VALUES = 2 ** 14


def _q_slabs(spec: GridSpec) -> list[slice]:
    """The q slabs `grid_moments` walks: whole (q', x) planes, about
    _SLAB_VALUES points each where the planes allow, and at least four
    slabs, so that the scratch stays below a field's size."""
    n0, n1, n2 = spec.points_per_axis
    m = min(n0 // 4, max(1, _SLAB_VALUES // (n1 * n2)))
    return [slice(a, a + m) for a in range(0, n0, m)]


# the (i, j) of the six Re<d_i psi|d_j psi>, i <= j
_PAIRS = [(i, j) for j in range(3) for i in range(j + 1)]


def grid_moments(state: GridState, d0: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized 6x6 covariance of any grid state, in the
    canonical ordering.

    The symmetrized second moment of Hermitian A, B is Re<A psi|B psi>.
    Each block comes from real sums, with one spectral derivative
    d_j psi per axis (3 FFTs and 3 inverse FFTs in all):

    - positions: the density P = |psi|^2, summed over x with weights 1,
      x and x^2 into three (q, q') planes;
    - momentum means and position-momentum moments: the currents
      J_j = hbar Im(psi* d_j psi), since Re<x_i psi|p_j psi> is the
      integral of x_i J_j;
    - momentum-momentum moments: hbar^2 Re<d_i psi|d_j psi>.

    d_0 psi needs the whole q axis: it is `d0` if given (a complex array
    of the grid's shape), else built here, and it and psi are the only
    full-size arrays.  The rest runs one q slab of `_q_slabs` at a time,
    in three slabs of scratch.
    """
    spec, psi = state.spec, state.amplitudes
    if d0 is None:
        d0 = _spectral_derivative(psi, spec, 0)
    n0, n1, n2 = psi.shape
    slabs = _q_slabs(spec)
    # (q, q') planes, each slab writing its own rows: the density summed
    # over x with weights 1, x and x^2, and the three currents over x
    planes = np.empty((6, n0, n1))
    scratch = np.empty((3, slabs[0].stop, n1, n2), complex)
    x_currents, dots = _slab_sums(psi, d0, spec, slabs, planes, scratch)

    dv, hbar = spec.cell_volume, spec.hbar
    q, qp = spec.axis(0), spec.axis(1)
    density, density_x, density_xx = planes[:3]
    means = np.empty(6)
    second = np.empty((6, 6))

    def put(i, j, value):
        second[i, j] = second[j, i] = value * dv

    # axis a's position has canonical index 2a, its momentum 2a + 1
    for a, (axis, line) in enumerate(((q, density.sum(axis=1)),
                                      (qp, density.sum(axis=0)))):
        means[2 * a] = np.einsum("i,i->", axis, line) * dv
        put(2 * a, 2 * a, np.einsum("i,i,i->", axis, axis, line))
    means[4] = density_x.sum() * dv
    put(4, 4, density_xx.sum())
    put(0, 2, np.einsum("i,ij,j->", q, density, qp))
    put(0, 4, np.einsum("i,ij->", q, density_x))
    put(2, 4, np.einsum("ij,j->", density_x, qp))
    for n, (i, j) in enumerate(_PAIRS):
        put(2 * i + 1, 2 * j + 1, hbar * hbar * dots[n])
    for j in range(3):
        current = hbar * planes[3 + j]
        means[2 * j + 1] = current.sum() * dv
        put(0, 2 * j + 1, np.einsum("i,ij->", q, current))
        put(2, 2 * j + 1, np.einsum("ij,j->", current, qp))
        put(4, 2 * j + 1, hbar * x_currents[j])
    return means, second - np.outer(means, means)


def _slab_sums(psi: np.ndarray, d0: np.ndarray, spec: GridSpec, slabs,
               planes: np.ndarray, scratch: np.ndarray):
    """`grid_moments`' sums: walks the q `slabs` in order in the three
    slabs of `scratch`, writes their rows of `planes` and returns the
    sums of x J_j/hbar and the six Re<d_i psi|d_j psi>.

    Every sum is of contiguous float views, x interleaved with (re, im).
    With e_j the derivative along axis j without its factor i, built
    with the real wavenumbers (d_j psi = i e_j; e_0 = -i d_0 psi),
    Re<d_i psi|d_j psi> = Re<e_i|e_j> and Im(psi* d_j psi) = Re(psi* e_j),
    so each is a dot product of (re, im) pairs."""
    n1, n2 = psi.shape[1:]
    x = np.repeat(spec.axis(2), 2)
    weights = (np.ones_like(x), x, x * x)
    k = {1: spec.wavenumbers(1)[:, None], 2: np.repeat(spec.wavenumbers(2), 2)}
    e, ev = scratch, scratch.view(np.float64)
    rows = ev.reshape(3, -1, 2 * n2)
    x_currents, dots = np.zeros(3), np.zeros(6)
    for s in slabs:
        p = psi[s]
        pv = p.view(np.float64)
        # the density's (re^2, im^2) pairs, in e_0's place until e_0
        np.multiply(pv, pv, out=ev[0])
        for weight, plane in zip(weights, planes):
            np.einsum("abk,k->ab", ev[0], weight, out=plane[s])
        for j in (1, 2):
            np.fft.fft(p, axis=j, out=e[j])
            ev[j] *= k[j]
            np.fft.ifft(e[j], axis=j, out=e[j])
        np.multiply(d0[s], -1j, out=e[0])
        for n, (i, j) in enumerate(_PAIRS):
            dots[n] += np.einsum("ij,ij->i", rows[i], rows[j]).sum()
        for j in range(3):
            ev[j] *= pv
            ev[j].sum(axis=2, out=planes[3 + j][s])
            x_currents[j] += np.einsum("ik,k->i", rows[j], x).sum()
    return x_currents, dots


def oracle_moments(spec: GridSpec, factors, g1: float, g2: float, times):
    """The moments of the product of `factors` at each of `times`, as
    (n, 6) means and (n, 6, 6) covariances: psi and d_0 psi assembled
    from `product_pieces` and passed to `grid_moments`."""
    means, cov = np.empty((len(times), 6)), np.empty((len(times), 6, 6))
    for i, t in enumerate(times):
        pieces = product_pieces(spec, factors, g1, g2, t)
        state = GridState(spec, assemble_product(spec, pieces))
        d0 = assemble_product(spec, derivative_pieces(spec, pieces))
        means[i], cov[i] = grid_moments(state, d0)
    return means, cov
