"""Constant-coefficient (Laplace) building blocks.

Boundary operators on a periodic Nystroem grid:

* single layer: Martensen-Kussmaul/Kress splitting of the log kernel,
  spectrally accurate on analytic curves;
* double layer: continuous kernel with the curvature diagonal limit
  (needs a C^2 curve);
* hypersingular operator: tangential-derivative (Maue) regularization
  through the single layer.

The (n, n) single- and double-layer matrices are filled _ROWS rows at a
time (``_row_blocks``), each step of the kernel an in-place operation on
two (_ROWS, n) scratch blocks that are reused from block to block and
stay in cache; no whole-matrix temporary is made.  The steps and their
order are those of the whole-matrix formulas, so the matrices are
bitwise the same.  The Kress weights are circulant, R[i, j] =
c[(i - j) mod n], and ``kress_log_weights`` returns them as a read-only
strided view of c.

Sign conventions follow the package-wide choices: the fundamental
solution is P(z) = log|z| / (2 pi), every layer potential carries a
leading minus sign, and normals point into the bounded complement.  With
these choices, on the unit circle

    V(cos n t) = cos(n t) / (2 n),   W(cos n t) = 0 (n >= 1),
    W(1) = 1/2,                      L(cos n t) = (n/2) cos(n t).

Every volume potential over a DomainMesh uses one near/far rule per
target, a floating partition of unity (Bruno & Kunyansky, J. Comput.
Phys. 169, 2001): a smooth window in the polar angle, centred on the mesh
column nearest the target, splits the integral into a far part, the
mesh's tensor rule weighted by (1 - window), and a near part weighted by
the window.  The window's half-width is an even number of columns, so its
plateau and its support end on column lines.  The near part is integrated
on the mesh's own cells under the window, one radial panel by one column
each (``_cell_rule``), on which the nodal interpolant is a polynomial and
the window smooth.  A cell farther from the target than its longer side
gets a tensor Gauss rule, and a nearer one is halved toward the target
until its pieces are that far.  The cells holding the target are cut at
it, the pieces cut to an aspect ratio of at most 2 there, and each piece
with the target at a corner gets Duffy's rule (SIAM J. Numer. Anal. 19,
1982) with a graded radial variable.  The cells are laid out about the
centre column, whose angle is added last, so the rows of a ring of
targets on a circle are rotations of one row.

The rules are built a block of consecutive targets at a time
(``_blocks``), one cut-and-halve loop on the lines of the widest window
serving the cells of all its targets, each piece carrying its target and
cell.  A Gauss piece depends only on its cell and its place in the cell,
and the targets of a block hold most of theirs in common (at N = 32 one in
five is distinct), so a block keys its Gauss pieces by cell and cell-local
extents and keeps each distinct one once (``_shared``), with the (target,
piece) pairs that use it.  The near field then runs piece by piece
(``_near_terms``): a piece is built once (``_built``: its points, their
Jacobian weights, the integrand's factors times those weights, and the
mesh's radial and angular interpolation factors there), and a pair costs
only the kernels at the piece's points, the window at its angles and one
small product onto the node stencil of the piece's cell, R^T C A on a
Gauss piece (the sum-factorization of spectral-element codes) and
R^T diag(c) A on a Duffy piece, which serves its own target alone.  Every
volume integrand is a sum of factors of the source point x times the
kernels P, d1 P and d2 P of x - y (``_kernels``): the remainder of the
parametrix is -Delta(ln a) P - grad(ln a) . grad_x P, its volume potential
of f has (f / a) P.  ``domain_rows`` evaluates the factors once at the
mesh nodes, so the far part is a (targets x nodes) kernel product with
them, and once at each distinct piece, at most _POINTS points at a time;
it gives rows on the unknowns' nodes, integrals, or both from one
evaluation per point (``parametrix.volume_terms``).

Both off-boundary layer potentials come from one pass over the targets
(``layer_rows_offboundary``), as blocks of rows on the boundary grid's own
nodes that share the distance test, the side test and the Cauchy rows
below.  A target at distance d from the nearest node keeps the trapezoid
weights (``_layer_weights``) while 8 L / d <= n (L the curve length); a
nearer one gets the globally compensated Cauchy formula for the periodic
trapezoid rule (Helsing & Ojala, J. Comput. Phys. 227, 2008).  With the
nodes zeta_j as complex numbers, dzeta_j = -i n_j w_j (the
counter-clockwise element), h = 2 pi / n and
C[g](z) = (1 / 2 pi i) oint g dzeta / (zeta - z):

* the boundary values of C[g] from the side of z are
  v = [z inside] g + K g + (h / 2 pi i) g_t, with
  (K g)_i = (1 / 2 pi i) sum_{j != i} (g_j - g_i) dzeta_j / (zeta_j - zeta_i)
  and g_t the spectral t-derivative;
* with b_j = dzeta_j / (zeta_j - z),
  C[g](z) = sum_j b_j v_j / (sum_j b_j - 2 pi i [z outside]);
* the double layer is D tau = Re C[tau], so its rows are the real part
  of the rows of C;
* the single layer is a Cauchy integral of a real density (Barnett,
  SIAM J. Sci. Comput. 36, 2014).  The origin lies inside the curve,
  which the curve contract checks (``geometry``); with the outward normal
  nu = -n, mu = nu . zeta / (2 pi |zeta|^2), Q = w . sigma / w . mu, phi
  the spectral antiderivative of (sigma - Q mu) |zeta'(t)| and
  omega = log|zeta| / (2 pi),
  S sigma(z) = -Im C[phi](z) - Q (Re C[omega](z) + [z outside] omega(z)),
  built from the same rows of C.

The rows compose b with these linear maps.  By partial fractions,
(b K)_j = b_j ((S - b_j) / (2 pi i) + 2 K_jj) with S = sum_i b_i, so only
the diagonal of K is kept and a target costs O(n); g_t and the
antiderivative act on the rows by FFT.  A target on a node or within
8 eps r of the curve's radial profile is rejected.

What the rows need of the grid alone is built once per grid and kept in
``BoundaryGrid.memo`` (``_grid_rows``): the nodes and elements as complex
numbers, mu, omega, the Q weights w / (w . mu), the length and the reach,
the largest |zeta_j| plus 8 L / n.  The O(n^2) diagonal of K is kept
there too, built only when a target is close (``_cauchy_diagonal``), and
the FFT symbols of g_t and of the antiderivative once per (n, power),
read-only (``_symbol``).  What the rows need of the coefficient, a and
d(ln a)/dn at the nodes, parametrix keeps in the same memo once per
(grid, field).  A block of targets then pays only for itself: one pass
of the distances |zeta_j - y| of the targets within the reach of the
origin (the others are far), which gives the near test and each near
target's nearest node, one polar evaluation of the near targets for the
side test and the on-curve test, and the rows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, SingularEvaluationError
from .geometry import BoundaryGrid, DomainMesh

_TWO_PI = 2.0 * np.pi
# rows per block of the (n, n) boundary matrices: at n = 512 a block is
# 256 KB, so its two scratch blocks stay in a core's L2 cache
_ROWS = 64


# ---------------------------------------------------------------------------
# boundary operators (direct values)

def _row_blocks(n: int):
    """Row slices of an (n, n) matrix, _ROWS at a time, each with two
    scratch blocks of its shape, reused from block to block."""
    scratch = np.empty((2, min(n, _ROWS), n))
    for s in range(0, n, _ROWS):
        rows = slice(s, min(s + _ROWS, n))
        yield rows, scratch[0, :rows.stop - s], scratch[1, :rows.stop - s]


def kress_log_weights(grid: BoundaryGrid) -> np.ndarray:
    """Quadrature weights R[i, j] for int_0^{2pi} ln(4 sin^2((t_i - s)/2)) f(s) ds.

    R[i, j] = c[(i - j) mod n] is circulant (Kress, Linear Integral
    Equations, 3rd ed., section 12.3), generated by
    c_k = -(2 pi / n_half) sum_{0<m<n_half} cos(m t_k) / m
    - (pi / n_half^2) cos(n_half t_k), one inverse real FFT.  R is a
    read-only strided view of c.
    """
    n, n_half = grid.n, grid.n // 2
    spec = np.zeros(n_half + 1)
    spec[1:n_half] = -(np.pi * n / n_half) / np.arange(1, n_half)
    spec[n_half] = -np.pi * n / n_half ** 2
    c = np.fft.irfft(spec, n)
    # h = (c_1, ..., c_{n-1}, c_0, ..., c_{n-1}): R[i, j] = h[n - 1 + i - j]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((c[1:], c)), n)
    return windows[:, ::-1]


def single_layer_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Direct value of the single layer on the grid (Kress quadrature)."""
    n, t, x = grid.n, grid.t, grid.points
    r_w = kress_log_weights(grid)
    log_speeds = np.log(grid.speeds)
    mat = np.empty((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, a, b in _row_blocks(n):
            # smooth = 0.5 ln(|x_i - x_j|^2 / (4 sin^2((t_i - t_j) / 2)))
            np.square(np.subtract(x[rows, 0, None], x[:, 0], out=a), out=a)
            np.square(np.subtract(x[rows, 1, None], x[:, 1], out=b), out=b)
            a += b
            np.subtract(t[rows, None], t, out=b)
            b /= 2.0
            np.square(np.sin(b, out=b), out=b)
            b *= 4.0
            a /= b
            np.log(a, out=a)
            a *= 0.5
            np.fill_diagonal(a[:, rows], log_speeds[rows])
            # -(0.5 R + (2 pi / n) smooth) / (2 pi), times the speeds
            a *= _TWO_PI / n
            np.multiply(r_w[rows], 0.5, out=b)
            b += a
            np.negative(b, out=b)
            b /= _TWO_PI
            np.multiply(b, grid.speeds, out=mat[rows])
    return mat


def double_layer_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Direct value of the double layer (continuous kernel, curvature diagonal)."""
    x, nrm = grid.points, grid.normals
    diagonal = grid.curve.curvature_term(grid.t) / (2.0 * _TWO_PI)
    mat = np.empty((grid.n, grid.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, a, b in _row_blocks(grid.n):
            # -n_j . (x_j - x_i) / (2 pi |x_j - x_i|^2) speeds_j, built in
            # the output rows: the numerator, then divided by 2 pi r^2
            ker = mat[rows]
            np.subtract(x[:, 0], x[rows, 0, None], out=a)
            np.subtract(x[:, 1], x[rows, 1, None], out=b)
            np.multiply(nrm[:, 0], a, out=ker)
            b *= nrm[:, 1]
            ker += b
            np.square(a, out=a)
            # b held n_2 z_y: z_y again, cheaper than a third block
            np.square(np.subtract(x[:, 1], x[rows, 1, None], out=b), out=b)
            a += b
            a *= _TWO_PI
            np.negative(ker, out=ker)
            ker /= a
            ker *= grid.speeds
            np.fill_diagonal(ker[:, rows], diagonal[rows])
            ker *= _TWO_PI / grid.n
    return mat


def hypersingular_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Hypersingular operator via the Maue identity L = -d/ds V d/ds, with
    d/ds = diag(1 / s) D for the speeds s and D the spectral t-derivative
    (_times_derivative): -D A = (A^T D)^T for A = V diag(1 / s) D."""
    s = grid.speeds
    v_d = _times_derivative(single_layer_matrix(grid) / s, 1).real
    return _times_derivative(v_d.T, 1).real.T / s[:, None]


# ---------------------------------------------------------------------------
# off-boundary layer potentials

def _layer_weights(grid: BoundaryGrid, y):
    """Trapezoid weights of the single and double layer at targets y, an
    (m, 2) block or a single point: the layer potentials of nodal density
    rho on ``grid`` are weights @ rho, each weights of shape (m, n) or (n,)."""
    y = np.asarray(y, dtype=float)
    zx = grid.points[:, 0] - y[..., 0, None]
    zy = grid.points[:, 1] - y[..., 1, None]
    r2 = zx ** 2 + zy ** 2
    single = np.log(r2) / (2.0 * _TWO_PI)
    double = ((grid.normals[:, 0] * zx + grid.normals[:, 1] * zy)
              / (_TWO_PI * r2))
    return -grid.weights * single, -grid.weights * double


def _complex(xy):
    return xy[..., 0] + 1j * xy[..., 1]


@functools.cache
def _symbol(n, power):
    """The FFT symbol of D^power on n nodes (see _times_derivative), built
    once per (n, power) and read-only."""
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    symbol = np.zeros(n, dtype=complex)
    symbol[k != 0] = (1j * k[k != 0]) ** power
    symbol.flags.writeable = False
    return symbol


def _times_derivative(rows, power):
    """rows @ D^power, D the spectral t-derivative (power 1) or the
    antiderivative of mean-free data (power -1), both with the Nyquist mode
    dropped.  D^power is antisymmetric, so this is minus D^power applied
    to each row, by FFT."""
    symbol = _symbol(rows.shape[1], power)
    return -np.fft.ifft(np.fft.fft(rows, axis=1) * symbol, axis=1)


class _GridRows(NamedTuple):
    """The data of the off-boundary rows that depend on the grid alone
    (module docstring), built once per grid."""

    z: np.ndarray          # the nodes zeta_j as complex numbers
    dzeta: np.ndarray      # the elements -i n_j w_j
    mu: np.ndarray         # nu . zeta / (2 pi |zeta|^2)
    omega: np.ndarray      # log|zeta| / (2 pi)
    q_weights: np.ndarray  # w / (w . mu), so that Q sigma = q_weights . sigma
    length: float
    reach: float           # (max |zeta_j| + 8 L / n) (1 + 1e-9): a target
                           # farther from the origin is far from every node


def _grid_rows(grid: BoundaryGrid) -> _GridRows:
    if "rows" not in grid.memo:
        x, length = grid.points, grid.length
        mu = -(grid.normals * x).sum(axis=1) / (_TWO_PI * (x ** 2).sum(axis=1))
        radius = np.hypot(x[:, 0], x[:, 1])
        grid.memo["rows"] = _GridRows(
            _complex(x), -1j * _complex(grid.normals) * grid.weights, mu,
            np.log(radius) / _TWO_PI, grid.weights / (grid.weights @ mu),
            length, (radius.max() + 8.0 * length / grid.n) * (1.0 + 1e-9))
    return grid.memo["rows"]


def _cauchy_diagonal(grid: BoundaryGrid):
    """The diagonal of K (module docstring), built once per grid and only
    for a grid with a close target.  A grid whose normals are not the
    curve's raises GeometryError."""
    if "cauchy" not in grid.memo:
        if not np.array_equal(grid.curve.evaluate(grid.t)[2], grid.normals):
            raise GeometryError("grid normals differ from the curve's")
        rows = _grid_rows(grid)
        z, dzeta = rows.z, rows.dzeta
        row_sums = np.empty(grid.n, dtype=complex)
        for s in range(0, grid.n, 32):  # K 32 rows at a time, not (n, n)
            d = z - z[s:s + 32, None]
            np.fill_diagonal(d[:, s:], np.inf)  # K_ii = 0
            row_sums[s:s + 32] = (dzeta / d).sum(axis=1)
        grid.memo["cauchy"] = -row_sums / (2j * np.pi)
    return grid.memo["cauchy"]


def _close_rows(grid: BoundaryGrid, y, diff, node):
    """Rows of the single and double layer at targets y near the curve, by
    the compensated Cauchy formula of the module docstring; ``diff`` holds
    zeta_j - z for each target and node, and ``node`` each target's
    nearest node."""
    data = _grid_rows(grid)
    # one polar evaluation serves the side test and the on-curve band test
    r = np.hypot(y[:, 0], y[:, 1])
    profile = grid.curve.radial_profile(np.arctan2(y[:, 1], y[:, 0]))
    inside = r < profile
    if (np.any(np.abs(r - profile) <= 8.0 * np.finfo(float).eps * r)
            or not diff.all()):
        raise SingularEvaluationError("off-boundary evaluation target lies on S")
    k_diag = _cauchy_diagonal(grid)
    b = data.dzeta / diff
    # S - b_j for each node j; the nearest node's term may dominate S, so
    # its own sum leaves that term out rather than subtracting it
    i, j = np.arange(b.shape[0]), node
    nearest, b[i, j] = b[i, j], 0.0
    others = b.sum(axis=1)
    b[i, j] = nearest
    s_minus = (others + nearest)[:, None] - b
    s_minus[i, j] = others
    # rows of C[g](y) = b @ v(g) / (S - 2 pi i [outside]), with
    # v(g) = [inside] g + K g + (h / 2 pi i) g_t
    c = (b * (s_minus / (2j * np.pi) + 2.0 * k_diag + inside[:, None])
         + (_TWO_PI / grid.n / (2j * np.pi))
         * _times_derivative(b, 1))
    c /= (others + nearest - 2j * np.pi * ~inside)[:, None]
    # -Im C[phi] for phi = antiderivative(speed (sigma - Q mu))
    rows = -_times_derivative(c.imag, -1).real * grid.speeds
    q_part = rows @ data.mu + c.real @ data.omega
    q_part[~inside] += np.log(r[~inside]) / _TWO_PI
    return rows - q_part[:, None] * data.q_weights, c.real


def layer_rows_offboundary(grid: BoundaryGrid, targets):
    """Rows (single, double), each (m, n), mapping nodal densities to the
    single and double layer at off-boundary targets, from one pass: the
    compensated Cauchy formula where the trapezoid rule would need more than
    the grid's nodes (8 L / d > n, d the distance to the nearest node),
    _layer_weights elsewhere."""
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.isfinite(y).all():
        raise GeometryError("off-boundary evaluation target is not finite")
    data = _grid_rows(grid)
    # only a target within data.reach of the origin can be near a node; the
    # distances of those alone, in one pass, give the near test and each
    # near target's nearest node
    maybe = np.nonzero(np.hypot(y[:, 0], y[:, 1]) <= data.reach)[0]
    diff = data.z - _complex(y[maybe])[:, None]
    dist = np.abs(diff)
    node = dist.argmin(axis=1)
    close = dist[np.arange(maybe.size), node] * grid.n < 8.0 * data.length
    near = np.zeros(y.shape[0], dtype=bool)
    near[maybe[close]] = True
    single, double = np.empty((2, y.shape[0], grid.n))
    single[~near], double[~near] = _layer_weights(grid, y[~near])
    if close.any():
        single[near], double[near] = _close_rows(grid, y[near], diff[close],
                                                 node[close])
    return single, double


# ---------------------------------------------------------------------------
# volume potentials on the domain mesh

# The near-field window spans at least _WIDTH_COLS mesh columns, 0.7 rad
# and an arc of _WIDTH_PHYS on each side of the target, rounded up to an
# even number of columns (down, to stay within 0.9 pi); its cells take
# _ORDER Gauss points a side.  At most _POINTS points reach the integrand
# or the kernels at a time, and a block of targets, which shares their
# Gauss pieces, holds up to _SHARED window cells, or a single target.
_WIDTH_COLS = 5
_WIDTH_PHYS = 1.2
_ORDER = 6
_POINTS = 16_000
_SHARED = 2 ** 14


def _bump(u: np.ndarray) -> np.ndarray:
    """C^4 plateau bump: 1 for |u| <= 1/2, 0 for |u| >= 1."""
    au = np.abs(u)
    out = np.zeros_like(au)
    out[au <= 0.5] = 1.0
    mid = (au > 0.5) & (au < 1.0)
    s = (1.0 - au[mid]) / 0.5
    out[mid] = s ** 5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + 70.0 * s))))
    return out


@functools.cache
def _reference_rules(order):
    """The tensor Gauss rule of ``order`` points a side on the unit square,
    and its Duffy rule singular at the corner (0, 0): each triangle of the
    diagonal through that corner is the image of the unit square under
    (s, t) -> (s, s t) or (s t, s), with s = sigma^2 and ``order`` + 2
    Gauss points in sigma and in t.  Each rule is (x, y, w), shaped to
    broadcast: (k, 1), (1, k) and (k, k) for the tensor rule, (k, 1) each
    for the Duffy rule."""
    g, gw = np.polynomial.legendre.leggauss(order)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
    d, dw = np.polynomial.legendre.leggauss(order + 2)
    d, dw = 0.5 * (d + 1.0), 0.5 * dw
    s, t = np.repeat(d ** 2, d.size), np.tile(d, d.size)
    w = np.outer(2.0 * d ** 3 * dw, dw).ravel()  # s ds dt
    return (g[:, None], g[None, :], np.outer(gw, gw)), tuple(
        np.concatenate(a)[:, None] for a in ([s, s * t], [s * t, s], [w, w]))


class _Pieces(NamedTuple):
    """Quadrature pieces of a block of targets, each inside one cell and the
    image of a reference rule under (s, t) -> (u0 + du s, v0 + dv t), with
    the piece's target at the origin."""

    cell: np.ndarray    # (n, 3): target, u-cell and v-cell of each piece
                        # (in a block, the column from the window centre)
    origin: np.ndarray  # (n, 2): u0 and v0
    size: np.ndarray    # (n, 2): du and dv, signed


def _points(pieces: _Pieces, rule, p):
    """Points u and v and weights w of the pieces under the reference rule
    (see _reference_rules), their targets p (one row each) added back; the
    three broadcast to the shape of w."""
    (ru, rv, rw), t = rule, pieces.cell[:, 0, None, None]
    (u0, v0), (du, dv) = (a.T[..., None, None] for a in pieces[1:])
    return u0 + du * ru + p[t, 0], v0 + dv * rv + p[t, 1], np.abs(du * dv) * rw


def _cell_rule(us, vs, targets, keep):
    """Gauss and Duffy pieces (two _Pieces) of a quadrature on the tensor
    cells of a block of targets, for integrands singular at the targets:
    target i's cells have the sorted lines us[i] and vs[i], and those in the
    columns j with keep[i, j] take part.  Each target is clipped to the
    rectangle of us[i] and vs[i] (the block's widest window) and moved
    onto a line within 1e-10 cells of it; returns (targets so moved, pieces).

    A piece with its target at a corner and an aspect ratio of at most 2
    gets the Duffy rule, and one farther from its target than its longer
    side the Gauss rule.  Any other piece with the target inside it or
    inside an edge is cut at the target, and the rest are halved along
    their longer side, until no piece is left, in one loop for all.
    """
    p = []
    for edges, q in zip((us, vs), np.asarray(targets, dtype=float).T):
        q = np.clip(q, edges[:, 0], edges[:, -1])
        line = np.take_along_axis(
            edges, np.abs(edges - q[:, None]).argmin(axis=1)[:, None], 1)[:, 0]
        p.append(np.where(np.abs(line - q) <= 1e-10 * np.diff(
            edges, axis=1).min(axis=1, initial=np.inf), line, q))
    xs, ys = us - p[0][:, None], vs - p[1][:, None]
    shape = xs.shape[0], xs.shape[1] - 1, ys.shape[1] - 1
    # pieces (x0, x1, y0, y1) about their target at the origin; the fifth
    # column numbers each piece's cell
    t, i, j = np.nonzero(np.broadcast_to(keep[:, None, :], shape))
    pend = np.stack([xs[t, i], xs[t, i + 1], ys[t, j], ys[t, j + 1],
                     np.ravel_multi_index((t, i, j), shape)], axis=-1)
    far, near = [pend[:0]], [pend[:0]]  # none where no cell is kept
    while pend.size:
        x0, x1, y0, y1, _ = pend.T
        wx, wy = x1 - x0, y1 - y0
        wide = np.maximum(wx, wy)
        gap2 = (np.maximum(np.maximum(x0, -x1), 0.0) ** 2
                + np.maximum(np.maximum(y0, -y1), 0.0) ** 2)
        corner = ((x0 == 0.0) | (x1 == 0.0)) & ((y0 == 0.0) | (y1 == 0.0))
        to_duffy = corner & (wide <= 2.0 * np.minimum(wx, wy))
        to_gauss = gap2 > wide ** 2
        near.append(pend[to_duffy])
        far.append(pend[to_gauss])
        rest = ~(to_duffy | to_gauss)
        pend, (x0, x1, y0, y1, _) = pend[rest], pend[rest].T
        holds = gap2[rest] == 0.0
        cut_x = holds & (x0 < 0.0) & (x1 > 0.0)
        cut_y = holds & (y0 < 0.0) & (y1 > 0.0) & ~cut_x
        in_x = cut_x | (~cut_y & (wx >= wy)[rest])
        at = np.where(cut_x | cut_y, 0.0,
                      np.where(in_x, x0 + x1, y0 + y1) / 2.0)
        lo, hi = pend.copy(), pend.copy()
        lo[in_x, 1] = hi[in_x, 0] = at[in_x]
        lo[~in_x, 3] = hi[~in_x, 2] = at[~in_x]
        pend = np.concatenate([lo, hi])
    gauss, duffy = np.concatenate(far), np.concatenate(near)
    cells = (np.stack(np.unravel_index(r[:, 4].astype(int), shape), 1)
             for r in (gauss, duffy))
    # a Duffy piece spans the signed extents from its target at a corner
    return np.stack(p, 1), (
        _Pieces(next(cells), gauss[:, [0, 2]],
                gauss[:, [1, 3]] - gauss[:, [0, 2]]),
        _Pieces(next(cells), np.zeros((duffy.shape[0], 2)),
                duffy[:, [0, 2]] + duffy[:, [1, 3]]))


class _Near(NamedTuple):
    """The pieces of one kind (Gauss or Duffy) in a block: each distinct
    piece once, as the piece of one target that holds it, and the (target,
    piece) pairs that use them, sorted by piece."""

    pieces: _Pieces     # the distinct pieces; cell[:, 0] is the target in
                        # the block whose piece it is
    target: np.ndarray  # (k,) each pair's target in the block,
    piece: np.ndarray   # its piece,
    col: np.ndarray     # and the piece's column from the target's centre


class _Block(NamedTuple):
    """The near/far rules of a run of targets (see _blocks)."""

    idx: np.ndarray     # the targets
    centre: np.ndarray  # their windows' centre columns
    half: np.ndarray    # and half-widths in columns, 0 without near field
    p: np.ndarray       # (targets, 2) the targets as _cell_rule moved them
    scale: np.ndarray   # (targets, 2) the scales (span, r_y) of their cells
    near: tuple         # a _Near per kind of piece


def _blocks(mesh: DomainMesh, pts, rows_near, values):
    """The near/far rules of the targets pts, one _Block at a time.

    A target within 0.5 of the meshed region gets a window (see the module
    docstring) if it is marked in ``rows_near`` or ``values`` is true, its
    cells scaled to be physically isotropic at the target.  A block is a
    run of consecutive targets, as many as keep its window cells (radial
    panels by 2 half columns each) within _SHARED, and at least one.  One
    _cell_rule call cuts its cells on the lines of its widest window, each
    target keeping the columns of its own, and the block keeps each
    distinct Gauss piece once (_shared).
    """
    m, dtheta = mesh.m_theta, _TWO_PI / mesh.m_theta
    rho, theta = mesh.mesh_coords(pts)
    _, span, r_y = mesh.physical(np.maximum(rho, 0.0), theta)
    r_y = np.maximum(r_y, 1e-3)
    width = np.maximum(max(_WIDTH_COLS * dtheta, 0.7), _WIDTH_PHYS / r_y)
    # half-width in columns: even, and at most 0.9 pi unless that is 0; 0
    # without near field, as for a target 0.5 outside the meshed region
    halves = 2 * np.maximum(1, np.minimum(
        np.ceil(width / (2.0 * dtheta)).astype(int), 9 * m // 40))
    halves[~(rows_near | values)
           | (span * np.maximum(np.maximum(-rho, rho - 1.0), 0.0) > 0.5)] = 0
    centres = np.rint(theta / dtheta).astype(int)
    offsets = theta - centres * dtheta
    centres %= m
    scale = np.stack([span, r_y], axis=1)
    cells = 2 * (mesh.breakpoints.size - 1) * halves
    ends, start = np.cumsum(cells), 0
    while start < pts.shape[0]:
        stop = max(start + 1, np.searchsorted(
            ends, ends[start] - cells[start] + _SHARED, side="right"))
        idx = np.arange(start, stop)
        n_half = halves[idx].max()
        su, sv = span[idx], r_y[idx]
        # each target keeps the columns whose middle lies in its window
        p, (gauss, duffy) = _cell_rule(
            mesh.breakpoints * su[:, None],
            np.arange(-n_half, n_half + 1) * (dtheta * sv)[:, None],
            np.stack([rho[idx] * su, offsets[idx] * sv], axis=1),
            np.abs(np.arange(-n_half, n_half) + 0.5) < halves[idx, None])
        gauss.cell[:, 2] -= n_half
        duffy.cell[:, 2] -= n_half
        t = duffy.cell[:, 0]
        near = (_shared(mesh, gauss, centres[idx], p, scale[idx]),
                _Near(duffy, t, np.arange(t.size), duffy.cell[:, 2]))
        gauss = None  # only the distinct pieces stay while the block is used
        yield _Block(idx, centres[idx], halves[idx], p, scale[idx], near)
        start = stop


def _shared(mesh: DomainMesh, pieces: _Pieces, centre, p, scale) -> _Near:
    """The _Near of a block's Gauss pieces, for targets with the window
    centres, moved positions and scales given: pieces in the same cell, a
    radial panel by an absolute column, with the same cell-local extents to
    2^-40 of a cell side are one piece, up to rounding."""
    t, panel, col = pieces.cell.T
    b, dtheta = mesh.breakpoints, _TWO_PI / mesh.m_theta
    side = np.stack([b[panel + 1] - b[panel],
                     np.full(t.size, dtheta)], axis=1)
    start = (pieces.origin + p[t]) / scale[t] - np.stack(
        [b[panel], col * dtheta], axis=1)
    key = np.column_stack([
        panel * mesh.m_theta + (centre[t] + col) % mesh.m_theta,
        np.rint(np.concatenate([start, pieces.size / scale[t]], axis=1)
                / np.tile(side, 2) * 2.0 ** 40).astype(np.int64)])
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new = np.ones(t.size, dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    return _Near(_Pieces(*(a[order[new]] for a in pieces)), t[order],
                 np.cumsum(new) - 1, col[order])


def _far(mesh: DomainMesh, centre, half, rows_near):
    """The far part of the rules of targets with the window centres and
    half-widths given: (target, mesh node) pairs, and their weights in the
    rows and in the values.  No node under a window's plateau takes part,
    unless the target's rows skip the near field."""
    m = mesh.m_theta
    cols = (np.arange(m) - centre[:, None] + m // 2) % m - m // 2
    window = np.tile(_bump(cols / np.maximum(half, 1)[:, None])
                     * (half > 0)[:, None], mesh.n_r)
    w_val = mesh.weights * (1.0 - window)
    w_row = np.where(rows_near[:, None], w_val, mesh.weights)
    ii, jj = np.nonzero((window < 1.0) | ~rows_near[:, None])
    return ii, jj, w_row[ii, jj], w_val[ii, jj]


class _Built(NamedTuple):
    """Distinct pieces of one kind, built once for all their targets."""

    x: np.ndarray        # physical points, w.shape + (2,)
    fw: tuple            # row factors and value factors (lists, or None)
                         # times the Jacobian weights, each w.shape
    s: np.ndarray        # angles in columns from the cell's first line
    radial: np.ndarray   # (pieces, q, a) radial factors, transposed
    angular: np.ndarray  # (pieces, b, k) angular factors
    column: np.ndarray   # (pieces, q, k) the stencil's columns in the
                         # rows, -1 for a node outside them


def _built(mesh: DomainMesh, block: _Block, pieces: _Pieces, rule, factors,
           column_of):
    """Points, weighted factors and interpolation factors of the pieces.

    A piece lies inside one cell, its own (never located from its points,
    which may lie a few ulps outside it), where the interpolant is the
    product of the mesh's radial and angular factors: a Gauss piece's
    values C on its tensor rule reach the cell's node stencil as R^T C A
    (the sum-factorization of spectral-element codes), a Duffy piece's as
    R^T diag(c) A.
    """
    m, b = mesh.m_theta, mesh.breakpoints
    n, (t, panel, col) = pieces.cell.shape[0], pieces.cell.T
    u, v, w = _points(pieces, rule, block.p)
    su, sv = (block.scale[t, k, None, None] for k in (0, 1))
    f_rho, dth = u / su, v / sv
    x, f_span, r = mesh.physical(
        f_rho, mesh.theta[block.centre[t]][:, None, None] + dth)
    w = w / (su * sv) * (f_span * r)
    s = dth / (_TWO_PI / m) - col[:, None, None]
    i_r, radial = mesh.radial_factors((f_rho.reshape(n, -1) - b[panel, None])
                                      / (b[panel + 1] - b[panel])[:, None])
    j, angular = mesh.angular_factors(s.reshape(n, -1))
    nodes = ((panel[:, None] * i_r.size + i_r)[:, :, None] * m
             + (block.centre[t, None] + col[:, None] + j)[:, None, :] % m)
    return _Built(x, tuple(None if part is None else
                           [f.reshape(w.shape) * w for f in part]
                           for part in factors(x.reshape(-1, 2))),
                  s, radial.transpose(0, 2, 1), angular, column_of[nodes])


def _kernels(x, y):
    """(P, d1 P, d2 P) of z = x - y, P(z) = ln|z| / (2 pi) and dk P(z) =
    z_k / (2 pi |z|^2), for source points x (..., 2) and targets y
    broadcast against them (-inf and nan at z = 0)."""
    z0, z1 = x[..., 0] - y[..., 0], x[..., 1] - y[..., 1]
    r2 = z0 ** 2 + z1 ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = _TWO_PI * r2
        return np.log(r2) / (2.0 * _TWO_PI), z0 / scale, z1 / scale


# the largest factor that a point at its own target may carry (_weighted)
_AT_TARGET = 1e-8


def _weighted(w, factors, kernels, singular):
    """w times the sum of factors times kernels, matched in order, at each
    point.  Where a point may lie at its target (``singular``: the far
    part's mesh nodes), a point there (z = 0) adds 0, and raises
    SingularEvaluationError if its weight is nonzero and a factor there
    exceeds _AT_TARGET in size."""
    with np.errstate(invalid="ignore"):
        value = factors[0] * kernels[0]
        for f, k in zip(factors[1:], kernels[1:]):
            value += f * k
    if singular:
        same = np.isneginf(kernels[0])
        if same.any():
            held = same & (w != 0.0)
            if max(np.abs(f[held]).max(initial=0.0)
                   for f in factors) > _AT_TARGET:
                raise SingularEvaluationError(
                    "volume integrand evaluated at its target, where a "
                    "factor is not negligible")
            value[same] = 0.0
    return w * value


class _Sums(NamedTuple):
    """The outputs of domain_rows, summed in place."""

    rows: np.ndarray       # (targets, columns), or None
    vals: np.ndarray       # (targets,), or None
    column_of: np.ndarray  # each node's column in rows, -1 off them
    near: np.ndarray       # the targets whose rows get the near field


def _far_terms(mesh: DomainMesh, block: _Block, y, at_nodes, out: _Sums):
    """Add the far parts of a block's rules, with the factors at_nodes at
    the mesh nodes, to out: at most _POINTS (target, node) pairs, or one
    target's nodes, at a time."""
    near, step = out.near[block.idx], max(1, _POINTS // mesh.n_nodes)
    for lo in range(0, block.idx.size, step):
        t = slice(lo, lo + step)
        ii, jj, w_row, w_val = _far(mesh, block.centre[t], block.half[t],
                                    near[t])
        far = _kernels(mesh.points[jj], y[t][ii])
        if out.rows is not None:
            on = out.column_of[jj] >= 0
            out.rows[block.idx[t][ii[on]], out.column_of[jj[on]]] = _weighted(
                w_row, [f[jj] for f in at_nodes[0]], far, True)[on]
        if out.vals is not None:
            out.vals[block.idx[t]] += np.bincount(
                ii, _weighted(w_val, [f[jj] for f in at_nodes[1]], far, True),
                minlength=y[t].shape[0])


def _near_terms(mesh: DomainMesh, block: _Block, y, kind: _Near, rule,
                factors, out: _Sums, pieces: slice):
    """Add the near parts of the ``pieces`` of one kind to out: each piece
    built once (_built), then its pairs, as many at a time as pieces.  No
    piece holds its target, so _weighted makes no check for one: _cell_rule
    leaves a Gauss piece a gap wider than the piece, and a Duffy piece's
    points stay off its corner at the target (by about 1e-5 of the
    piece)."""
    built = _built(mesh, block, _Pieces(*(c[pieces] for c in kind.pieces)),
                   rule, factors, out.column_of)
    tensor = built.s.shape[1] == 1
    size = pieces.stop - pieces.start
    first, end = np.searchsorted(kind.piece, [pieces.start, pieces.stop])
    for lo in range(first, end, size):
        pr = slice(lo, min(lo + size, end))
        t, pl = kind.target[pr], kind.piece[pr] - pieces.start
        near = _kernels(built.x[pl], y[t, None, None])
        win = _bump((kind.col[pr, None, None] + built.s[pl])
                    / block.half[t, None, None])
        if out.rows is not None:
            c = _weighted(win, [f[pl] for f in built.fw[0]], near, False)
            stencil = built.radial[pl] @ (c @ built.angular[pl] if tensor
                                          else c * built.angular[pl])
            cols = built.column[pl]
            on = (cols >= 0) & out.near[block.idx[t], None, None]
            np.add.at(out.rows.reshape(-1),
                      (block.idx[t, None, None] * out.rows.shape[1]
                       + cols)[on], stencil[on])
        if out.vals is not None:
            c = _weighted(win, [f[pl] for f in built.fw[1]], near, False)
            np.add.at(out.vals, block.idx[t],
                      c.reshape(t.size, -1).sum(axis=1))


def domain_rows(mesh: DomainMesh, targets, factors, *, columns=None,
                near_targets=None):
    """Rows on nodal densities and integrals of a volume integrand over the
    mesh, from the targets' near/far rules (see _blocks): (rows, values),
    None for a part not asked for.

    The integrand is sum_k f_k(x) K_k(x - y), K = _kernels(x, y).
    ``factors(x)`` gives (row factors, value factors) at points x (m, 2),
    each a tuple of 1-3 arrays (m,) matched in order with K, or None for a
    part not wanted.  It runs once at the mesh nodes, for the far parts of
    all targets, and once at each distinct piece of a block, at most
    _POINTS points at a time.  The rows act on nodal densities at the
    nodes ``columns`` (all by default); values are one integral per
    target.  ``near_targets`` (one bool per target) limits the rows' near
    field to the marked targets; values always get it, and only a node can
    lie at a target whose rows skip it (see _weighted).  A non-finite
    target raises GeometryError.
    """
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.isfinite(pts).all():
        raise GeometryError("volume target is not finite")
    at_nodes = factors(mesh.points)
    rows_on, values_on = (part is not None for part in at_nodes)
    rows_near = np.ones(pts.shape[0], dtype=bool)
    if rows_on and near_targets is not None:
        rows_near = np.asarray(near_targets, dtype=bool)
    columns = np.arange(mesh.n_nodes) if columns is None else columns
    out = _Sums(np.zeros((pts.shape[0], len(columns))) if rows_on else None,
                np.zeros(pts.shape[0]) if values_on else None,
                np.full(mesh.n_nodes, -1), rows_near)
    out.column_of[columns] = np.arange(len(columns))
    for block in _blocks(mesh, pts, rows_near, values_on):
        y = pts[block.idx]
        _far_terms(mesh, block, y, at_nodes, out)
        for kind, rule in zip(block.near, _reference_rules(_ORDER)):
            size = max(1, _POINTS // rule[2].size)
            for a in range(0, kind.pieces.cell.shape[0], size):
                _near_terms(mesh, block, y, kind, rule, factors, out,
                            slice(a, a + size))
    return out.rows, out.vals


def newtonian_potential(mesh: DomainMesh, targets, *, g_fn):
    """Newtonian potential int P(x - y) g(x) dx over the mesh.

    The density ``g_fn(points)`` is evaluated analytically at the mesh
    nodes and once at each distinct near-field piece, at most _POINTS
    points at a time (see domain_rows);
    ``g_fn`` None declares a zero density, whose potential is zero without
    any rule.  Returns values (m,).
    """
    if g_fn is None:
        return np.zeros(np.atleast_2d(targets).shape[0])
    return domain_rows(mesh, targets, lambda x: (None, (g_fn(x),)))[1]
