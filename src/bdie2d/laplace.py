"""Constant-coefficient (Laplace) building blocks.

Boundary operators on a periodic Nystroem grid:

* single layer: Martensen-Kussmaul/Kress splitting of the log kernel,
  spectrally accurate on analytic curves;
* double layer: continuous kernel with the curvature diagonal limit
  (needs a C^2 curve);
* hypersingular operator: tangential-derivative (Maue) regularization
  through the single layer.

Sign conventions follow the package-wide choices: the fundamental
solution is P(z) = log|z| / (2 pi), every layer potential carries a
leading minus sign, and normals point into the bounded complement.  With
these choices, on the unit circle

    V(cos n t) = cos(n t) / (2 n),   W(cos n t) = 0 (n >= 1),
    W(1) = 1/2,                      L(cos n t) = (n/2) cos(n t).

Every volume potential over a DomainMesh uses one near/far rule per
target (``_volume_rule``), a floating partition of unity (Bruno &
Kunyansky, J. Comput. Phys. 169, 2001): a smooth window in the polar
angle, centred on the mesh column nearest the target, splits the
integral into a far part, the mesh's tensor rule weighted by
(1 - window), and a near part weighted by the window.  The window's
half-width is an even number of columns, so its plateau and its support
end on column lines.  The near part is integrated on the mesh's own
cells under the window, one radial panel by one column each
(``_cell_rule``), on which the nodal interpolant is a polynomial and the
window smooth.  A cell farther from the target than its longer side gets
a tensor Gauss rule, and a nearer one is halved toward the target until
its pieces are that far.  The cells holding the target are cut at it,
the pieces cut to an aspect ratio of at most 2 there, and each piece with
the target at a corner gets Duffy's rule (SIAM J. Numer. Anal. 19, 1982)
with a graded radial variable.  The cells are laid out about the centre
column, whose angle is added last, so the rows of a ring of targets on a
circle are rotations of one row.  The rule is kept as its distinct radii
and angles plus an index pair per point: it evaluates everything that
depends on one coordinate once per distinct value, and the scatter
of fine-point values onto the mesh nodes (``_scatter_near``) contracts
the interpolant one axis at a time, the 4-point angular factor by
bincounts and the radial factor by a small product per panel (the
sum-factorization of spectral-element codes).  One apply
(``_volume_apply``) builds that rule once per target and runs it for a row
kernel, an analytic value integrand, or both: the kernel gives matrix rows
on nodal densities, the fine points reaching the nodes through that
scatter (``domain_rows``), and the integrand is sampled at the far nodes
and fine points (``newtonian_potential``, ``parametrix.remainder_apply``).
``domain_rows(..., with_values=True)`` does both from the same rule and
one evaluation per point, which is how ``parametrix.volume_terms`` yields
the remainder rows and the volume potential of a source together.

Both off-boundary layer potentials come from one pass over the targets
(``layer_rows_offboundary``), as blocks of rows on the boundary grid's own
nodes that share the distance test, the side test and the Cauchy rows
below.  A target at distance d from the nearest node keeps the trapezoid
weights (``_layer_weights``) while 8 L / d <= n (L the curve length); a
nearer one gets the globally compensated Cauchy formula for the periodic
trapezoid rule (Helsing & Ojala, J. Comput. Phys. 227, 2008).  With the
nodes zeta_j as complex numbers, dzeta_j = -i n_j w_j (the
counter-clockwise element whatever the orientation of the curve),
h = 2 pi / n and
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
  SIAM J. Sci. Comput. 36, 2014).  The origin lies inside every
  catalogue curve, which is star-shaped about it; with the outward normal
  nu = -n, mu = nu . zeta / (2 pi |zeta|^2), Q = w . sigma / w . mu, phi
  the spectral antiderivative of (sigma - Q mu) |zeta'(t)| and
  omega = log|zeta| / (2 pi),
  S sigma(z) = -Im C[phi](z) - Q (Re C[omega](z) + [z outside] omega(z)),
  built from the same rows of C.

A clockwise parametrization turns the sign of g_t and phi.  The rows
compose b with these linear maps.  By partial fractions,
(b K)_j = b_j ((S - b_j) / (2 pi i) + 2 K_jj) with S = sum_i b_i, so only
the diagonal of K is kept, built once per grid (``BoundaryGrid.memo``),
and a target costs O(n); g_t and the antiderivative act on the rows by
FFT.  A target on a node or within 8 eps r of the curve's radial profile
is rejected.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, SingularEvaluationError
from .geometry import BoundaryGrid, DomainMesh

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# fundamental solution

def _kernel_value(x, y):
    """P(x - y) for x of shape (m, 2) and a single target y."""
    z = x - y
    r2 = z[:, 0] ** 2 + z[:, 1] ** 2
    return np.log(r2) / (2.0 * _TWO_PI)


# ---------------------------------------------------------------------------
# periodic spectral helpers

def fourier_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix for even n on equispaced [0, 2 pi)."""
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / n)
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# boundary operators (direct values)

def kress_log_weights(grid: BoundaryGrid) -> np.ndarray:
    """Quadrature weights R[i, j] for int_0^{2pi} ln(4 sin^2((t_i - s)/2)) f(s) ds.

    R[i, j] = c[(i - j) mod n] is circulant (Kress, Linear Integral
    Equations, 3rd ed., section 12.3), generated by
    c_k = -(2 pi / n_half) sum_{0<m<n_half} cos(m t_k) / m
    - (pi / n_half^2) cos(n_half t_k), one inverse real FFT.
    """
    n, n_half = grid.n, grid.n // 2
    spec = np.zeros(n_half + 1)
    spec[1:n_half] = -(np.pi * n / n_half) / np.arange(1, n_half)
    spec[n_half] = -np.pi * n / n_half ** 2
    c = np.fft.irfft(spec, n)
    k = np.arange(n)
    return c[(k[:, None] - k[None, :]) % n]


def single_layer_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Direct value of the single layer on the grid (Kress quadrature)."""
    n = grid.n
    x = grid.points
    dt = grid.t[:, None] - grid.t[None, :]
    d2 = ((x[:, None, 0] - x[None, :, 0]) ** 2
          + (x[:, None, 1] - x[None, :, 1]) ** 2)
    s2 = 4.0 * np.sin(dt / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = 0.5 * np.log(d2 / s2)
    np.fill_diagonal(smooth, np.log(grid.speeds))
    r_w = kress_log_weights(grid)
    mat = -(0.5 * r_w + (_TWO_PI / n) * smooth) / _TWO_PI
    return mat * grid.speeds[None, :]


def double_layer_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Direct value of the double layer (continuous kernel, curvature diagonal)."""
    x = grid.points
    zx = x[None, :, 0] - x[:, None, 0]
    zy = x[None, :, 1] - x[:, None, 1]
    r2 = zx ** 2 + zy ** 2
    num = grid.normals[None, :, 0] * zx + grid.normals[None, :, 1] * zy
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = -num / (_TWO_PI * r2) * grid.speeds[None, :]
    kappa_term = grid.curve.curvature_term(grid.t)
    np.fill_diagonal(ker, kappa_term / (2.0 * _TWO_PI))
    return ker * (_TWO_PI / grid.n)


def hypersingular_matrix(grid: BoundaryGrid) -> np.ndarray:
    """Hypersingular operator via the Maue identity L = -d/ds V d/ds."""
    d_t = fourier_diff_matrix(grid.n)
    d_s = d_t / grid.speeds[:, None]
    return -d_s @ single_layer_matrix(grid) @ d_s


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


def _times_derivative(rows, power):
    """rows @ D^power, D the spectral t-derivative (power 1) or the
    antiderivative of mean-free data (power -1), both with the Nyquist mode
    dropped.  D^power is antisymmetric, so this is minus D^power applied
    to each row, by FFT."""
    k = np.fft.fftfreq(rows.shape[1], 1.0 / rows.shape[1])
    k[rows.shape[1] // 2] = 0.0
    symbol = np.zeros(k.size, dtype=complex)
    symbol[k != 0] = (1j * k[k != 0]) ** power
    return -np.fft.ifft(np.fft.fft(rows, axis=1) * symbol, axis=1)


def _cauchy_diagonal(grid: BoundaryGrid):
    """The diagonal of K (module docstring) and the orientation of the
    nodes (1 for counter-clockwise), built once per grid.  A grid whose
    normals are not the curve's raises GeometryError."""
    if "cauchy" not in grid.memo:
        if not np.array_equal(grid.curve.evaluate(grid.t)[2], grid.normals):
            raise GeometryError("grid normals differ from the curve's")
        z = _complex(grid.points)
        dzeta = -1j * _complex(grid.normals) * grid.weights
        row_sums = np.empty(grid.n, dtype=complex)
        for s in range(0, grid.n, 32):  # K 32 rows at a time, not (n, n)
            d = z - z[s:s + 32, None]
            np.fill_diagonal(d[:, s:], np.inf)  # K_ii = 0
            row_sums[s:s + 32] = (dzeta / d).sum(axis=1)
        orient = np.sign((np.conj(z) * np.roll(z, -1)).imag.sum())  # area sign
        grid.memo["cauchy"] = -row_sums / (2j * np.pi), orient
    return grid.memo["cauchy"]


def _close_rows(grid: BoundaryGrid, y, diff):
    """Rows of the single and double layer at targets y near the curve, by
    the compensated Cauchy formula of the module docstring; ``diff`` holds
    zeta_j - z for each target and node."""
    curve = grid.curve
    inside = curve.is_inside_bounded(y)  # raises without a radial profile
    r = np.hypot(y[:, 0], y[:, 1])
    band = np.abs(r - curve.radial_profile(np.arctan2(y[:, 1], y[:, 0])))
    if np.any(band <= 8.0 * np.finfo(float).eps * r) or not diff.all():
        raise SingularEvaluationError("off-boundary evaluation target lies on S")
    k_diag, orient = _cauchy_diagonal(grid)
    b = (-1j * _complex(grid.normals) * grid.weights) / diff
    # S - b_j for each node j; the nearest node's term may dominate S, so
    # its own sum leaves that term out rather than subtracting it
    i, j = np.arange(b.shape[0]), np.abs(diff).argmin(axis=1)
    nearest, b[i, j] = b[i, j], 0.0
    others = b.sum(axis=1)
    b[i, j] = nearest
    s_minus = (others + nearest)[:, None] - b
    s_minus[i, j] = others
    # rows of C[g](y) = b @ v(g) / (S - 2 pi i [outside]), with
    # v(g) = [inside] g + K g + (h / 2 pi i) g_t
    c = (b * (s_minus / (2j * np.pi) + 2.0 * k_diag + inside[:, None])
         + (orient * _TWO_PI / grid.n / (2j * np.pi))
         * _times_derivative(b, 1))
    c /= (others + nearest - 2j * np.pi * ~inside)[:, None]
    x = grid.points
    mu = -(grid.normals * x).sum(axis=1) / (_TWO_PI * (x ** 2).sum(axis=1))
    omega = np.log(np.hypot(x[:, 0], x[:, 1])) / _TWO_PI
    # -Im C[phi] for phi = orient * antiderivative(speed (sigma - Q mu))
    rows = -orient * _times_derivative(c.imag, -1).real * grid.speeds
    q_part = rows @ mu + c.real @ omega
    q_part[~inside] += np.log(r[~inside]) / _TWO_PI
    return (rows - q_part[:, None] * (grid.weights / (grid.weights @ mu)),
            c.real)


def layer_rows_offboundary(grid: BoundaryGrid, targets):
    """Rows (single, double), each (m, n), mapping nodal densities to the
    single and double layer at off-boundary targets, from one pass: the
    compensated Cauchy formula where the trapezoid rule would need more than
    the grid's nodes (8 L / d > n, d the distance to the nearest node),
    _layer_weights elsewhere."""
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.isfinite(y).all():
        raise GeometryError("off-boundary evaluation target is not finite")
    diff = _complex(grid.points) - _complex(y)[:, None]
    near = np.abs(diff).min(axis=1) * grid.n < 8.0 * grid.length
    single, double = np.empty((2, y.shape[0], grid.n))
    single[~near], double[~near] = _layer_weights(grid, y[~near])
    if near.any():
        single[near], double[near] = _close_rows(grid, y[near], diff[near])
    return single, double


# ---------------------------------------------------------------------------
# volume potentials on the domain mesh

# The near-field window spans at least _WIDTH_COLS mesh columns, 0.7 rad
# and an arc of _WIDTH_PHYS on each side of the target, rounded up to an
# even number of columns (down, to stay within 0.9 pi); its cells take
# _ORDER Gauss points a side.
_WIDTH_COLS = 5
_WIDTH_PHYS = 1.2
_ORDER = 6


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
    (s, t) -> (s, s t) or (s t, s), with s = sigma^2 and 2 ``order`` Gauss
    points in sigma and in t.  Each rule is (x, y, w)."""
    g, gw = np.polynomial.legendre.leggauss(order)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
    gauss = np.repeat(g, order), np.tile(g, order), np.outer(gw, gw).ravel()
    d, dw = np.polynomial.legendre.leggauss(2 * order)
    d, dw = 0.5 * (d + 1.0), 0.5 * dw
    s, t = np.repeat(d ** 2, d.size), np.tile(d, d.size)
    w = np.outer(2.0 * d ** 3 * dw, dw).ravel()  # s ds dt
    return gauss, (np.concatenate([s, s * t]), np.concatenate([s * t, s]),
                   np.concatenate([w, w]))


def _cell_rule(us, vs, target):
    """Points (u, v) and weights of a quadrature on the tensor cells with
    the sorted lines ``us`` and ``vs``, for an integrand singular at
    ``target``.  The target is first clipped to the cells' rectangle, and
    moved onto a line within 1e-10 cells of it.

    A piece with the target at a corner and an aspect ratio of at most 2
    gets the Duffy rule, and one farther from the target than its longer
    side the Gauss rule.  Any other piece with the target inside it or
    inside an edge is cut at the target, and the rest are halved along
    their longer side, until no piece is left.
    """
    gauss, duffy = _reference_rules(_ORDER)
    p = []
    for edges, q in zip((us, vs), target):
        q = min(max(q, edges[0]), edges[-1])
        line = edges[np.abs(edges - q).argmin()]
        p.append(line if abs(line - q) <= 1e-10 * np.diff(edges).min() else q)
    xs, ys = us - p[0], vs - p[1]
    # pieces (x0, x1, y0, y1) about the target at the origin
    pend = np.stack(np.broadcast_arrays(xs[:-1, None], xs[1:, None], ys[:-1],
                                        ys[1:]), axis=-1).reshape(-1, 4)
    far, near = [], []
    while pend.size:
        x0, x1, y0, y1 = pend.T
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
        pend, (x0, x1, y0, y1) = pend[rest], pend[rest].T
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
    x0, x1, y0, y1 = np.concatenate(far).T
    near = np.concatenate(near)
    # the signed extents of a Duffy piece from the target at its corner
    dx, dy = near[:, 0] + near[:, 1], near[:, 2] + near[:, 3]
    (gx, gy, gw), (sx, sy, sw) = gauss, duffy
    u = np.concatenate([(x0[:, None] + (x1 - x0)[:, None] * gx).ravel(),
                        (dx[:, None] * sx).ravel()])
    v = np.concatenate([(y0[:, None] + (y1 - y0)[:, None] * gy).ravel(),
                        (dy[:, None] * sy).ravel()])
    w = np.concatenate([((x1 - x0) * (y1 - y0))[:, None] * gw,
                        np.abs(dx * dy)[:, None] * sw], axis=None)
    return u + p[0], v + p[1], w


class _VolumeRule(NamedTuple):
    """Near/far quadrature rule of one target (see _volume_rule)."""

    far_idx: np.ndarray     # mesh nodes below the window's plateau
    far_w: np.ndarray       # their weights times (1 - window)
    rho: np.ndarray         # distinct scaled radii of the near field, sorted
    theta: np.ndarray       # distinct angles of the near field, sorted
    iu: np.ndarray          # each fine point's index into rho
    iv: np.ndarray          # and into theta
    fine_x: np.ndarray      # the fine points, physical
    fine_w: np.ndarray      # their weights times window and Jacobian


def _volume_rule(mesh: DomainMesh, y, near=True) -> _VolumeRule:
    """The near/far quadrature rule of a volume integral at target y (see
    the module docstring).  With ``near`` false, or for a target more than
    0.5 outside the meshed region, the near part is empty and the far part
    is the whole mesh rule.  The cells are scaled to be physically
    isotropic at the target."""
    y = np.asarray(y, dtype=float)
    if near:
        rho, theta = mesh.mesh_coords(y)
        rho_y, theta_y = float(rho[0]), float(theta[0])
        r_s = float(mesh.curve.radial_profile(np.atleast_1d(theta_y))[0])
        span = mesh.r_trunc - r_s
        # radial clearance of the target from the meshed region
        near = not span * max(-rho_y, rho_y - 1.0, 0.0) > 0.5
    if not near:
        empty = np.zeros(0, dtype=int)
        return _VolumeRule(np.arange(mesh.n_nodes), mesh.weights, np.zeros(0),
                           np.zeros(0), empty, empty, np.zeros((0, 2)),
                           np.zeros(0))
    m = mesh.m_theta
    dtheta = _TWO_PI / m
    r_y = r_s + span * max(rho_y, 0.0)
    width = max(_WIDTH_COLS * dtheta, 0.7, _WIDTH_PHYS / max(r_y, 1e-3))
    # half-width in columns: even, and at most 0.9 pi unless that is 0
    n_half = 2 * max(1, min(int(np.ceil(width / (2.0 * dtheta))),
                            9 * m // 40))
    centre = int(np.rint(theta_y / dtheta))
    offset = theta_y - centre * dtheta
    centre %= m
    # each column's offset from the centre column, in columns
    cols = (np.arange(m) - centre + m // 2) % m - m // 2
    win = np.tile(_bump(cols / n_half), mesh.n_r)
    far_idx = np.nonzero(win < 1.0)[0]
    far_w = mesh.weights[far_idx] * (1.0 - win[far_idx])
    su, sv = span, max(r_y, 1e-3)
    u, v, w = _cell_rule(mesh.breakpoints * su,
                         np.arange(-n_half, n_half + 1) * (dtheta * sv),
                         (rho_y * su, offset * sv))
    fine_rho, iu = np.unique(u / su, return_inverse=True)
    dth, iv = np.unique(v / sv, return_inverse=True)
    fine_theta = mesh.theta[centre] + dth
    r_s = mesh.curve.radial_profile(fine_theta)
    span_t = mesh.r_trunc - r_s
    r = r_s[iv] + span_t[iv] * fine_rho[iu]
    fine_w = (w / (su * sv) * _bump(dth / (n_half * dtheta))[iv]
              * (span_t[iv] * r))
    return _VolumeRule(far_idx, far_w, fine_rho, fine_theta, iu, iv,
                       np.stack([r * np.cos(fine_theta)[iv],
                                 r * np.sin(fine_theta)[iv]], axis=-1),
                       fine_w)


def _scatter_near(mesh: DomainMesh, rule: _VolumeRule, c, row):
    """Add the fine-point values c, interpolated onto the mesh nodes, to row.

    The interpolant is radial Lagrange times 4-point angular Lagrange, so
    the scatter goes one axis at a time: the angular factor by bincounts
    over (radius, window column), then the radial factor as one small
    product per radial panel on the columns the window touches.
    """
    m = mesh.m_theta
    i_r, w_r = mesh.radial_weights(rule.rho)
    cols, w_th = mesh.angular_weights(rule.theta)
    # each angle's first column, counted from the window's (theta sorted)
    first = (cols[:, 0] - cols[0, 0]) % m
    n_cols = int(first.max()) + 4
    key = rule.iu * n_cols + first[rule.iv]
    size = rule.rho.size * n_cols
    by_col = sum(np.bincount(key + k, c * w_th[rule.iv, k], minlength=size)
                 for k in range(4)).reshape(-1, n_cols)
    if n_cols > m:  # a window reaching round the whole circle
        by_col[:, :n_cols - m] += by_col[:, m:]
        n_cols, by_col = m, by_col[:, :m]
    grid = row.reshape(mesh.n_r, m)
    window = (cols[0, 0] + np.arange(n_cols)) % m
    # rho is sorted, so each panel's radii are contiguous
    start = np.flatnonzero(np.diff(i_r[:, 0], prepend=-1))
    for s, e in zip(start, np.append(start[1:], i_r.shape[0])):
        grid[i_r[s, :, None], window] += w_r[s:e].T @ by_col[s:e]


def _volume_apply(mesh: DomainMesh, targets, terms_fn, *, rows=False,
                  values=False, near_targets=None):
    """Run each target's _volume_rule once for a row kernel, an analytic
    value integrand, or both; returns (rows, values), None for a part not
    asked for.

    ``terms_fn(x_points, y)`` returns (kernel, value) at source points x
    for target y, from one evaluation there; a part not asked for may be
    None.  With ``rows`` the kernel gives the (m, n_nodes) matrix acting on
    nodal densities: the far part lands on its nodes and the near part
    reaches the nodes through mesh interpolation (_scatter_near).  With
    ``values`` the value integrand is sampled at the far nodes and the
    fine points; the values hold one integral per target (shape (m,) or
    (m, k) as the value is (p,) or (p, k)).  ``near_targets`` (one bool
    per target) limits the rows' near-field quadrature to the marked
    targets; by default every target gets it, and values always do.  One
    rule is alive at a time.
    """
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.zeros((pts.shape[0], mesh.n_nodes)) if rows else None
    vals = []
    for i, y in enumerate(pts):
        rows_near = near_targets is None or near_targets[i]
        rule = _volume_rule(mesh, y, rows_near or values)
        if rows and not rows_near and values:
            # rows without the near field the value needs: one evaluation at
            # every node gives the rows on the whole mesh rule and the value
            # at the far nodes; a node at y, if any, lies under the window's
            # plateau, so its value is never read
            with np.errstate(divide="ignore", invalid="ignore"):
                node_k, node_v = terms_fn(mesh.points, y)
            out[i] = mesh.weights * node_k
            far_v = node_v[rule.far_idx]
            fine_v = terms_fn(rule.fine_x, y)[1] if rule.fine_w.size else None
        else:
            far_k, far_v = terms_fn(mesh.points[rule.far_idx], y)
            fine_k, fine_v = (terms_fn(rule.fine_x, y) if rule.fine_w.size
                              else (None, None))
            if rows:
                out[i, rule.far_idx] = rule.far_w * far_k
                if fine_k is not None:
                    _scatter_near(mesh, rule, rule.fine_w * fine_k, out[i])
        if values:
            vals.append(rule.far_w @ far_v
                        + (0.0 if fine_v is None else rule.fine_w @ fine_v))
    return out, np.asarray(vals) if values else None


def newtonian_potential(mesh: DomainMesh, targets, *, g_fn):
    """Newtonian potential int P(x - y) g(x) dx over the mesh.

    The density ``g_fn(points)`` is evaluated analytically at the
    quadrature points of each target's near/far rule; ``g_fn`` None
    declares a zero density, whose potential is zero without any rule.
    Returns values (m,).
    """
    if g_fn is None:
        return np.zeros(np.atleast_2d(targets).shape[0])
    return _volume_apply(mesh, targets,
                         lambda x, y: (None, g_fn(x) * _kernel_value(x, y)),
                         values=True)[1]


def domain_rows(mesh: DomainMesh, targets, kernel_fn, *, near_targets=None,
                with_values=False):
    """Assemble matrix rows of a volume operator acting on nodal densities.

    ``kernel_fn(x_points, y)`` returns the full integrand factor (kernel
    times any analytic source-point factors) at source points ``x_points``
    for target ``y``.  Fine points coincident with y never reach it; a
    mesh node coincident with y does only when the near field of y is
    skipped.  ``near_targets`` (one bool per target) limits near-field
    quadrature to the marked targets.  With ``with_values``, kernel_fn
    returns (kernel, value) from one evaluation at the points, the value
    an analytic integrand, and the result is (rows, integrals of the
    value), both from the same rule of each target; the integrals always
    get the near field.
    """
    fn = kernel_fn if with_values else lambda x, y: (kernel_fn(x, y), None)
    rows, values = _volume_apply(mesh, targets, fn, rows=True,
                                 values=with_values, near_targets=near_targets)
    return (rows, values) if with_values else rows
