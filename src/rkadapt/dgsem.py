"""Nodal discontinuous Galerkin spectral element semidiscretizations.

Uniform (optionally jittered) periodic Cartesian grids in 1D/2D with
Legendre-Gauss-Lobatto collocation, full upwind interface fluxes for linear
advection, and local Lax-Friedrichs fluxes for the compressible Euler
equations.  States keep their tensor shape: (nel, n) or (nel, n, nvar) in
1D and (nex, ney, n, n[, nvar]) in 2D with n = p + 1 nodes per direction.

Every semidiscretization is `batched`: it also takes a stack of m states,
shape (m, *state shape), with a time per member, and `rhs`, `is_admissible`
and `cfl_timescale` then answer per member, bit for bit as member-by-member
calls do.  Each volume derivative is one matrix product led by the node
axis: slices whose last two axes are (node, rest), or the node-major
working layout of `EulerSemidisc2d`.  Every column is the same product
whatever the stack, so a stack's rows equal the per-member products.

The Euler kernels form their products and sums in place: the same float
operations, on the same operands in the same order as the plain
expressions in their comments, written only into arrays the call created.
So the bits are the expressions', and a kernel never writes into its input;
its result is a fresh C-contiguous array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GAMMA = 1.4


# ---------------------------------------------------------------------------
# LGL operator

@dataclass(frozen=True)
class LglOperator:
    p: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray

    @property
    def n(self):
        return self.p + 1


def _legendre_and_deriv(x, p):
    """P_p(x) and P_{p-1}(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, p + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0  # P_p, P_{p-1}


def lgl_nodes_weights(p):
    """LGL nodes and weights on [-1, 1] by Newton iteration to 1e-14."""
    if p < 1:
        raise ValueError("polynomial degree must be at least 1")
    n = p + 1
    x = -np.cos(np.pi * np.arange(n) / p)
    for _ in range(100):
        Pp, Pm = _legendre_and_deriv(x, p)
        # interior nodes are roots of P'_p; Newton on q = (1-x^2) P'_p
        # expressed through the recurrence identity
        dx = (x * Pp - Pm) / (n * Pp)
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x[0], x[-1] = -1.0, 1.0
    Pp, _ = _legendre_and_deriv(x, p)
    w = 2.0 / (p * n * Pp ** 2)
    return x, w


def differentiation_matrix(nodes):
    """Collocation derivative matrix with the negative-sum diagonal trick."""
    n = len(nodes)
    bary = np.ones(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                bary[i] /= nodes[i] - nodes[j]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = bary[j] / (bary[i] * (nodes[i] - nodes[j]))
        D[i, i] = -np.sum(D[i])
    return D


@lru_cache(maxsize=None)
def lgl_operator(p) -> LglOperator:
    x, w = lgl_nodes_weights(p)
    return LglOperator(p=p, nodes=x, weights=w, D=differentiation_matrix(x))


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class Grid1d:
    """Periodic 1D mesh given by element boundary coordinates."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if len(b) < 2 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @classmethod
    def uniform(cls, lo, hi, nel):
        return cls(np.linspace(lo, hi, nel + 1))

    @classmethod
    def perturbed(cls, lo, hi, nel, amplitude=0.2, seed=0):
        """Uniform grid with interior boundaries jittered by +-amplitude*h."""
        if nel < 1:
            raise ValueError("a grid needs at least one element")
        rng = np.random.default_rng(seed)
        b = np.linspace(lo, hi, nel + 1)
        h = (hi - lo) / nel
        b[1:-1] += amplitude * h * rng.uniform(-1.0, 1.0, nel - 1)
        return cls(b)

    @property
    def nel(self):
        return len(self.boundaries) - 1

    @property
    def widths(self):
        return np.diff(self.boundaries)

    def nodes(self, op: LglOperator):
        """Physical node coordinates, shape (nel, n)."""
        left = self.boundaries[:-1, None]
        return left + 0.5 * (op.nodes[None, :] + 1.0) * self.widths[:, None]


@dataclass(frozen=True)
class Grid2d:
    x: Grid1d
    y: Grid1d

    @classmethod
    def uniform(cls, lo, hi, nel):
        return cls(Grid1d.uniform(lo, hi, nel), Grid1d.uniform(lo, hi, nel))

    @classmethod
    def perturbed(cls, lo, hi, nel, amplitude=0.2, seed=0):
        return cls(Grid1d.perturbed(lo, hi, nel, amplitude, seed),
                   Grid1d.perturbed(lo, hi, nel, amplitude, seed + 1))

    def nodes(self, op: LglOperator):
        """Meshgrid node coordinates X, Y of shape (nex, ney, n, n)."""
        xn = self.x.nodes(op)   # (nex, n)
        yn = self.y.nodes(op)   # (ney, n)
        X = xn[:, None, :, None] * np.ones((1, self.y.nel, 1, op.n))
        Y = yn[None, :, None, :] * np.ones((self.x.nel, 1, op.n, 1))
        return X, Y


# ---------------------------------------------------------------------------
# geometry shared by the semidiscretizations

def _neighbours(nel):
    """Indices of each element's left and right periodic neighbours."""
    idx = np.arange(nel)
    return np.roll(idx, 1), np.roll(idx, -1)


def _per_variable(x):
    """A scalar field's quadrature as a float; a system's has one per variable."""
    return float(x) if np.ndim(x) == 0 else x


def _per_member(x):
    """One state's answer as a Python scalar; a stack's, one per member."""
    return x.item() if np.ndim(x) == 0 else x


def _state_axes(nodes, nvar):
    """The negative axes of one state: its node array's, then the variables'."""
    return tuple(range(-(nodes.ndim + bool(nvar)), 0))


class _Semidisc:
    """Quadrature over a state's node array, from `_quadrature`: each node
    axis's weight factors, elements first, then nodes."""

    nvar = None     # variables per node of a system; None for a scalar field
    batched = True

    @property
    def n_dof(self):
        return math.prod(map(len, self._quadrature)) * (self.nvar or 1)

    def integral(self, u):
        wvol = math.prod(np.ix_(*self._quadrature))
        if self.nvar:
            wvol = wvol[..., None]
        return _per_variable(np.sum(u * wvol, axis=tuple(range(len(self._quadrature)))))

    def l2_error(self, u, ref):
        labels = "efab"[:len(self._quadrature)]     # one per node axis
        with np.errstate(over="ignore", invalid="ignore"):
            d = (u - ref) ** 2
            return _per_variable(np.sqrt(np.einsum(f"{labels}...,{','.join(labels)}->...",
                                                   d, *self._quadrature)))


class _Semidisc1d(_Semidisc):
    """Operator, nodes x, Jacobians dx/dxi and neighbours in 1D."""

    def __init__(self, grid: Grid1d, p: int):
        self.grid = grid
        self.op = lgl_operator(p)
        self.jacobian = 0.5 * grid.widths
        self.x = grid.nodes(self.op)
        self._left, self._right = _neighbours(grid.nel)
        self._axes = _state_axes(self.x, self.nvar)
        self._quadrature = (self.jacobian, self.op.weights)


class _Semidisc2d(_Semidisc):
    """Operator, nodes X, Y, Jacobians jx, jy and neighbours in 2D."""

    def __init__(self, grid: Grid2d, p: int):
        self.grid = grid
        self.op = lgl_operator(p)
        self.jx = 0.5 * grid.x.widths
        self.jy = 0.5 * grid.y.widths
        self.X, self.Y = grid.nodes(self.op)
        self._lx, self._rx = _neighbours(grid.x.nel)
        self._ly, self._ry = _neighbours(grid.y.nel)
        self._axes = _state_axes(self.X, self.nvar)
        w = self.op.weights
        self._quadrature = (self.jx, self.jy, w, w)


# ---------------------------------------------------------------------------
# interface fluxes

def _upwind_face(du, u, a, first, last, nb, left, right, scale):
    """Add the full upwind surface term for velocity a on one family of faces.

    `first`/`last` pick each element's first/last node slab and `nb` is the
    slabs' periodic element axis, from the end.  The inflow face (first for
    a > 0, last for a < 0) takes `scale` times the jump to the upwind
    neighbour's outflow state; a = 0 adds nothing.
    """
    if a > 0:
        du[first] += scale * (u[last].take(left, axis=nb) - u[first])
    elif a < 0:
        du[last] += scale * (u[first].take(right, axis=nb) - u[last])


def _roll(x, by, axis):
    """np.roll(x, by, axis) for by = 1 or -1: each slab's periodic left (1)
    or right (-1) neighbour along the negative `axis`, as `take` of the
    rolled indices gathers it, by two slice copies."""
    out = np.empty(x.shape, dtype=x.dtype)
    rest = (slice(None),) * (-1 - axis)
    out[(..., slice(by, None), *rest)] = x[(..., slice(None, -by), *rest)]
    out[(..., slice(None, by), *rest)] = x[(..., slice(-by, None), *rest)]
    return out


def _llf_surface(du, u, f, speed, first, last, nb, left, right, jw0, jwN):
    """Add the local Lax-Friedrichs surface terms on one family of faces.

    The index tuples `first`/`last` pick each element's first/last node slab
    of u, f, du and the wave speeds (with a size-1 variable axis): the face
    states, fluxes and speeds.  `nb` is the slabs' periodic element axis,
    from the end; `left`/`right` index each element's neighbours and jw0,
    jwN are the Jacobian-weight scalings of its first and last node.  On the
    innermost axis `_roll` gathers the neighbours, faster there than `take`.
    The arithmetic runs in place on the gathered arrays and on views of du.
    """
    uR, fR, uL, fL, lam = u[first], f[first], u[last], f[last], speed[last]
    if nb == -1:
        uL, fL, lam = _roll(uL, 1, nb), _roll(fL, 1, nb), _roll(lam, 1, nb)
    else:
        uL, fL, lam = uL.take(left, axis=nb), fL.take(left, axis=nb), lam.take(left, axis=nb)
    np.maximum(lam, speed[first], out=lam)
    # fstar = 0.5 * (fL + fR) - 0.5 * lam * (uR - uL), in fL
    fL += fR
    np.multiply(0.5, fL, out=fL)
    np.multiply(0.5, lam, out=lam)
    np.subtract(uR, uL, out=uL)
    np.multiply(lam, uL, out=uL)
    fL -= uL
    fN = _roll(fL, -1, nb) if nb == -1 else fL.take(right, axis=nb)
    # du[first] += (fstar - fR) / jw0; du[last] -= (fstar[right] - f[last]) / jwN
    fL -= fR
    fL /= jw0
    face = du[first]
    face += fL
    fN -= f[last]
    fN /= jwN
    face = du[last]
    face -= fN


# ---------------------------------------------------------------------------
# linear advection

class AdvectionSemidisc1d(_Semidisc1d):
    """u_t + a u_x = 0, periodic, full upwind interface flux."""

    def __init__(self, grid: Grid1d, p: int, velocity: float):
        super().__init__(grid, p)
        self.a = float(velocity)
        w = self.op.weights
        self._vol = -(self.a / self.jacobian[:, None])
        self._upwind = (self.a / (self.jacobian * w[0]) if self.a > 0
                        else -self.a / (self.jacobian * w[-1]))

    def rhs(self, t, u):
        with np.errstate(over="ignore", invalid="ignore"):
            du = self._vol * (u @ self.op.D.T)
            _upwind_face(du, u, self.a, np.s_[..., 0], np.s_[..., -1], -1,
                         self._left, self._right, self._upwind)
        return du

    __call__ = rhs

    def is_admissible(self, u):
        return _per_member(np.all(np.isfinite(u), axis=self._axes))

    def cfl_timescale(self, u):
        ts = math.inf if self.a == 0.0 else float(np.min(self.grid.widths)) / abs(self.a)
        return _per_member(np.full(np.shape(u)[:-len(self._axes)], ts))

    def as_matrix(self):
        """Column j is the RHS of the j-th unit vector, all in one stacked call."""
        m = self.n_dof
        eye = np.eye(m).reshape(m, self.grid.nel, self.op.n)
        return self.rhs(np.zeros(m), eye).reshape(m, m).T


class AdvectionSemidisc2d(_Semidisc2d):
    """u_t + a . grad u = 0 on a periodic tensor-product grid."""

    def __init__(self, grid: Grid2d, p: int, velocity):
        super().__init__(grid, p)
        self.a = np.asarray(velocity, dtype=float)
        ax, ay = self.a
        w = self.op.weights
        jx, jy = self.jx[:, None, None], self.jy[None, :, None]
        self._vol_x = ax / jx[..., None]
        self._vol_y = ay / jy[..., None]
        self._upwind_x = ax / (jx * w[0]) if ax > 0 else -ax / (jx * w[-1])
        self._upwind_y = ay / (jy * w[0]) if ay > 0 else -ay / (jy * w[-1])

    def rhs(self, t, u):
        ax, ay = self.a
        D = self.op.D
        with np.errstate(over="ignore", invalid="ignore"):
            du = np.zeros_like(u)
            if ax != 0.0:
                du -= self._vol_x * np.matmul(D, u)
                _upwind_face(du, u, ax, np.s_[..., 0, :], np.s_[..., -1, :], -3,
                             self._lx, self._rx, self._upwind_x)
            if ay != 0.0:
                du -= self._vol_y * (u @ D.T)
                _upwind_face(du, u, ay, np.s_[..., 0], np.s_[..., -1], -2,
                             self._ly, self._ry, self._upwind_y)
        return du

    __call__ = rhs

    def is_admissible(self, u):
        return _per_member(np.all(np.isfinite(u), axis=self._axes))

    def cfl_timescale(self, u):
        # min over elements of 1 / sum_j |a_j| / h_j
        sx = abs(self.a[0]) / self.grid.x.widths
        sy = abs(self.a[1]) / self.grid.y.widths
        speed = sx[:, None] + sy[None, :]
        ts = math.inf if np.all(speed == 0.0) else float(1.0 / np.max(speed))
        return _per_member(np.full(np.shape(u)[:-len(self._axes)], ts))


# ---------------------------------------------------------------------------
# compressible Euler

def euler_primitives_1d(u):
    rho = u[..., 0]
    v = u[..., 1] / rho
    p = (GAMMA - 1.0) * (u[..., 2] - 0.5 * rho * v * v)
    return rho, v, p


def euler_primitives_2d(u):
    rho = u[..., 0]
    vx = u[..., 1] / rho
    vy = u[..., 2] / rho
    # p = (GAMMA - 1) * (E - 0.5 * rho * (vx * vx + vy * vy))
    kinetic = np.multiply(vx, vx)
    p = np.multiply(vy, vy)
    kinetic += p
    np.multiply(0.5, rho, out=p)
    p *= kinetic
    np.subtract(u[..., 3], p, out=p)
    np.multiply(GAMMA - 1.0, p, out=p)
    return rho, vx, vy, p


def _finite_and_positive(u, primitives, axes):
    """Whether a state is finite with positive density and pressure, the
    first and last of its primitives; per member for a stack of states."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        prim = primitives(u)
        return _per_member(np.all(np.isfinite(u), axis=axes)
                           & np.all((prim[0] > 0.0) & (prim[-1] > 0.0), axis=axes[1:]))


def _sound_speed(rho, p):
    with np.errstate(invalid="ignore"):
        return np.sqrt(GAMMA * p / rho)


class EulerSemidisc1d(_Semidisc1d):
    """1D compressible Euler, nodal DGSEM with local Lax-Friedrichs fluxes.

    An optional spatially-uniform source on the energy equation supports the
    pressure-cycling manufactured flow.
    """

    nvar = 3

    def __init__(self, grid: Grid1d, p: int, energy_source=None):
        super().__init__(grid, p)
        self.energy_source = energy_source
        w, jac = self.op.weights, self.jacobian[:, None]
        self._vol = -(1.0 / jac[..., None])
        self._jw0, self._jwN = jac * w[0], jac * w[-1]

    def is_admissible(self, u):
        return _finite_and_positive(u, euler_primitives_1d, self._axes)

    def rhs(self, t, u):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rho, v, p = euler_primitives_1d(u)
            f = np.empty_like(u)
            f[..., 0] = u[..., 1]
            f[..., 1] = u[..., 1] * v + p
            f[..., 2] = (u[..., 2] + p) * v
            speed = (np.abs(v) + np.sqrt(GAMMA * p / rho))[..., None]
            du = self._vol * np.matmul(self.op.D, f)
            _llf_surface(du, u, f, speed, np.s_[..., 0, :], np.s_[..., -1, :],
                         -2, self._left, self._right, self._jw0, self._jwN)
        if self.energy_source is not None:
            if np.ndim(t):      # a time per member, each source a Python float
                du[..., 2] += np.array([self.energy_source(float(tm))
                                        for tm in t])[:, None, None]
            else:
                du[..., 2] += self.energy_source(t)
        return du

    __call__ = rhs

    def cfl_timescale(self, u):
        rho, v, p = euler_primitives_1d(u)
        lam = np.abs(v) + _sound_speed(rho, p)
        return _per_member(np.min(self.grid.widths[:, None] / lam, axis=self._axes[1:]))


class EulerSemidisc2d(_Semidisc2d):
    """2D compressible Euler on a periodic tensor-product grid.

    `rhs` transposes its input once each way to work in the layout (node x,
    node y, variable, *members, element x, element y); its float operations
    and their order are the state layout's, so its results are the same bits.
    """

    nvar = 4

    def __init__(self, grid: Grid2d, p: int):
        super().__init__(grid, p)
        w = self.op.weights
        jx, jy = self.jx[:, None], self.jy      # (element x, element y) last
        self._vol_x, self._vol_y = -(1.0 / jx), -(1.0 / jy)
        self._jw0_x, self._jwN_x = jx * w[0], jx * w[-1]
        self._jw0_y, self._jwN_y = jy * w[0], jy * w[-1]

    def is_admissible(self, u):
        return _finite_and_positive(u, euler_primitives_2d, self._axes)

    def rhs(self, t, u):
        D, lead = self.op.D, np.ndim(u) - 5
        axes = (lead + 2, lead + 3, lead + 4, *range(lead), lead, lead + 1)
        q = np.ascontiguousarray(np.transpose(u, axes))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rho, vx, vy, p = euler_primitives_2d(np.moveaxis(q, 2, -1))
            c = np.multiply(GAMMA, p)       # c = sqrt(GAMMA * p / rho)
            c /= rho
            np.sqrt(c, out=c)
            # u * v_n is the flux of mass and momentum; p and the energy
            # flux (E + p) v_n complete it
            fx, fy = q * vx[:, :, None], q * vy[:, :, None]
            for f, v, normal in ((fx, vx, 1), (fy, vy, 2)):
                momentum, energy = f[:, :, normal], f[:, :, 3]
                momentum += p
                np.add(q[:, :, 3], p, out=energy)
                energy *= v
            # du = vol_x * (D fx) + vol_y * (D fy)
            du = (D @ fx.reshape(len(D), -1)).reshape(q.shape)
            np.multiply(self._vol_x, du, out=du)
            dy = (D @ fy.reshape(len(D), len(D), -1)).reshape(q.shape)
            du += np.multiply(self._vol_y, dy, out=dy)
            del dy          # freed before the face terms and the result allocate
            # the wave speeds |v_n| + c, in vx and vy
            for v in (vx, vy):
                np.abs(v, out=v)
                v += c
            _llf_surface(du, q, fx, vx[:, :, None], (0,), (-1,), -2,
                         self._lx, self._rx, self._jw0_x, self._jwN_x)
            _llf_surface(du, q, fy, vy[:, :, None], np.s_[:, 0], np.s_[:, -1],
                         -1, self._ly, self._ry, self._jw0_y, self._jwN_y)
        return np.ascontiguousarray(np.transpose(du, np.argsort(axes)))

    __call__ = rhs

    def cfl_timescale(self, u):
        rho, vx, vy, p = euler_primitives_2d(u)
        c = _sound_speed(rho, p)
        sx = (np.abs(vx) + c) / self.jx[:, None, None, None] / 2.0
        sy = (np.abs(vy) + c) / self.jy[None, :, None, None] / 2.0
        return _per_member(1.0 / np.max(sx + sy, axis=self._axes[1:]))


# ---------------------------------------------------------------------------
# CFL normalization per polynomial degree

@lru_cache(maxsize=None)
def sigma_for_degree(p, nel=8):
    """Normalizing factor such that a real stability interval of 2 maps to
    nu = 1 on uniform-grid linear advection.

    Measured from the leftmost eigenvalue of the 1D upwind operator: sigma =
    2 / (|min Re lambda| * h / |a|); the constant is element-count
    independent for periodic uniform grids.
    """
    semi = AdvectionSemidisc1d(Grid1d.uniform(0.0, 1.0, nel), p, velocity=1.0)
    ev = np.linalg.eigvals(semi.as_matrix())
    c_p = float(np.max(-ev.real)) * (1.0 / nel)
    return 2.0 / c_p
