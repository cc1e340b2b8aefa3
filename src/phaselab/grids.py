"""Uniform tensor-product grids and the radial line, with the difference
stencils and quadrature weights shared by the solver and the diagnostics.

Full grids are cell-centered over [-L, L]^d with zero-flux (mirror-ghost)
boundaries; the radial line is node-centered over [0, L] with the axis
handled by the symmetric limit of the Laplacian.  Vector fields are arrays
with a leading component axis: d components on full grids, one (the radial
component) on the radial line.

Every rule that depends on the grid kind lives here.  Grid.band_solver
inverts I - dt L for the stencil of Grid.laplacian on the nodes a step
changes: all of a full grid, by the type-II cosine transform; on the radial
line the band of _RadialBand.place, the nodes off the wells widened by the
halo past which the inverse is below one ulp, the bulk outside it frozen,
by an LDL^T of the band's slice of the once-symmetrized operator.  Each
kind loads only the compiled scipy module it solves with, pocketfft's on
full grids and LAPACK's on the radial line, and no scipy package
initializer, not even scipy's own (_kernel).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property, partial
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .potentials import WELL_ROUNDOFF

FULL = "full"
RADIAL = "radial"
# the largest radial dim d whose sphere area 2 pi^(d/2) / gamma(d/2) is a
# float: gamma(d/2) overflows from d = 344
MAX_RADIAL_DIM = 343


@dataclass(frozen=True)
class Grid:
    mode: str          # "full" or "radial"
    dim: int           # physical dimension d
    half_width: float  # L
    npts: int          # points per axis (full) or radial nodes

    def __post_init__(self):
        if self.mode not in (FULL, RADIAL):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if not self.half_width > 0.0:   # before npts, derived from it
            raise ValueError("half_width must be positive")
        if not self.npts >= 8:   # NaN fails every comparison
            raise ValueError("need at least 8 points per axis")
        if self.mode == RADIAL and not 2 <= self.dim <= MAX_RADIAL_DIM:
            raise ValueError(f"radial mode needs 2 <= dim <= "
                             f"{MAX_RADIAL_DIM}")
        if self.mode == FULL and self.dim not in (1, 2):
            raise ValueError("full grids support dim 1 and 2")
        limit = np.iinfo(np.intp).max   # the bytes an array can span
        if 8 * math.prod(self.shape) > limit:   # one float64 field
            raise ValueError(f"npts too large: one field would take more "
                             f"than {limit} bytes")

    @property
    def h(self) -> float:
        if self.mode == FULL:
            return 2.0 * self.half_width / self.npts
        return self.half_width / (self.npts - 1)

    @property
    def shape(self) -> tuple:
        return (self.npts,) * (self.dim if self.mode == FULL else 1)

    @property
    def ncomp(self) -> int:
        """Components of a vector field on this grid."""
        return self.dim if self.mode == FULL else 1

    @cached_property
    def axis(self) -> np.ndarray:
        if self.mode == FULL:
            return -self.half_width + (np.arange(self.npts) + 0.5) * self.h
        return np.arange(self.npts) * self.h

    @property
    def open_coords(self) -> tuple:
        """The coordinates as ncomp arrays, each broadcasting to shape: the
        k-th is axis along axis k of the grid.  They are views of axis, so
        no whole-grid coordinate array is built."""
        if self.mode == RADIAL:
            return (self.axis,)
        return tuple(self.axis.reshape((-1,) + (1,) * (self.dim - 1 - k))
                     for k in range(self.dim))

    def coords_at(self, cells: np.ndarray) -> np.ndarray:
        """The coordinates at the cells with the given flat indices, shape
        (ncomp, len(cells)), read off axis."""
        if self.mode == RADIAL:
            return self.axis.take(cells)[np.newaxis, :]
        return np.stack([self.axis.take(i)
                         for i in np.unravel_index(cells, self.shape)])

    @cached_property
    def quad_weights(self) -> float | np.ndarray:
        """Cell volumes: the scalar h^d on full grids, spherical-shell
        volumes radially.

        The axis node owns the half-cell ball of radius h/2; the outer node
        owns a half-width shell.  A scalar multiplies each cell by the same
        value an array of h^d would, without reading that array.
        """
        if self.mode == FULL:
            return self.h ** self.dim
        d, h, r = self.dim, self.h, self.axis
        omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        w = omega * r ** (d - 1) * h
        w[0] = omega * (h / 2.0) ** d / d
        w[-1] = omega * r[-1] ** (d - 1) * (h / 2.0)
        return w

    def integrate(self, f, out=None) -> float:
        """The quadrature sum of f: the weighted product's sum.  Given out,
        a float64 array of f's shape (f itself allowed), the product is
        written there rather than into a new array."""
        # the ndarray method: np.sum's dispatch costs more than the sum on
        # the radial line
        return float(np.multiply(self.quad_weights, f, out=out).sum())

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Central differences with mirror ghosts, shape (ncomp,) + shape.

        Mirror ghosts make the boundary entries one-sided averages; radial
        symmetry forces a zero derivative at the axis and the outer node.
        On full grids each axis is differenced by slices of u, the ghost
        being the face value itself, written straight into the output: no
        padded copy or temporary is built.
        """
        h = self.h
        if self.mode == RADIAL:
            g = np.zeros((1,) + u.shape)
            g[0, 1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
            return g
        out = np.empty((self.dim,) + u.shape)
        for ax in range(self.dim):
            o, v = np.moveaxis(out[ax], ax, 0), np.moveaxis(u, ax, 0)
            # (hi, lo, out) for the interior, then the first and last faces
            for hi, lo, r in ((v[2:], v[:-2], o[1:-1]), (v[1:2], v[:1], o[:1]),
                              (v[-1:], v[-2:-1], o[-1:])):
                np.subtract(hi, lo, out=r)
            o /= 2.0 * h
        return out

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Second-order zero-flux Laplacian, as band_solver inverts.

        On full grids each axis's second difference, (hi - 2 c + lo) / h^2,
        is added to the output slice by slice.
        """
        h2 = self.h ** 2
        if self.mode == RADIAL:
            d, r = self.dim, self.axis
            out = np.empty_like(u)
            out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 \
                + (d - 1) / r[1:-1] * (u[2:] - u[:-2]) / (2.0 * self.h)
            out[0] = 2.0 * d * (u[1] - u[0]) / h2
            out[-1] = 2.0 * (u[-2] - u[-1]) / h2
            return out
        out = np.zeros_like(u)
        for ax in range(self.dim):
            o, v = np.moveaxis(out, ax, 0), np.moveaxis(u, ax, 0)
            # the mirror ghost repeats the face value: lo = c on the first
            # face and hi = c on the last
            for hi, c, lo, r in ((v[2:], v[1:-1], v[:-2], o[1:-1]),
                                 (v[1:2], v[:1], v[:1], o[:1]),
                                 (v[-1:], v[-1:], v[-2:-1], o[-1:])):
                r += (hi - 2.0 * c + lo) / h2
        return out

    def band_solver(self, dt: float):
        """The solve of I - dt L for the stencil of laplacian, on the band
        of nodes a step changes; the nodes outside it, the bulk, keep their
        values.  A band object b has

        b.weight    the row weights of the whole grid: 1.0 on full grids,
                    an array radially;
        b.place(u)  puts the band on the whole field u and returns b.rows,
                    the slice of the nodes it holds;
        b.moved(v)  whether a step from v, the values on b.rows, needs the
                    band placed anew on the whole field;
        b.solve(x)  given x = weight * (right side) on b.rows, contiguous
                    float64, overwrites x with the step's values there and
                    returns x, so a step allocates no field; on the radial
                    line place sets it, so it solves the band placed last.

        On full grids the band is the whole grid, it never moves, and its
        solve is the type-II cosine transform (_CosineBand).  On the radial
        line it is the rule of _RadialBand.place, kept until the node a
        quarter halo inside either edge leaves flatness.
        """
        if self.mode == FULL:
            return _CosineBand(self, dt)
        return _RadialBand(self, dt)

    def boundary_faces(self, f: np.ndarray, exempt_axes=()) -> list:
        """The values of f on the boundary, one array per face: the outer
        node of the radial line (the axis is no boundary), both faces of
        every full-grid axis not in exempt_axes."""
        if self.mode == RADIAL:
            return [f[-1:]]
        return [np.take(f, side, axis=ax) for ax in range(self.dim)
                if ax not in exempt_axes for side in (0, -1)]

    def respaced(self, h: float) -> Grid:
        """This grid over the same domain with the spacing closest to h."""
        return replace(self, npts=npts_for_spacing(self.mode, self.half_width,
                                                   h))


def _kernel(package: str, path: str):
    """The compiled module package.path (path may name a subpackage, as in
    "_pocketfft.pypocketfft"), loaded from its extension file without
    running any package initializer, scipy's own among them.

    The folder comes from importlib.util.find_spec of the top-level
    package, which locates it without executing it.  The module is
    registered in sys.modules under its own name, so a later import of
    package, say by scipy.linalg.lapack, reuses this very module.  Raises
    ImportError naming the module and the scipy version when no file
    matches; only that path imports scipy.  A fresh interpreter that
    imports numpy and loads one kernel so takes about 230 ms, against
    about 560 ms with `from scipy.linalg import lapack` and 500 ms with
    `import scipy.fft` (medians of six runs pinned to one CPU): about
    300 ms saved per command.
    """
    name = f"{package}.{path}"
    if name in sys.modules:
        return sys.modules[name]
    top, *inner = name.split(".")
    spec = importlib.util.find_spec(top)
    found = None
    if spec is not None and spec.submodule_search_locations:
        folder = os.path.join(spec.submodule_search_locations[0], *inner[:-1])
        finder = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        found = finder.find_spec(name)
    if found is None:
        import scipy
        raise ImportError(f"scipy {scipy.__version__} has no compiled "
                          f"module {name}", name=name)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _radial_system(grid: Grid, dt: float) -> tuple:
    """The radial I - dt L = A as a symmetric system with an axis block.

    Every coupling i with lower[i] * upper[i] > 0 is symmetrized by a
    positive row weight, w[i + 1] = w[i] upper[i] / lower[i]; W A is then
    symmetric positive definite, as it is congruent to the symmetric matrix
    similar to A.  The axis rows break this (lower[0] is 0 for d = 3 and
    positive for d = 4, and more leading couplings change sign for d >= 5),
    so the first m nodes are Thomas-eliminated into row m: m is 1 + the
    last coupling with lower * upper <= 0, node 0 always (m = 1 for d <= 4,
    2 for d = 5, 6).

    Returns (head, sym_diag, sym_off, w): head holds (multiplier of row
    i + 1, pivot of row i, upper[i]) for each axis node i < m as Python
    floats; sym_diag and sym_off are the diagonal and off-diagonal of W A
    with its first m rows replaced by identity rows and row m's diagonal by
    the last head pivot; w is 1 on nodes 0..m.  A non-positive pivot or a
    non-finite weight raises LinAlgError.
    """
    lower, diag, upper = _radial_diagonals(grid, dt)
    unsymmetric = np.flatnonzero(lower * upper <= 0.0)
    m = int(unsymmetric[-1]) + 1 if unsymmetric.size else 1
    head, pivot = [], float(diag[0])
    for i in range(m):
        if not pivot > 0.0:
            raise np.linalg.LinAlgError(
                f"radial operator: non-positive axis pivot {pivot!r} at "
                f"node {i}")
        mult = float(lower[i]) / pivot
        head.append((mult, pivot, float(upper[i])))
        pivot = float(diag[i + 1]) - mult * float(upper[i])

    w = np.ones(grid.npts)
    with np.errstate(over="ignore"):   # w grows like r^(d-1); checked below
        w[m + 1:] = np.cumprod(upper[m:] / lower[m:])
    if not np.all(np.isfinite(w)):
        raise np.linalg.LinAlgError(
            "radial operator: symmetrizing weights are not finite")
    sym_diag = w * diag
    sym_diag[:m], sym_diag[m] = 1.0, pivot
    sym_off = w[:-1] * upper
    sym_off[:m] = 0.0
    return head, sym_diag, sym_off, w


def _ldl(d: np.ndarray, e: np.ndarray) -> tuple:
    """dpttrf's LDL^T (d_fac, e_fac) of the symmetric tridiagonal (d, e),
    new arrays; LinAlgError if it fails."""
    dpttrf = _kernel("scipy.linalg", "_flapack").dpttrf
    d_fac, e_fac, info = dpttrf(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"radial operator not positive definite after symmetrizing: "
            f"dpttrf info = {info}")
    return d_fac, e_fac


def _band_halo(h: float, dt: float) -> int:
    """H, the nodes beyond which (I - dt L)^-1 has decayed below one ulp:
    the least H >= 1 with rho^H <= 2^-52, rho = (1 + 2r - sqrt(1 + 4r)) /
    (2r) the decay per node of the inverse of the constant-coefficient
    second difference at r = dt/h^2 (written without the cancellation)."""
    r = dt / h ** 2
    rho = 2.0 * r / (1.0 + 2.0 * r + math.sqrt(1.0 + 4.0 * r))
    if not rho > 0.0:
        return 1
    return max(1, math.ceil(52.0 * math.log(2.0) / -math.log(rho)))


class _CosineBand:
    """Grid.band_solver on full grids: the whole grid, solved by scipy.fft's
    dctn and idctn with norm="ortho" and overwrite_x=True over every axis,
    writing into x."""

    def __init__(self, grid: Grid, dt: float):
        dct = _kernel("scipy.fft", "_pocketfft.pypocketfft").dct
        n, h = grid.npts, grid.h
        lam = (4.0 / h ** 2) * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2
        denom = 1.0 + dt * (lam if grid.dim == 1
                            else lam[:, None] + lam[None, :])

        def solve(x):
            dct(x, type=2, inorm=1, out=x, nthreads=1)
            x /= denom
            dct(x, type=3, inorm=1, out=x, nthreads=1)
            return x
        self.weight, self.rows, self.solve = 1.0, slice(None), solve

    def place(self, u: np.ndarray) -> slice:
        return self.rows

    def moved(self, v: np.ndarray) -> bool:
        return False


class _RadialBand:
    """Grid.band_solver on the radial line.

    I - dt L is symmetrized (_radial_system) and factored whole once, so a
    failure is raised here.  place(u) puts the band on rows lo..hi-1, the
    hull of the nodes with |1 - |u|| > WELL_ROUNDOFF widened by the halo
    (_band_halo) on each side, from node 0 when it comes within the axis
    nodes, and none when every node is flat; it factors their slice of W A
    anew.  A run places a band rarely (12 times in the 212,500 steps of
    the shipped circle sweep), so place keeps no buffers.  The rows see
    the frozen neighbours u[lo - 1] and u[hi] through sym_off[lo - 1] and
    sym_off[hi - 1] on the right side: their products are taken once there
    and subtracted from the first and last right side of every step (0.0
    at an end of the line, which leaves the bits as they are).  A band
    from node 0 keeps the Thomas steps of the axis rows.  moved(v) watches
    the node halo // 4 inside each edge that is not an end of the line.  A
    band over the whole line factors the whole W A.
    """

    def __init__(self, grid: Grid, dt: float):
        self._dpttrs = _kernel("scipy.linalg", "_flapack").dpttrs
        self._head, self._sym_diag, self._sym_off, self.weight = \
            _radial_system(grid, dt)
        _ldl(self._sym_diag, self._sym_off)
        self._halo = _band_halo(grid.h, dt)
        self.rows, self._watched = None, ()

    def place(self, u: np.ndarray) -> slice:
        off_well = np.flatnonzero(np.abs(1.0 - np.abs(u)) > WELL_ROUNDOFF)
        n, lo, hi = len(u), 0, 0
        if off_well.size:
            lo = int(off_well[0]) - self._halo
            lo = 0 if lo <= len(self._head) else lo
            hi = min(int(off_well[-1]) + 1 + self._halo, n)
        k, quarter = hi - lo, self._halo // 4
        # the watched nodes, counted from the band's first node; an edge at
        # an end of the line has none
        self._watched = ((quarter,) if lo > 0 else ()) \
            + ((k - 1 - quarter,) if 0 < hi < n else ())
        if k == 0:   # every node flat: nothing moves
            self.solve = _unchanged
        else:
            sym_off = self._sym_off
            d_fac, e_fac = _ldl(self._sym_diag[lo:hi], sym_off[lo:hi - 1])
            c_hi = sym_off[hi - 1] * u[hi] if hi < n else 0.0
            if lo > 0:
                self.solve = partial(_band_solve, self._dpttrs, d_fac, e_fac,
                                     sym_off[lo - 1] * u[lo - 1], c_hi)
            else:
                self.solve = partial(_axis_band_solve, self._dpttrs,
                                     self._head, d_fac, e_fac, c_hi)
        self.rows = slice(lo, hi)
        return self.rows

    def moved(self, v: np.ndarray) -> bool:
        for i in self._watched:
            if abs(1.0 - abs(v.item(i))) > WELL_ROUNDOFF:
                return True
        return False


def _unchanged(x: np.ndarray) -> np.ndarray:
    return x


def _band_solve(dpttrs, d_fac, e_fac, c_lo, c_hi, x: np.ndarray):
    """Solve the factored band in place on x, its rows past the axis block:
    subtract the frozen couplings c_lo and c_hi, one dpttrs.  Returns x."""
    x[0] -= c_lo
    x[-1] -= c_hi
    return dpttrs(d_fac, e_fac, x, overwrite_b=True)[0]


def _axis_band_solve(dpttrs, head, d_fac, e_fac, c_hi, x: np.ndarray):
    """Solve the factored band in place on x, its rows from node 0 (head as
    _radial_system gives it): subtract the frozen coupling c_hi, eliminate
    the axis rows, one dpttrs, back-substitute the axis nodes.  Returns x."""
    x[-1] -= c_hi
    for i, (mult, _, _) in enumerate(head, 1):
        x[i] -= mult * x[i - 1]
    x = dpttrs(d_fac, e_fac, x, overwrite_b=True)[0]
    for i in range(len(head) - 1, -1, -1):
        _, pivot, upper = head[i]
        x[i] = (x[i] - upper * x[i + 1]) / pivot
    return x


def _radial_diagonals(grid: Grid, dt: float) -> tuple:
    """(lower, diag, upper) of the tridiagonal I - dt L on the radial line,
    L the stencil of Grid.laplacian with its axis limit: lower[i] and
    upper[i] are the entries (i + 1, i) and (i, i + 1)."""
    n, h, d = grid.npts, grid.h, grid.dim
    ri = grid.axis[1:-1]
    h2 = h ** 2
    lower = np.empty(n - 1)
    diag = np.full(n, 1.0 + dt * 2.0 / h2)
    upper = np.empty(n - 1)
    diag[0] = 1.0 + dt * 2.0 * d / h2
    upper[0] = -dt * 2.0 * d / h2
    lower[:-1] = -dt * (1.0 / h2 - (d - 1) / (2.0 * h * ri))
    upper[1:] = -dt * (1.0 / h2 + (d - 1) / (2.0 * h * ri))
    lower[-1] = -dt * 2.0 / h2
    return lower, diag, upper


def npts_for_spacing(mode: str, half_width: float, h: float) -> int:
    """Points per axis (full) or radial nodes whose spacing is closest to h.
    Raises ValueError when their count is not finite."""
    spans = half_width / h if mode == RADIAL else 2.0 * half_width / h
    if not math.isfinite(spans):
        raise ValueError(f"npts not finite: half_width = {half_width:g} "
                         f"at spacing h = {h:g}")
    return int(round(spans)) + (1 if mode == RADIAL else 0)


def full_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=FULL, dim=dim, half_width=half_width, npts=npts)


def radial_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=RADIAL, dim=dim, half_width=half_width, npts=npts)
