"""Uniform tensor-product grids and the radial line, with the difference
stencils and quadrature weights shared by the solver and the diagnostics.

Full grids are cell-centered over [-L, L]^d with zero-flux (mirror-ghost)
boundaries; the radial line is node-centered over [0, L] with the axis
handled by the symmetric limit of the Laplacian.  Vector fields are arrays
with a leading component axis: d components on full grids, one (the radial
component) on the radial line.

Every rule that depends on the grid kind lives here.  Grid.implicit_solver
inverts I - dt L for the stencil of Grid.laplacian: by the type-II cosine
transform on full grids, on the radial line by the factorization that
_radial_factors makes once.  Grid.band_solver restricts that solve to the
nodes a step changes: all of a full grid; on the radial line the band of
Grid.step_band, the nodes off the wells widened by the halo past which the
inverse is below one ulp, the bulk outside it frozen.  Each kind loads only
the compiled scipy module it solves with, pocketfft's on full grids and
LAPACK's on the radial line, and no scipy package initializer between scipy
and it (_kernel).
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


@dataclass(frozen=True)
class Grid:
    mode: str          # "full" or "radial"
    dim: int           # physical dimension d
    half_width: float  # L
    npts: int          # points per axis (full) or radial nodes

    def __post_init__(self):
        if self.mode not in (FULL, RADIAL):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if not self.npts >= 8:   # NaN fails every comparison
            raise ValueError("need at least 8 points per axis")
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        if self.mode == RADIAL and self.dim < 2:
            raise ValueError("radial mode needs dim >= 2")
        if self.mode == FULL and self.dim not in (1, 2):
            raise ValueError("full grids support dim 1 and 2")

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

    @cached_property
    def coords(self) -> np.ndarray:
        """Coordinate arrays stacked on a leading axis, shape (ncomp,) + shape.

        Built once per grid and shared by validation, the initial data and
        every diagnostic row, so the array is read-only.
        """
        if self.mode == RADIAL:
            out = self.axis[np.newaxis, :]
        else:
            out = np.stack(np.meshgrid(*([self.axis] * self.dim),
                                       indexing="ij"), axis=0)
        out.flags.writeable = False
        return out

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

    def integrate(self, f) -> float:
        # the ndarray method: np.sum's dispatch costs more than the sum on
        # the radial line
        return float((self.quad_weights * f).sum())

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
        """Second-order zero-flux Laplacian, as implicit_solver inverts.

        On full grids each axis's second difference is written into one
        scratch field and added to the output, so the call holds two fields.
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
        out, tmp = np.zeros_like(u), np.empty_like(u)
        for ax in range(self.dim):
            o, v, s = (np.moveaxis(a, ax, 0) for a in (out, u, tmp))
            # hi - 2 c + lo into s; the mirror ghost repeats the face value:
            # lo = c on the first face and hi = c on the last
            for hi, c, lo, r in ((v[2:], v[1:-1], v[:-2], s[1:-1]),
                                 (v[1:2], v[:1], v[:1], s[:1]),
                                 (v[-1:], v[-1:], v[-2:-1], s[-1:])):
                np.multiply(2.0, c, out=r)
                np.subtract(hi, r, out=r)
                np.add(r, lo, out=r)
            s /= h2
            o += s
        return out

    def implicit_solver(self, dt: float) -> tuple:
        """(weight, solve): solve(weight * b) = (I - dt L)^-1 b for the
        stencil of laplacian, I - dt L factored once; weight is 1.0 on full
        grids, the row weights radially.  solve works in place: given a
        contiguous float64 b it overwrites b with the solution and returns
        b itself, so a step allocates no field."""
        if self.mode == FULL:
            dct = _kernel("scipy.fft", "_pocketfft.pypocketfft").dct
            n, h = self.npts, self.h
            lam = (4.0 / h ** 2) * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2
            denom = 1.0 + dt * (lam if self.dim == 1
                                else lam[:, None] + lam[None, :])

            def solve(b):
                # scipy.fft's dctn and idctn with norm="ortho" and
                # overwrite_x=True over every axis, writing into b
                dct(b, type=2, inorm=1, out=b, nthreads=1)
                b /= denom
                dct(b, type=3, inorm=1, out=b, nthreads=1)
                return b
            return 1.0, solve

        dpttrs = _kernel("scipy.linalg", "_flapack").dpttrs
        head, d_fac, e_fac, w = _radial_factors(self, dt)
        return w, lambda b: _factored_solve(dpttrs, head, d_fac, e_fac, b)

    def band_solver(self, dt: float) -> tuple:
        """(weight, band, solve) for a step that solves only the rows of
        I - dt L whose nodes are not flat.

        band(u) is the slice of nodes a step from field u solves; solve(b,
        u), given b holding weight * (right side) on those rows, writes the
        step's solution into all of b and returns b.  On full grids band is
        the whole grid and solve is implicit_solver's, bit for bit.  On the
        radial line band is the rule of step_band, kept until the node a
        quarter halo inside either edge leaves flatness; nodes outside it
        keep their values in u, and its rows are solved by an LDL^T of the
        band's slice of the symmetrized operator, the couplings to its two
        frozen neighbours moved to the right side (_radial_band_solver).
        """
        if self.mode == FULL:
            weight, whole = self.implicit_solver(dt)
            rows = slice(None)
            return weight, lambda u: rows, lambda b, u: whole(b)
        return _radial_band_solver(self, dt)

    def step_band(self, dt: float):
        """band_of(u), the slice of nodes a step of size dt from field u
        solves: the whole grid on full grids; on the radial line the hull
        of the nodes off the wells by more than WELL_ROUNDOFF, widened by
        _band_halo on each side and taken from node 0 when it comes within
        the axis block, empty when every node is flat.  band_of keeps its
        own scratch, so a call allocates no field."""
        if self.mode == FULL:
            whole = slice(None)
            return lambda u: whole
        lower, _, upper = _radial_diagonals(self, dt)
        return partial(_band_span, halo=_band_halo(self.h, dt),
                       m=_axis_nodes(lower, upper), dev=np.empty(self.npts),
                       off_well=np.empty(self.npts, bool))

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
    running the initializers of package or of the subpackages in between.

    scipy itself is imported as usual.  The module is registered in
    sys.modules under its own name, so a later import of package, say by
    scipy.linalg.lapack, reuses this very module.  Raises ImportError
    naming the module and the scipy version when no file matches.
    """
    name = f"{package}.{path}"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    spec = importlib.util.find_spec(package)
    found = None
    if spec is not None and spec.submodule_search_locations:
        folder = os.path.join(spec.submodule_search_locations[0],
                              *path.split(".")[:-1])
        finder = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        found = finder.find_spec(name)
    if found is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled "
                          f"module {name}", name=name)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _radial_factors(grid: Grid, dt: float) -> tuple:
    """Factor the radial I - dt L = A once, without pivoting.

    Returns (head, d_fac, e_fac, w): head and w as _radial_system gives
    them, (d_fac, e_fac) dpttrf's LDL^T of its symmetrized W A.  A step
    weights b by w, eliminates b[1..m] (in either order), solves by one
    dpttrs and back-substitutes x[m-1..0].  A non-positive pivot, a
    non-finite weight or a dpttrf failure raises LinAlgError.
    """
    head, sym_diag, sym_off, w = _radial_system(grid, dt)
    d_fac, e_fac = _ldl(sym_diag, sym_off)
    return head, d_fac, e_fac, w


def _radial_system(grid: Grid, dt: float) -> tuple:
    """The radial I - dt L = A as a symmetric system with an axis block.

    Every coupling i with lower[i] * upper[i] > 0 is symmetrized by a
    positive row weight, w[i + 1] = w[i] upper[i] / lower[i]; W A is then
    symmetric positive definite, as it is congruent to the symmetric matrix
    similar to A.  The axis rows break this (lower[0] is 0 for d = 3 and
    positive for d = 4, and more leading couplings change sign for d >= 5),
    so the first m nodes (_axis_nodes) are Thomas-eliminated into row m.

    Returns (head, sym_diag, sym_off, w): head holds (multiplier of row
    i + 1, pivot of row i, upper[i]) for each axis node i < m as Python
    floats; sym_diag and sym_off are the diagonal and off-diagonal of W A
    with its first m rows replaced by identity rows and row m's diagonal by
    the last head pivot; w is 1 on nodes 0..m.  A non-positive pivot or a
    non-finite weight raises LinAlgError.
    """
    lower, diag, upper = _radial_diagonals(grid, dt)
    m = _axis_nodes(lower, upper)
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


def _axis_nodes(lower: np.ndarray, upper: np.ndarray) -> int:
    """m, the nodes of the axis block: 1 + the last coupling with
    lower * upper <= 0, node 0 always (m = 1 for d <= 4, 2 for d = 5, 6)."""
    unsymmetric = np.flatnonzero(lower * upper <= 0.0)
    return int(unsymmetric[-1]) + 1 if unsymmetric.size else 1


def _ldl(d: np.ndarray, e: np.ndarray, overwrite: bool = False) -> tuple:
    """dpttrf's LDL^T (d_fac, e_fac) of the symmetric tridiagonal (d, e),
    written over d and e when overwrite is set; LinAlgError if it fails."""
    dpttrf = _kernel("scipy.linalg", "_flapack").dpttrf
    d_fac, e_fac, info = dpttrf(d, e, overwrite_d=overwrite,
                                overwrite_e=overwrite)
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


def _band_span(u: np.ndarray, halo: int, m: int, dev: np.ndarray,
               off_well: np.ndarray) -> slice:
    """The radial Grid.step_band: the hull of the nodes with
    |1 - |u|| > WELL_ROUNDOFF widened by halo on each side, from node 0
    when it comes within the m axis nodes, slice(0, 0) when every node is
    flat.  dev (float) and off_well (bool) are scratch of u's length."""
    np.abs(u, out=dev)
    np.subtract(1.0, dev, out=dev)
    np.abs(dev, out=dev)
    np.greater(dev, WELL_ROUNDOFF, out=off_well)
    first = int(off_well.argmax())
    if not off_well[first]:
        return slice(0, 0)
    # argmax of a reversed view would copy it; write the reversal instead
    np.greater(dev[::-1], WELL_ROUNDOFF, out=off_well)
    last = len(u) - 1 - int(off_well.argmax())
    lo = first - halo
    return slice(0 if lo <= m else lo, min(last + 1 + halo, len(u)))


def _off_well(u: np.ndarray, i: int) -> bool:
    """Whether node i >= 0 of u is off the wells (i = -1 is no node)."""
    return i >= 0 and abs(1.0 - abs(u[i])) > WELL_ROUNDOFF


def _radial_band_solver(grid: Grid, dt: float) -> tuple:
    """Grid.band_solver on the radial line.

    I - dt L is symmetrized (_radial_system) and factored whole once, so a
    failure is raised here.  A band is rebuilt, and its slice of W A
    re-factored into preallocated buffers, on the first step and whenever
    the node halo // 4 inside one of its edges is off the wells (an edge at
    an end of the line is not watched).  Its rows lo..hi-1 see the frozen
    neighbours u[lo - 1] and u[hi] through sym_off[lo - 1] and
    sym_off[hi - 1] on the right side; a band from node 0 keeps the Thomas
    steps of the axis rows.  A band over the whole line factors the whole
    W A, so its step is implicit_solver's, bit for bit.  The band comes from
    Grid.step_band, whose scratch keeps a rebuild free of line-sized
    allocations.
    """
    dpttrs = _kernel("scipy.linalg", "_flapack").dpttrs
    head, sym_diag, sym_off, w = _radial_system(grid, dt)
    _ldl(sym_diag, sym_off)
    n = grid.npts
    band_of = grid.step_band(dt)
    quarter = _band_halo(grid.h, dt) // 4
    d_buf, e_buf = np.empty(n), np.empty(n - 1)
    rows, lo, hi = None, 0, 0
    band_head, d_fac, e_fac = (), None, None
    watch_lo = watch_hi = -1   # the watched nodes, -1 for none

    def rebuild(u):
        nonlocal rows, lo, hi, band_head, d_fac, e_fac, watch_lo, watch_hi
        rows = band_of(u)
        lo, hi = rows.start, rows.stop
        band_head = head if lo == 0 else ()
        watch_lo = lo + quarter if lo > 0 else -1
        watch_hi = hi - 1 - quarter if 0 < hi < n else -1
        if hi > lo:
            k = hi - lo
            np.copyto(d_buf[:k], sym_diag[lo:hi])
            np.copyto(e_buf[:k - 1], sym_off[lo:hi - 1])
            d_fac, e_fac = _ldl(d_buf[:k], e_buf[:k - 1], overwrite=True)

    def band(u):
        if rows is None or _off_well(u, watch_lo) or _off_well(u, watch_hi):
            rebuild(u)
        return rows

    def solve(b, u):
        if lo == hi:   # every node flat: nothing moves
            np.copyto(b, u)
            return b
        if lo > 0:
            b[:lo] = u[:lo]
            b[lo] -= sym_off[lo - 1] * u[lo - 1]
        if hi < n:
            b[hi:] = u[hi:]
            b[hi - 1] -= sym_off[hi - 1] * u[hi]
        _factored_solve(dpttrs, band_head, d_fac, e_fac, b[rows])
        return b
    return w, band, solve


def _factored_solve(dpttrs, head, d_fac, e_fac, x: np.ndarray):
    """Solve the factored system in place on x, a contiguous slice of rows
    from node 0 (head as _radial_system gives it) or from past the axis
    block (head empty): eliminate the axis rows, one dpttrs, back-substitute
    the axis nodes.  Returns x."""
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
    """Points per axis (full) or radial nodes whose spacing is closest to h."""
    if mode == RADIAL:
        return int(round(half_width / h)) + 1
    return int(round(2.0 * half_width / h))


def full_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=FULL, dim=dim, half_width=half_width, npts=npts)


def radial_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=RADIAL, dim=dim, half_width=half_width, npts=npts)
