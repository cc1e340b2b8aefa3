"""Uniform tensor-product grids and the radial line, with the difference
stencils and quadrature weights shared by the solver and the diagnostics.

Full grids are cell-centered over [-L, L]^d with zero-flux (mirror-ghost)
boundaries; the radial line is node-centered over [0, L] with the axis
handled by the symmetric limit of the Laplacian.  Vector fields are arrays
with a leading component axis: d components on full grids, one (the radial
component) on the radial line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    def coords(self) -> np.ndarray:
        """Coordinate arrays stacked on a leading axis, shape (ncomp,) + shape."""
        if self.mode == RADIAL:
            return self.axis[np.newaxis, :]
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack(mesh, axis=0)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Cell volumes: h^d on full grids, spherical-shell volumes radially.

        The axis node owns the half-cell ball of radius h/2; the outer node
        owns a half-width shell.
        """
        if self.mode == FULL:
            return np.full(self.shape, self.h ** self.dim)
        d, h, r = self.dim, self.h, self.axis
        omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        w = omega * r ** (d - 1) * h
        w[0] = omega * (h / 2.0) ** d / d
        w[-1] = omega * r[-1] ** (d - 1) * (h / 2.0)
        return w

    def integrate(self, f) -> float:
        return float(np.sum(self.quad_weights * f))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Central differences with mirror ghosts, shape (ncomp,) + shape.

        Mirror ghosts make the boundary entries one-sided averages; radial
        symmetry forces a zero derivative at the axis and the outer node.
        """
        h = self.h
        if self.mode == RADIAL:
            g = np.zeros((1,) + u.shape)
            g[0, 1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
            return g
        out = np.empty((self.dim,) + u.shape)
        for ax in range(self.dim):
            pad = [(1, 1) if k == ax else (0, 0) for k in range(self.dim)]
            ue = np.pad(u, pad, mode="edge")
            hi = ue[tuple(slice(2, None) if k == ax else slice(None)
                          for k in range(self.dim))]
            lo = ue[tuple(slice(None, -2) if k == ax else slice(None)
                          for k in range(self.dim))]
            out[ax] = (hi - lo) / (2.0 * h)
        return out

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Second-order Laplacian matching the solver's zero-flux stencil."""
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
            pad = [(1, 1) if k == ax else (0, 0) for k in range(self.dim)]
            ue = np.pad(u, pad, mode="edge")
            hi = ue[tuple(slice(2, None) if k == ax else slice(None)
                          for k in range(self.dim))]
            lo = ue[tuple(slice(None, -2) if k == ax else slice(None)
                          for k in range(self.dim))]
            out += (hi - 2.0 * u + lo) / h2
        return out


def npts_for_spacing(mode: str, half_width: float, h: float) -> int:
    """Points per axis (full) or radial nodes whose spacing is closest to h."""
    if mode == RADIAL:
        return int(round(half_width / h)) + 1
    return int(round(2.0 * half_width / h))


def full_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=FULL, dim=dim, half_width=half_width, npts=npts)


def radial_grid(dim: int, half_width: float, npts: int) -> Grid:
    return Grid(mode=RADIAL, dim=dim, half_width=half_width, npts=npts)
