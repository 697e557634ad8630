"""Structured conforming triangulations of the supported 2D domains.

Rectangles use a union-jack split of a uniform grid.  Balls of the dual
norm (disks when the norm is Euclidean) map the same template square onto
the domain: a template point q lands on the level set {H_dual = R m} where
m = |q|_inf, so mesh rings follow the level sets of the anisotropy and the
boundary vertices sit on the curve exactly (chord sag below h^2/8 between
them).  Annuli between the R/2 and R level sets use a polar template with
an even angular count so the alternating diagonal pattern closes up.

All generators retriangulate with more resolution until the longest edge
is at most the requested spacing.  Candidates are checked from their
vertices and triangles alone; only the accepted one becomes a Mesh2D.

Every generator numbers its vertices along a grid, so the interior
vertices, in ascending order, fill a rows x cols lattice row by row and
each couples only to its 8 lattice neighbours.  The mesh records that
lattice; on the annulus its columns follow the angle and wrap around.
Builder meshes nest: ``coarsen`` keeps every other vertex of the grid and
triangulates it as the builder does; on a ball whose template resolution
is even that is the builder's own mesh at half the resolution.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericError
from .finsler import FinslerNorm


@dataclasses.dataclass
class DomainSpec:
    """What to mesh.

    kind: one of ``rectangle`` (sides a x b, corner at the origin),
    ``disk`` (radius, centered), ``wulff_ball`` (dual-norm ball of the
    given norm), ``annulus_wulff`` (between dual-norm radii R/2 and R).
    """

    kind: str
    a: float = 1.0
    b: float = 1.0
    radius: float = 1.0
    norm: Optional[FinslerNorm] = None
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        kinds = ("rectangle", "disk", "wulff_ball", "annulus_wulff")
        if self.kind not in kinds:
            raise ValueError(f"domain kind must be one of {kinds}, got {self.kind!r}")
        if self.kind == "rectangle":
            if self.a <= 0 or self.b <= 0:
                raise ValueError("rectangle sides must be positive")
        elif self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.kind in ("wulff_ball", "annulus_wulff") and self.norm is None:
            raise ValueError(f"{self.kind} requires a norm")
        if self.norm is not None and self.norm.dim != 2:
            raise ValueError(f"a planar domain needs a planar norm, got dim {self.norm.dim}")
        if len(self.center) != 2:
            raise ValueError(f"center must have 2 coordinates, got {self.center!r}")
        if self.kind == "rectangle" and any(c != 0 for c in self.center):
            raise ValueError(f"a rectangle has its corner at the origin; center must be "
                             f"[0, 0], got {list(self.center)!r}")


class Lattice(NamedTuple):
    """Logical grid of the interior vertices: interior vertex number
    i cols + j (ascending vertex order) sits at row i, column j.  Columns
    wrap around when periodic."""

    rows: int
    cols: int
    periodic: bool = False


class Mesh2D:
    """Conforming triangle mesh with boundary metadata.

    vertices: (N, 2) float, triangles: (M, 3) int with positive signed
    area, boundary_vertices: sorted index array, boundary_normals: unit
    inner normals aligned with boundary_vertices, h: longest edge,
    lattice: the Lattice of the interior vertices, or None for a mesh
    built by hand.  A builder that has already measured the longest edge
    passes it as ``h``; otherwise it is measured here.

    The geometry (_geometry) and the boundary edges (_boundary_edges) come
    from helpers, so their whole-mesh temporaries are freed when each
    returns; only the attributes outlive the constructor.
    """

    def __init__(self, vertices, triangles, lattice=None, *, h=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        tris = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (N, 2)")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must be (M, 3)")
        n = self.vertices.shape[0]
        if tris.min() < 0 or tris.max() >= n:
            raise ValueError("triangle index out of range")
        self.triangles, self.areas, self.basis_grads = _geometry(self.vertices, tris)
        if np.bincount(tris.ravel(), minlength=n).min() == 0:
            raise ValueError("mesh has orphan vertices")
        b_edges, b_opposite = _boundary_edges(tris, n)
        self.h = _longest_edge(self.vertices, tris) if h is None else h
        # sorted, as np.unique would give them, without importing numpy.ma
        self.boundary_vertices = np.flatnonzero(np.bincount(b_edges.ravel(), minlength=n))
        self._interior_mask = np.ones(n, dtype=bool)
        self._interior_mask[self.boundary_vertices] = False
        self.boundary_normals = self._vertex_normals(b_edges, b_opposite)
        self._incidence = None
        n_interior = n - len(self.boundary_vertices)
        if lattice is not None and lattice.rows * lattice.cols != n_interior:
            raise ValueError(f"a {lattice.rows} x {lattice.cols} lattice does not hold "
                             f"{n_interior} interior vertices")
        self.lattice = lattice

    def _vertex_normals(self, b_edges, b_opposite):
        p = self.vertices
        mid = 0.5 * (p[b_edges[:, 0]] + p[b_edges[:, 1]])
        tang = p[b_edges[:, 1]] - p[b_edges[:, 0]]
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        inward = p[b_opposite] - mid
        inward -= tang * np.einsum("ij,ij->i", inward, tang)[:, None]
        inward /= np.linalg.norm(inward, axis=1, keepdims=True)
        acc = np.zeros_like(p)
        np.add.at(acc, b_edges[:, 0], inward)
        np.add.at(acc, b_edges[:, 1], inward)
        normals = acc[self.boundary_vertices]
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        return normals

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def interior_mask(self):
        return self._interior_mask

    def incidence(self):
        """Vertex-triangle incidence in compressed rows: (indptr, indices).

        The triangles touching vertex v are indices[indptr[v]:indptr[v + 1]],
        in ascending order.
        """
        if self._incidence is None:
            flat = self.triangles.ravel()
            order = np.argsort(flat, kind="stable")
            counts = np.bincount(flat, minlength=self.n_vertices)
            self._incidence = (np.concatenate([[0], np.cumsum(counts)]), order // 3)
        return self._incidence

    def vertex_patches(self):
        """List of triangle-index arrays, one per vertex (1-ring)."""
        indptr, indices = self.incidence()
        return np.split(indices, indptr[1:-1])

    def inner_normal(self, vertex):
        """Unit inner normal at a boundary vertex, or (k, 2) for an array of them."""
        vertex = np.asarray(vertex)
        bv = self.boundary_vertices
        pos = np.minimum(np.searchsorted(bv, vertex), len(bv) - 1)
        off = bv[pos] != vertex
        if np.any(off):
            bad = np.atleast_1d(vertex)[np.atleast_1d(off)].tolist()
            raise ValueError(f"vertices {bad} are not on the boundary")
        return self.boundary_normals[pos]


def _geometry(p, tris):
    """Orient the triangles counterclockwise, in place; return them with
    their areas and P1 basis gradients.

    The two edge vectors from corner 0 are taken once.  A clockwise row
    swaps corners 1 and 2, which swaps the two vectors and negates the
    determinant.  The gradients, rows of the inverse edge matrix, fill one
    (3, 2, M) buffer, so each column basis_grads[:, a, d] of the returned
    (M, 3, 2) view is contiguous.
    """
    p0 = p[tris[:, 0]]
    e1 = p[tris[:, 1]]
    e1 -= p0
    e2 = p[tris[:, 2]]
    e2 -= p0
    del p0
    det = e1[:, 0] * e2[:, 1]
    det -= e1[:, 1] * e2[:, 0]
    flip = det < 0
    if flip.any():
        tris[flip] = tris[flip][:, [0, 2, 1]]
        e1[flip], e2[flip] = e2[flip], e1[flip]
        np.negative(det, out=det, where=flip)
    areas = 0.5 * det
    if np.any(areas <= 0.0):
        raise ValueError("degenerate triangle in mesh")
    grads = np.empty((3, 2, len(det)))
    np.divide(e2[:, 1], det, out=grads[1, 0])
    np.divide(e2[:, 0], det, out=grads[1, 1])
    np.negative(grads[1, 1], out=grads[1, 1])
    np.divide(e1[:, 1], det, out=grads[2, 0])
    np.negative(grads[2, 0], out=grads[2, 0])
    np.divide(e1[:, 0], det, out=grads[2, 1])
    np.add(grads[1], grads[2], out=grads[0])
    np.negative(grads[0], out=grads[0])
    return tris, areas, grads.transpose(2, 0, 1)


def _boundary_edges(tris, n):
    """The edges of one triangle only, (k, 2), and the vertex opposite each.

    Edge j of triangle t joins corners j and j + 1 (mod 3) and is keyed by
    its sorted ends at position j M + t.  Runs of equal keys, in stable
    order, give each distinct edge's first occurrence and its count; the
    ends and the opposite corner are read back from the triangle.  Raises
    ValueError for an edge of more than two triangles.
    """
    m = len(tris)
    key = np.empty(3 * m, dtype=np.int64)
    for j in range(3):
        u, v = tris[:, j], tris[:, (j + 1) % 3]
        part = key[j * m:(j + 1) * m]
        np.minimum(u, v, out=part)
        part *= n
        part += np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    del key  # the run lengths below, not the sort, set this function's peak
    counts = np.diff(np.append(first, 3 * m))
    if counts.max() > 2:
        raise ValueError("non-manifold edge in mesh")
    corner, t = np.divmod(order[first[counts == 1]], m)
    ends = np.stack([tris[t, corner], tris[t, (corner + 1) % 3]], axis=1)
    return ends, tris[t, (corner + 2) % 3]


def _longest_edge(vertices, triangles):
    """Length of the longest triangle edge, measured one edge column at a time."""
    x, y = vertices[:, 0], vertices[:, 1]
    longest = 0.0
    for j in range(3):
        u, v = triangles[:, j], triangles[:, (j + 1) % 3]
        dx = x[u] - x[v]
        dy = y[u] - y[v]
        dx *= dx
        dy *= dy
        dx += dy
        longest = max(longest, dx.max())
    return float(np.sqrt(longest))


def _union_jack(a, b, c, d):
    """Two triangles per quad (a, b, c, d), corners in cyclic order.

    The corner arrays hold vertex ids, one entry per quad; quads are emitted
    in row-major order and split along a-c where the quad index i + j is
    even, along b-d where it is odd.  The triangles (a, b, c|d) and
    (a|b, c, d) of each quad fill one (rows, cols, 2, 3) array slot by
    slot, the split-dependent slots over the two checkerboard parities.
    """
    out = np.empty(a.shape + (2, 3), dtype=np.int64)
    for k, corner in ((0, a), (1, b)):
        out[..., 0, k] = corner
    for k, corner in ((1, c), (2, d)):
        out[..., 1, k] = corner
    for i0, j0 in ((0, 0), (1, 1), (0, 1), (1, 0)):
        quads = (slice(i0, None, 2), slice(j0, None, 2))
        even = i0 == j0
        out[quads + (0, 2)] = (c if even else d)[quads]
        out[quads + (1, 0)] = (a if even else b)[quads]
    return out.reshape(-1, 3)


def _grid_triangles(nx, ny):
    """Union-jack triangulation of an (nx+1) x (ny+1) vertex grid."""
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    return _union_jack(vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:])


def _annulus_triangles(n_r, n_t):
    """Union-jack triangulation of n_r + 1 rings of n_t vertices, closed
    around the angle by mapping column n_t back onto column 0."""
    vid = np.arange(n_r + 1)[:, None] * n_t + np.arange(n_t + 1)[None, :] % n_t
    return _union_jack(vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1])


def _rectangle_mesh(a, b, h):
    nx = max(1, math.ceil(a * math.sqrt(2.0) / h))
    ny = max(1, math.ceil(b * math.sqrt(2.0) / h))
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    verts = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")])
    return Mesh2D(verts, _grid_triangles(nx, ny), Lattice(nx - 1, ny - 1))


def _ball_vertices(norm, radius, center, n):
    """Template square [-1,1]^2 at resolution n mapped onto the dual ball."""
    hd = norm.dual
    side = np.linspace(-1.0, 1.0, 2 * n + 1)
    qx, qy = np.meshgrid(side, side, indexing="ij")
    q = np.column_stack([qx.ravel(), qy.ravel()])
    m = np.abs(q).max(axis=1)
    pts = np.zeros_like(q)
    nz = m > 0
    d = q[nz] / np.linalg.norm(q[nz], axis=1, keepdims=True)
    pts[nz] = radius * m[nz, None] * d / hd.eval(d)[:, None]
    return pts + np.asarray(center, dtype=float)


def _dual_reach(norm):
    """Largest Euclidean length of a unit vector of the dual norm, scanned
    over 256 directions."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    return float((1.0 / norm.dual.eval(dirs)).max())


def _ball_mesh(norm, radius, center, h):
    n = max(2, math.ceil(1.6 * radius * _dual_reach(norm) / h))
    for _ in range(8):
        verts = _ball_vertices(norm, radius, center, n)
        tris = _grid_triangles(2 * n, 2 * n)
        longest = _longest_edge(verts, tris)
        if longest <= h:
            return Mesh2D(verts, tris, Lattice(2 * n - 1, 2 * n - 1), h=longest)
        n = math.ceil(n * longest / h) + 1
    raise NumericError("ball meshing failed to reach the target spacing")


def _annulus_mesh(norm, radius, center, h):
    hd = norm.dual
    s_max = _dual_reach(norm)
    n_r = max(1, math.ceil(0.75 * radius * s_max / h))
    n_t = max(8, 2 * math.ceil(math.pi * radius * s_max / h))
    for _ in range(8):
        r = np.linspace(0.5 * radius, radius, n_r + 1)
        t = np.arange(n_t) * (2.0 * np.pi / n_t)
        d = np.column_stack([np.cos(t), np.sin(t)])
        scale = 1.0 / hd.eval(d)
        verts = (r[:, None, None] * (d * scale[:, None])[None, :, :]).reshape(-1, 2)
        verts += np.asarray(center, dtype=float)
        tris = _annulus_triangles(n_r, n_t)
        longest = _longest_edge(verts, tris)
        if longest <= h:
            return Mesh2D(verts, tris, Lattice(n_r - 1, n_t, periodic=True), h=longest)
        grow = longest / h
        n_r = math.ceil(n_r * grow) + 1
        n_t = 2 * math.ceil(n_t * grow / 2) + 2
    raise NumericError("annulus meshing failed to reach the target spacing")


def grid_shape(lattice):
    """Shape of a builder mesh's vertex grid, boundary ring included.

    A builder mesh is its template vertex grid numbered row by row:
    (rows + 2) x (cols + 2) vertices for a rows x cols interior lattice, or
    (rows + 2) x cols on the periodic annulus.
    """
    rows, cols, periodic = lattice
    return rows + 2, cols if periodic else cols + 2


def coarsen(mesh):
    """The mesh on every other vertex of a builder mesh's grid, or None.

    The coarse mesh keeps the even rows and columns of the grid_shape grid
    (vertex ids ``arange(n).reshape(grid_shape(lattice))[::2, ::2]``) and is
    triangulated as the builder triangulates, so coarse interior point I
    sits on fine interior point 2 I + 1 (column 2 I along the annulus's
    angle).  Returns None for a mesh without a lattice or whose vertices
    do not fill that grid, for a non-periodic axis with an even number of
    interior points, and for a periodic column count that is not a
    multiple of 4.
    """
    if mesh.lattice is None:
        return None
    rows, cols, periodic = mesh.lattice
    shape = grid_shape(mesh.lattice)
    if (mesh.n_vertices != shape[0] * shape[1] or rows % 2 == 0
            or (cols % 4 != 0 if periodic else cols % 2 == 0)):
        return None
    keep = np.arange(mesh.n_vertices).reshape(shape)[::2, ::2]
    n_r, n_c = keep.shape
    if periodic:
        return Mesh2D(mesh.vertices[keep.ravel()], _annulus_triangles(n_r - 1, n_c),
                      Lattice(n_r - 2, n_c, periodic=True))
    return Mesh2D(mesh.vertices[keep.ravel()], _grid_triangles(n_r - 1, n_c - 1),
                  Lattice(n_r - 2, n_c - 2))


def build_domain(dom, h_target):
    """Mesh the domain with longest edge at most h_target."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    if dom.kind == "rectangle":
        return _rectangle_mesh(dom.a, dom.b, h_target)
    if dom.kind == "disk":
        return _ball_mesh(FinslerNorm.euclidean(2), dom.radius, dom.center, h_target)
    if dom.kind == "wulff_ball":
        return _ball_mesh(dom.norm, dom.radius, dom.center, h_target)
    return _annulus_mesh(dom.norm, dom.radius, dom.center, h_target)
