import math
import tracemalloc

import numpy as np
import pytest

from finslerpde import DomainSpec, FinslerNorm, Mesh2D, build_domain
from finslerpde.mesh import (Lattice, _annulus_triangles, _ball_vertices, _grid_triangles,
                             _union_jack, coarsen)
from finslerpde.solver import _stencil_slots
from conftest import RECOVERY_IDS, RECOVERY_MESHES


def loop_union_jack(n_i, n_j, vid, corners):
    """Reference triangle loop: quads (i, j) in row-major order, corners
    a, b, c, d from ``corners(i, j)``, split a-c on even i + j, else b-d."""
    tris = []
    for i in range(n_i):
        for j in range(n_j):
            a, b, c, d = (vid(*q) for q in corners(i, j))
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
    return np.asarray(tris, dtype=np.int64)


def stacked_union_jack(a, b, c, d):
    """Reference: the whole-array build from np.indices, corner stacks and
    np.where, as the mesh module built it before filling one array."""
    i, j = np.indices(a.shape)
    even = ((i + j) % 2 == 0)[..., None]
    first = np.where(even, np.stack([a, b, c], axis=-1), np.stack([a, b, d], axis=-1))
    second = np.where(even, np.stack([a, c, d], axis=-1), np.stack([b, c, d], axis=-1))
    return np.stack([first, second], axis=-2).reshape(-1, 3).astype(np.int64)


def longest_unique_edge(mesh):
    """Longest edge, measured once per sorted unique vertex pair."""
    t = mesh.triangles
    e = np.unique(np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                          axis=1), axis=0)
    p = mesh.vertices
    return float(np.sqrt(((p[e[:, 0]] - p[e[:, 1]]) ** 2).sum(axis=1)).max())


def mesh_every_candidate(dom, h):
    """Reference: the refinement loops with a full Mesh2D built for every
    candidate resolution, each measured by its unique edges.  Returns
    (accepted mesh, its longest edge, candidates built)."""
    norm = FinslerNorm.euclidean(2) if dom.kind == "disk" else dom.norm
    hd = norm.dual
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    s_max = float((1.0 / hd.eval(np.column_stack([np.cos(thetas), np.sin(thetas)]))).max())
    if dom.kind == "annulus_wulff":
        n_r = max(1, math.ceil(0.75 * dom.radius * s_max / h))
        n_t = max(8, 2 * math.ceil(math.pi * dom.radius * s_max / h))
    else:
        n = max(2, math.ceil(1.6 * dom.radius * s_max / h))
    for built in range(1, 9):
        if dom.kind == "annulus_wulff":
            r = np.linspace(0.5 * dom.radius, dom.radius, n_r + 1)
            t = np.arange(n_t) * (2.0 * np.pi / n_t)
            d = np.column_stack([np.cos(t), np.sin(t)])
            scale = 1.0 / hd.eval(d)
            verts = (r[:, None, None] * (d * scale[:, None])[None, :, :]).reshape(-1, 2)
            mesh = Mesh2D(verts + np.asarray(dom.center), _annulus_triangles(n_r, n_t))
        else:
            mesh = Mesh2D(_ball_vertices(norm, dom.radius, dom.center, n),
                          _grid_triangles(2 * n, 2 * n))
        longest = longest_unique_edge(mesh)
        if longest <= h:
            return mesh, longest, built
        if dom.kind == "annulus_wulff":
            grow = longest / h
            n_r = math.ceil(n_r * grow) + 1
            n_t = 2 * math.ceil(n_t * grow / 2) + 2
        else:
            n = math.ceil(n * longest / h) + 1
    raise AssertionError("no candidate met the spacing")


class TestRectangle:
    def test_counts_and_corners(self):
        mesh = build_domain(DomainSpec(kind="rectangle", a=1.0, b=1.0), 0.5)
        assert mesh.n_triangles >= 8
        corners = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        have = {tuple(v) for v in mesh.vertices[mesh.boundary_vertices]}
        assert corners <= have

    def test_area_and_h(self):
        mesh = build_domain(DomainSpec(kind="rectangle", a=2.0, b=1.0), 0.3)
        assert mesh.areas.sum() == pytest.approx(2.0)
        assert 0.0 < mesh.h <= 0.3 + 1e-12
        assert np.all(mesh.areas > 0.0)

    def test_invalid_sides(self):
        with pytest.raises(ValueError):
            DomainSpec(kind="rectangle", a=-1.0)

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_nonpositive_h_rejected(self, h):
        with pytest.raises(ValueError, match="h_target must be positive"):
            build_domain(DomainSpec(kind="rectangle"), h)


class TestDisk:
    def test_boundary_on_circle(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        r = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)

    def test_area_converges_to_pi(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.05)
        assert mesh.areas.sum() == pytest.approx(np.pi, rel=2e-3)

    def test_center_vertex_present(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        dist = np.linalg.norm(mesh.vertices, axis=1).min()
        assert dist == pytest.approx(0.0, abs=1e-14)

    def test_normals_point_inward(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        pts = mesh.vertices[mesh.boundary_vertices]
        inward = -pts / np.linalg.norm(pts, axis=1)[:, None]
        dots = np.einsum("ij,ij->i", mesh.boundary_normals, inward)
        assert np.all(dots > 0.98)


class TestWulffDomains:
    def test_ellipse_boundary_on_level_set(self, ellipsoidal):
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0,
                                       norm=ellipsoidal), 0.2)
        d = ellipsoidal.dual.eval(mesh.vertices[mesh.boundary_vertices])
        assert np.allclose(d, 1.0, atol=1e-12)
        assert mesh.areas.sum() == pytest.approx(2.0 * np.pi, rel=5e-3)

    def test_annulus_two_rings(self, euclid):
        mesh = build_domain(DomainSpec(kind="annulus_wulff", radius=1.0,
                                       norm=euclid), 0.15)
        r = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
        inner, outer = r < 0.75, r > 0.75
        assert np.allclose(r[inner], 0.5, atol=1e-12)
        assert np.allclose(r[outer], 1.0, atol=1e-12)
        assert mesh.areas.sum() == pytest.approx(np.pi * (1.0 - 0.25), rel=5e-3)

    def test_norm_required(self):
        with pytest.raises(ValueError):
            DomainSpec(kind="wulff_ball", radius=1.0)


class TestTriangulation:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 3), (4, 2), (5, 7)])
    def test_grid_matches_loop(self, nx, ny):
        ref = loop_union_jack(nx, ny, lambda i, j: i * (ny + 1) + j,
                              lambda i, j: ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
        tris = _grid_triangles(nx, ny)
        assert tris.dtype == np.int64
        assert np.array_equal(tris, ref)

    # odd and even sides, and the annulus's corners, whose last column wraps
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 6), (7, 10),
                                            (140, 140)])
    def test_union_jack_equals_the_stacked_build(self, rows, cols):
        grid = np.arange((rows + 1) * (cols + 1)).reshape(rows + 1, cols + 1)
        ring = np.arange(rows + 1)[:, None] * cols + np.arange(cols + 1)[None, :] % cols
        for vid in (grid, ring):
            for corners in ((vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]),
                            (vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1])):
                tris = _union_jack(*corners)
                assert tris.dtype == np.int64
                assert np.array_equal(tris, stacked_union_jack(*corners))

    def test_union_jack_temporaries_stay_small(self):
        # the 140 x 140 grid of the lp q=4 ball at h = 0.025, numpy 2.4: the
        # traced peak passes the 0.94 MB of triangles by 0.16 MB; by 2.4 MB
        # in the stacked build
        assert setup_transient(lambda: _grid_triangles(140, 140)) < 0.5

    def test_annulus_matches_loop(self):
        n_r, n_t = 3, 10
        ref = loop_union_jack(n_r, n_t, lambda i, j: i * n_t + j % n_t,
                              lambda i, j: ((i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j)))
        assert np.array_equal(_annulus_triangles(n_r, n_t), ref)

    # the bench domains (a three-level disk study, the lp q=4 Wulff ball at
    # h=0.025) and an lp q=4 annulus; each of the last two rejects a candidate
    @pytest.mark.parametrize("kind, q, h, rejects", [
        ("disk", None, 0.1, False), ("disk", None, 0.05, False),
        ("disk", None, 0.025, False), ("wulff_ball", 4.0, 0.025, True),
        ("annulus_wulff", 4.0, 0.05, True)])
    def test_one_mesh_build_matches_every_candidate_built(self, kind, q, h, rejects):
        norm = None if q is None else FinslerNorm.lp(q, 2)
        dom = DomainSpec(kind=kind, radius=1.0, norm=norm, center=(0.25, -0.5))
        ref, longest, built = mesh_every_candidate(dom, h)
        mesh = build_domain(dom, h)
        assert (built > 1) == rejects
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.triangles, ref.triangles)
        assert mesh.h == longest

    def test_patches_are_ascending_one_rings(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        patches = mesh.vertex_patches()
        assert len(patches) == mesh.n_vertices
        for v, patch in enumerate(patches):
            assert np.array_equal(patch, np.flatnonzero((mesh.triangles == v).any(axis=1)))


def unique_rows_boundary(mesh):
    """Boundary vertices and normals from np.unique over the sorted edge rows."""
    tris = mesh.triangles
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    opposite = np.concatenate([tris[:, 2], tris[:, 0], tris[:, 1]])
    _, start, counts = np.unique(np.sort(edges, axis=1), axis=0, return_index=True,
                                 return_counts=True)
    first = start[counts == 1]
    return np.unique(edges[first]), mesh._vertex_normals(edges[first], opposite[first])


def whole_mesh_geometry(vertices, triangles):
    """Reference: orientation, areas, basis gradients and boundary from the
    whole-mesh formulas, the corners gathered twice and the edges and their
    opposite vertices concatenated.  Returns the Mesh2D attributes by name."""
    p = np.asarray(vertices, dtype=float)
    tris = np.array(triangles, dtype=np.int64)
    e1 = p[tris[:, 1]] - p[tris[:, 0]]
    e2 = p[tris[:, 2]] - p[tris[:, 0]]
    signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    flip = signed < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    p0, p1, p2 = p[tris[:, 0]], p[tris[:, 1]], p[tris[:, 2]]
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    g1 = np.stack([d2[:, 1], -d2[:, 0]]) / det
    g2 = np.stack([-d1[:, 1], d1[:, 0]]) / det
    n = len(p)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    opposite = np.concatenate([tris[:, 2], tris[:, 0], tris[:, 1]])
    key = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    start = order[first][np.diff(np.append(first, len(key))) == 1]
    b_edges, b_opposite = edges[start], opposite[start]
    boundary = np.unique(b_edges)
    mid = 0.5 * (p[b_edges[:, 0]] + p[b_edges[:, 1]])
    tang = p[b_edges[:, 1]] - p[b_edges[:, 0]]
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    inward = p[b_opposite] - mid
    inward -= tang * np.einsum("ij,ij->i", inward, tang)[:, None]
    inward /= np.linalg.norm(inward, axis=1, keepdims=True)
    acc = np.zeros_like(p)
    np.add.at(acc, b_edges[:, 0], inward)
    np.add.at(acc, b_edges[:, 1], inward)
    normals = acc[boundary]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return {"triangles": tris, "areas": np.abs(signed),
            "basis_grads": np.stack([-(g1 + g2), g1, g2]).transpose(2, 0, 1),
            "boundary_vertices": boundary, "boundary_normals": normals}


def setup_transient(build):
    """Peak traced memory of build() above what its result keeps, in MB."""
    tracemalloc.start()
    try:
        kept = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - current) / 1e6


class TestMeshIntegrity:
    @pytest.mark.parametrize("dom, h", RECOVERY_MESHES, ids=RECOVERY_IDS)
    def test_boundary_matches_unique_rows(self, dom, h):
        mesh = build_domain(dom, h)
        vertices, normals = unique_rows_boundary(mesh)
        assert np.array_equal(mesh.boundary_vertices, vertices)
        assert np.array_equal(mesh.boundary_normals, normals)

    def test_orphan_vertex_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="orphan"):
            Mesh2D(verts, np.array([[0, 1, 2]]))

    def test_non_manifold_edge_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="non-manifold"):
            Mesh2D(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            Mesh2D(verts, np.array([[0, 1, 2]]))

    def test_orientation_is_fixed(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = Mesh2D(verts, np.array([[0, 2, 1]]))  # clockwise input
        assert mesh.areas[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_orientations_match_the_whole_mesh_formulas(self, seed):
        # builder meshes are counterclockwise, so only a hand-built mesh
        # reaches the flip: reverse a random half of a distorted disk's rows
        base = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        rng = np.random.default_rng(seed)
        verts = base.vertices * [1.3, 0.7] + rng.uniform(-0.01, 0.01, base.vertices.shape)
        tris = base.triangles.copy()
        reverse = rng.random(len(tris)) < 0.5
        tris[reverse] = tris[reverse][:, ::-1]
        ref = whole_mesh_geometry(verts, tris)
        mesh = Mesh2D(verts, tris)
        assert 0 < reverse.sum() < len(tris)
        for name, want in ref.items():
            have = getattr(mesh, name)
            assert have.dtype == want.dtype and have.strides == want.strides, name
            assert np.array_equal(have, want), name

    def test_basis_gradients_sum_to_zero(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        assert np.allclose(mesh.basis_grads.sum(axis=1), 0.0, atol=1e-12)

    def test_target_edge_length_met(self, ellipsoidal):
        for kind, norm in (("disk", None), ("wulff_ball", ellipsoidal)):
            mesh = build_domain(DomainSpec(kind=kind, radius=1.0, norm=norm), 0.1)
            assert mesh.h <= 0.1 + 1e-12


class TestSetupMemory:
    # Traced transients at h = 0.025, numpy 2.4: the disk build 2.9 MB and
    # its slots 1.9 MB; the lp q=4 ball build 3.4 MB and its slots 2.2 MB.
    # Whole-mesh temporaries took 10.8 / 6.5 and 12.6 / 7.6 MB.
    @pytest.mark.parametrize("dom", [
        DomainSpec(kind="disk", radius=1.0),
        DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)),
    ], ids=["disk", "lp4_ball"])
    def test_build_and_slots_stay_under_their_bounds(self, dom):
        mesh = build_domain(dom, 0.025)
        assert setup_transient(lambda: build_domain(dom, 0.025)) < 4.5
        assert setup_transient(lambda: _stencil_slots(mesh)) < 3.0


class TestLattice:
    @pytest.mark.parametrize("dom, h, periodic", [
        (DomainSpec(kind="rectangle", a=1.0, b=2.0), 0.2, False),
        (DomainSpec(kind="disk", radius=1.0), 0.2, False),
        (DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.2, False),
        (DomainSpec(kind="annulus_wulff", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.2, True),
    ], ids=["rectangle", "disk", "lp4_ball", "lp4_annulus"])
    def test_builders_record_the_interior_lattice(self, dom, h, periodic):
        # interior vertices in ascending order fill the lattice row by row, and
        # lattice neighbours along each axis share a mesh edge
        mesh = build_domain(dom, h)
        rows, cols, wraps = mesh.lattice
        assert wraps == periodic
        ids = np.flatnonzero(mesh.interior_mask).reshape(rows, cols)
        t = mesh.triangles
        edges = {tuple(sorted(e)) for e in np.concatenate([t[:, [0, 1]], t[:, [1, 2]],
                                                          t[:, [2, 0]]]).tolist()}
        right = np.roll(ids, -1, axis=1) if periodic else ids[:, 1:]
        pairs = np.concatenate([np.stack([ids[:-1], ids[1:]], -1).reshape(-1, 2),
                                np.stack([ids[:, :right.shape[1]], right], -1).reshape(-1, 2)])
        assert all(tuple(sorted(pair)) in edges for pair in pairs.tolist())

    def test_hand_built_mesh_measures_h(self):
        verts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [3.0, 1.0]])
        assert Mesh2D(verts, np.array([[0, 1, 2], [1, 3, 2]])).h == np.sqrt(10.0)

    def test_hand_built_mesh_has_no_lattice(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert Mesh2D(verts, np.array([[0, 1, 2]])).lattice is None
        with pytest.raises(ValueError, match="lattice"):
            Mesh2D(verts, np.array([[0, 1, 2]]), Lattice(1, 1))


class TestCoarsen:
    @pytest.mark.parametrize("dom, h", [
        (DomainSpec(kind="disk", radius=1.0), 0.3),
        (DomainSpec(kind="disk", radius=1.0), 0.12),
        (DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.025),
    ], ids=["disk-0.3", "disk-0.12", "lp4_ball-0.025"])
    def test_ball_equals_the_builder_at_half_resolution(self, dom, h):
        mesh = build_domain(dom, h)
        n = (mesh.lattice.rows + 1) // 2  # the template resolution
        assert n % 2 == 0
        norm = dom.norm or FinslerNorm.euclidean(2)
        half = Mesh2D(_ball_vertices(norm, 1.0, (0.0, 0.0), n // 2), _grid_triangles(n, n))
        coarse = coarsen(mesh)
        assert coarse.lattice == Lattice(n - 1, n - 1)
        assert np.array_equal(coarse.vertices, half.vertices)
        assert np.array_equal(coarse.triangles, half.triangles)
        # coarse interior point I sits on fine interior point 2 I + 1
        rows, cols, _ = mesh.lattice
        fine = mesh.vertices[mesh.interior_mask].reshape(rows, cols, 2)
        assert np.array_equal(coarse.vertices[coarse.interior_mask],
                              fine[1::2, 1::2].reshape(-1, 2))

    def test_annulus_gives_a_periodic_mesh(self):
        mesh = build_domain(DomainSpec(kind="annulus_wulff", radius=1.0,
                                       norm=FinslerNorm.lp(4.0, 2)), 0.05)
        rows, cols, _ = mesh.lattice
        coarse = coarsen(mesh)
        assert coarse.lattice == Lattice((rows - 1) // 2, cols // 2, periodic=True)
        rings = mesh.vertices.reshape(rows + 2, cols, 2)
        assert np.array_equal(coarse.vertices, rings[::2, ::2].reshape(-1, 2))
        n_r, n_t = (rows + 1) // 2, cols // 2
        assert np.array_equal(coarse.triangles,
                              Mesh2D(coarse.vertices, _annulus_triangles(n_r, n_t)).triangles)
        # two boundary rings, and a lattice the solver accepts
        assert len(coarse.boundary_vertices) == 2 * n_t
        _stencil_slots(coarse)
        assert coarse.areas.sum() == pytest.approx(mesh.areas.sum(), rel=1e-2)

    def test_meshes_that_do_not_coarsen(self):
        disk = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        rows, cols, _ = disk.lattice
        assert coarsen(Mesh2D(disk.vertices, disk.triangles)) is None
        assert coarsen(Mesh2D(disk.vertices, disk.triangles, Lattice(cols * rows, 1))) is None
        # an even number of interior rows, then of interior columns
        even_rows = build_domain(DomainSpec(kind="rectangle"), 0.3)
        assert even_rows.lattice.rows % 2 == 0 and coarsen(even_rows) is None
        even_cols = build_domain(DomainSpec(kind="rectangle", a=1.0, b=0.7), 0.2)
        assert even_cols.lattice[:2] == (7, 4) and coarsen(even_cols) is None
        # 86 angular columns: halving them leaves an odd count
        annulus = build_domain(DomainSpec(kind="annulus_wulff", radius=1.0,
                                          norm=FinslerNorm.lp(4.0, 2)), 0.1)
        assert annulus.lattice.cols % 4 == 2 and coarsen(annulus) is None
