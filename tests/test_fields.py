import numpy as np
import pytest
import scipy.sparse as sp

from finslerpde import (DomainSpec, FinslerNorm, MaterialProfile, Mesh2D, ScalarField,
                        boundary_normal_derivative, build_domain, fields,
                        hessian_at_barycenters, nodal_gradient, recover_gradient,
                        recover_hessian, refinement_study)


def interpolate(mesh, fun):
    return ScalarField(mesh, fun(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def smooth(x, y):
    return np.sin(2.0 * x) * np.cos(3.0 * y) + x ** 3 - x * y * y


def loop_patches(mesh):
    buckets = [[] for _ in range(mesh.n_vertices)]
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            buckets[v].append(t)
    return [np.asarray(b, dtype=np.int64) for b in buckets]


def loop_recover_hessian(field):
    """Reference per-vertex lstsq patch recovery; returns (hess, fallbacks)."""
    mesh = field.mesh
    grads = recover_gradient(field)
    patches = loop_patches(mesh)
    hess = np.zeros((mesh.n_vertices, 2, 2))
    needs_avg = []
    for v in range(mesh.n_vertices):
        ring = np.unique(mesh.triangles[patches[v]])
        tris = np.unique(np.concatenate([patches[u] for u in ring]))
        if len(tris) >= 3:
            x = np.column_stack([np.ones(len(tris)), mesh.barycenters[tris] - mesh.vertices[v]])
            sol, _, rank, _ = np.linalg.lstsq(x, grads[tris], rcond=None)
            if rank == 3:
                hess[v] = 0.5 * (sol[1:, :] + sol[1:, :].T)
                continue
        needs_avg.append(v)
    for v in needs_avg:
        ring = np.setdiff1d(np.unique(mesh.triangles[patches[v]]), [v])
        good = [u for u in ring if u not in needs_avg]
        if good:
            hess[v] = hess[good].mean(axis=0)
    return hess, len(needs_avg)


def incidence_csr(mesh):
    indptr, indices = mesh.incidence()
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(mesh.n_vertices, mesh.n_triangles))


RECOVERY_MESHES = [
    (DomainSpec(kind="disk", radius=1.0), 0.05),
    (DomainSpec(kind="rectangle"), 0.05),
    (DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
    (DomainSpec(kind="annulus_wulff", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
]
RECOVERY_IDS = ["disk", "rectangle", "lp4_ball", "lp4_annulus"]


def loop_nodal_gradient(field):
    mesh = field.mesh
    acc = np.zeros((mesh.n_vertices, 2))
    wsum = np.zeros(mesh.n_vertices)
    wg = recover_gradient(field) * mesh.areas[:, None]
    for col in range(3):
        np.add.at(acc, mesh.triangles[:, col], wg)
        np.add.at(wsum, mesh.triangles[:, col], mesh.areas)
    return acc / wsum[:, None]


class TestGradient:
    def test_affine_exact(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.3)
        field = interpolate(mesh, lambda x, y: x + 2.0 * y)
        grads = recover_gradient(field)
        assert np.allclose(grads, [1.0, 2.0], atol=1e-12)
        assert np.allclose(nodal_gradient(field), [1.0, 2.0], atol=1e-12)

    def test_nodal_matches_add_at_reference(self):
        field = interpolate(build_domain(DomainSpec(kind="disk", radius=1.0), 0.1), smooth)
        ref = loop_nodal_gradient(field)
        assert np.abs(nodal_gradient(field) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dom, h", RECOVERY_MESHES, ids=RECOVERY_IDS)
    def test_nodal_equals_incidence_product(self, dom, h):
        field = interpolate(build_domain(dom, h), smooth)
        mesh = field.mesh
        inc = incidence_csr(mesh)
        wg = mesh.areas[:, None] * recover_gradient(field)
        ref = (inc @ wg) / (inc @ mesh.areas)[:, None]
        assert np.array_equal(nodal_gradient(field), ref)

    def test_quadratic_converges(self):
        errs = []
        for h in (0.2, 0.1):
            mesh = build_domain(DomainSpec(kind="disk", radius=1.0), h)
            field = interpolate(mesh, lambda x, y: x * x)
            grads = recover_gradient(field)
            exact = np.column_stack([2.0 * mesh.barycenters[:, 0],
                                     np.zeros(mesh.n_triangles)])
            errs.append(np.abs(grads - exact).max())
        assert errs[1] < 0.7 * errs[0]

    def test_values_validated(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.5)
        with pytest.raises(ValueError):
            ScalarField(mesh, np.ones(3))
        with pytest.raises(ValueError):
            ScalarField(mesh, np.full(mesh.n_vertices, np.nan))


class TestHessian:
    def test_affine_zero(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.3)
        field = interpolate(mesh, lambda x, y: x + 2.0 * y)
        assert np.abs(recover_hessian(field)).max() < 1e-10

    def test_torsion_interpolant_interior(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.1)
        field = interpolate(mesh, lambda x, y: (1.0 - x * x - y * y) / 4.0)
        hess = recover_hessian(field)
        interior = mesh.interior_mask.copy()
        # stay clear of the boundary layer where patches are one-sided
        interior &= np.linalg.norm(mesh.vertices, axis=1) < 0.8
        dev = np.abs(hess[interior] + 0.5 * np.eye(2)).max()
        assert dev < 0.12  # O(h) at h = 0.1

    def test_x2y_matches_analytic(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.1)
        field = interpolate(mesh, lambda x, y: x * x * y)
        hess = recover_hessian(field)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        exact = np.empty((mesh.n_vertices, 2, 2))
        exact[:, 0, 0] = 2.0 * y
        exact[:, 0, 1] = exact[:, 1, 0] = 2.0 * x
        exact[:, 1, 1] = 0.0
        inner = (mesh.interior_mask & (x > 0.2) & (x < 0.8)
                 & (y > 0.2) & (y < 0.8))
        assert np.abs(hess[inner] - exact[inner]).max() < 0.2

    def test_single_triangle_falls_back(self):
        mesh = Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([[0, 1, 2]]))
        field = ScalarField(mesh, np.array([0.0, 1.0, 2.0]))
        hess, fallback = recover_hessian(field, with_stats=True)
        assert fallback == 3
        assert np.all(hess == 0.0)

    @pytest.mark.parametrize("dom, h", RECOVERY_MESHES, ids=RECOVERY_IDS)
    def test_two_ring_equals_incidence_product(self, dom, h):
        mesh = build_domain(dom, h)
        inc = incidence_csr(mesh)
        ref = inc @ inc.T @ inc
        ref.sort_indices()
        indptr, indices = fields._two_ring(mesh)
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)

    @pytest.mark.parametrize("dom, h", RECOVERY_MESHES, ids=RECOVERY_IDS)
    def test_matches_loop_reference(self, dom, h):
        field = interpolate(build_domain(dom, h), smooth)
        ref, ref_fallbacks = loop_recover_hessian(field)
        hess, fallbacks = recover_hessian(field, with_stats=True)
        assert fallbacks == ref_fallbacks == 0
        assert np.abs(hess - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("verts, tris", [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2], [1, 3, 2]]),
    ], ids=["one_triangle", "two_triangles"])
    def test_fallbacks_match_loop_reference(self, verts, tris):
        mesh = Mesh2D(np.array(verts), np.array(tris))
        field = ScalarField(mesh, np.arange(mesh.n_vertices, dtype=float) ** 2)
        ref, ref_fallbacks = loop_recover_hessian(field)
        hess, fallbacks = recover_hessian(field, with_stats=True)
        assert fallbacks == ref_fallbacks == mesh.n_vertices
        assert np.array_equal(hess, ref)

    def test_study_recovers_once_per_field(self, euclid, unit_source, monkeypatch):
        calls = []
        original = fields.recover_hessian

        def counted(field, with_stats=False):
            calls.append(id(field))
            return original(field, with_stats=with_stats)
        monkeypatch.setattr(fields, "recover_hessian", counted)
        refinement_study(DomainSpec(kind="disk", radius=1.0), MaterialProfile(p=2.0),
                         euclid, unit_source, h_coarsest=0.3, levels=2)
        assert len(calls) == len(set(calls)) == 2

    def test_barycenter_average_shape(self, torsion_coarse):
        field, _ = torsion_coarse
        hb = hessian_at_barycenters(field)
        assert hb.shape == (field.mesh.n_triangles, 2, 2)
        assert np.allclose(hb, np.transpose(hb, (0, 2, 1)))


class TestBoundaryDerivative:
    def test_affine_right_edge(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.25)
        field = interpolate(mesh, lambda x, y: x)
        right = [v for v in mesh.boundary_vertices
                 if mesh.vertices[v, 0] == 1.0 and 0.2 < mesh.vertices[v, 1] < 0.8]
        vals = [boundary_normal_derivative(field, v) for v in right]
        assert np.allclose(vals, -1.0, atol=1e-12)

    def test_torsion_half_on_circle(self, torsion_coarse):
        field, _ = torsion_coarse
        vals = [boundary_normal_derivative(field, v)
                for v in field.mesh.boundary_vertices]
        assert np.allclose(vals, 0.5, atol=0.05)
        batch = boundary_normal_derivative(field, field.mesh.boundary_vertices)
        assert np.allclose(batch, vals, rtol=1e-14, atol=0.0)

    def test_interior_vertex_rejected(self, torsion_coarse):
        field, _ = torsion_coarse
        interior = int(np.flatnonzero(field.mesh.interior_mask)[0])
        with pytest.raises(ValueError):
            boundary_normal_derivative(field, interior)
        with pytest.raises(ValueError):
            boundary_normal_derivative(field, [field.mesh.boundary_vertices[0], interior])
