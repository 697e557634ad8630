import numpy as np
import pytest
import scipy.sparse as sp

from finslerpde import (DomainSpec, MaterialProfile, ScalarField, boundary_normal_derivative,
                        build_domain, fields, nodal_gradient, recover_gradient,
                        recover_hessian, refinement_study)
from conftest import RECOVERY_IDS, RECOVERY_MESHES


def interpolate(mesh, fun):
    return ScalarField(mesh, fun(mesh.vertices[:, 0], mesh.vertices[:, 1]))


def smooth(x, y):
    return np.sin(2.0 * x) * np.cos(3.0 * y) + x ** 3 - x * y * y


def loop_recover_hessian(field):
    """Reference triangle Hessians: the reference nodal gradient,
    differentiated on each triangle by solving with its edges."""
    mesh = field.mesh
    nodal = loop_nodal_gradient(field)
    hess = np.empty((mesh.n_triangles, 2, 2))
    for t, tri in enumerate(mesh.triangles):
        edges = mesh.vertices[tri[1:]] - mesh.vertices[tri[0]]
        slope = np.linalg.solve(edges, nodal[tri[1:]] - nodal[tri[0]])
        hess[t] = 0.5 * (slope + slope.T)
    return hess


def incidence_csr(mesh):
    """Vertex-triangle incidence: row v holds a 1 for each triangle at v."""
    flat = mesh.triangles.ravel()
    indices = np.argsort(flat, kind="stable") // 3
    indptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=mesh.n_vertices))])
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(mesh.n_vertices, mesh.n_triangles))


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
            x = mesh.vertices[mesh.triangles].mean(axis=1)[:, 0]
            exact = np.column_stack([2.0 * x, np.zeros(mesh.n_triangles)])
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
        # The error is O(1) on a strip of triangles along the template's
        # diagonals (max 0.307 at every h), so its mean over the triangles
        # is O(h): 0.042 / 0.022 / 0.012 at h = 0.1 / 0.05 / 0.025.
        errs = []
        for h in (0.1, 0.05, 0.025):
            mesh = build_domain(DomainSpec(kind="disk", radius=1.0), h)
            field = interpolate(mesh, lambda x, y: (1.0 - x * x - y * y) / 4.0)
            hess = recover_hessian(field)
            # stay clear of the boundary layer where nodal gradients are one-sided
            inner = np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1), axis=1) < 0.8
            dev = np.abs(hess[inner] + 0.5 * np.eye(2)).max(axis=(1, 2))
            errs.append(dev.mean())
        assert errs[0] < 0.05
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]

    def test_x2y_matches_analytic(self):
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.1)
        field = interpolate(mesh, lambda x, y: x * x * y)
        hess = recover_hessian(field)
        x, y = mesh.vertices[mesh.triangles].mean(axis=1).T
        exact = np.empty((mesh.n_triangles, 2, 2))
        exact[:, 0, 0] = 2.0 * y
        exact[:, 0, 1] = exact[:, 1, 0] = 2.0 * x
        exact[:, 1, 1] = 0.0
        inner = (x > 0.2) & (x < 0.8) & (y > 0.2) & (y < 0.8)
        assert np.abs(hess[inner] - exact[inner]).max() < 0.05  # 0.044 at h = 0.1

    @pytest.mark.parametrize("dom, h", RECOVERY_MESHES, ids=RECOVERY_IDS)
    def test_matches_loop_reference(self, dom, h):
        field = interpolate(build_domain(dom, h), smooth)
        ref = loop_recover_hessian(field)
        hess = recover_hessian(field)
        assert np.abs(hess - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_study_recovers_once_per_field(self, euclid, unit_source, monkeypatch):
        # the study must call recover_hessian through the fields module,
        # where the benchmark's tracer wraps it
        calls = []
        original = fields.recover_hessian

        def counted(field, with_stats=False):
            calls.append(id(field))
            return original(field, with_stats=with_stats)
        monkeypatch.setattr(fields, "recover_hessian", counted)
        refinement_study(DomainSpec(kind="disk", radius=1.0), MaterialProfile(p=2.0),
                         euclid, unit_source, h_coarsest=0.3, levels=2)
        assert len(calls) == len(set(calls)) == 2

    def test_triangle_hessians_symmetric(self, torsion_coarse):
        field, _ = torsion_coarse
        hess = recover_hessian(field)
        assert hess.shape == (field.mesh.n_triangles, 2, 2)
        assert np.array_equal(hess, np.transpose(hess, (0, 2, 1)))


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
