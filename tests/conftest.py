import numpy as np
import pytest

from finslerpde import (DomainSpec, FinslerNorm, MaterialProfile, SourceTerm,
                        build_domain, refinement_study, solve)


# one mesh of each domain kind, shared by the recovery and mesh-edge tests
RECOVERY_MESHES = [
    (DomainSpec(kind="disk", radius=1.0), 0.05),
    (DomainSpec(kind="rectangle"), 0.05),
    (DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
    (DomainSpec(kind="annulus_wulff", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
]
RECOVERY_IDS = ["disk", "rectangle", "lp4_ball", "lp4_annulus"]


def const_source(value=1.0, g=0.0):
    def fill(c):
        return lambda s: np.full_like(np.asarray(s, dtype=float), c)
    return SourceTerm(f=fill(value), g=fill(g))


@pytest.fixture(scope="session")
def euclid():
    return FinslerNorm.euclidean(2)


@pytest.fixture(scope="session")
def ellipsoidal():
    return FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))


@pytest.fixture(scope="session")
def lp4():
    return FinslerNorm.lp(4.0, 2)


@pytest.fixture(scope="session")
def unit_source():
    return const_source()


@pytest.fixture(scope="session")
def torsion_study(euclid, unit_source):
    """Three-level torsion refinement study with the Hopf check; shared by
    the verification unit tests and acceptance criteria 6, 7, and 8."""
    return refinement_study(DomainSpec(kind="disk", radius=1.0),
                            MaterialProfile(p=2.0), euclid, unit_source,
                            h_coarsest=0.1, levels=3, t=0.5, hopf=(0.5, 0.1))


@pytest.fixture(scope="session")
def p4_study(euclid, unit_source):
    return refinement_study(DomainSpec(kind="disk", radius=1.0),
                            MaterialProfile(p=4.0), euclid, unit_source,
                            h_coarsest=0.1, levels=3, t=0.5, q_grid=(1.4, 1.6))


@pytest.fixture(scope="session")
def torsion_coarse(euclid, unit_source):
    mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.1)
    return solve(mesh, MaterialProfile(p=2.0), euclid, unit_source)
