import numpy as np
import pytest

from minkcenters import Simplex, euclid_orthocenter, euler_point
from minkcenters.centers import _monge_pairs
from minkcenters.norms import DEFAULT_TOL
from minkcenters.verify import random_simplex

TRIRECT = Simplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])


def centroid(T, M=None):
    """The k = d+1 member of the Euler family, for any reference point M."""
    return euler_point(T.vertices, np.zeros(T.dim) if M is None else M, T.dim + 1)


def quasi_medians(T):
    """(ridge centroids, opposite edge midpoints) of the Monge pairs, in edge
    order; M = A_0 is never an edge midpoint, so no pair is skipped."""
    M = T.vertices[0]
    _, centroids, directions = _monge_pairs(T, M, DEFAULT_TOL)
    return centroids, directions + M


def test_degenerate_rejected():
    with pytest.raises(ValueError, match="general position"):
        Simplex([[0, 0], [1, 0], [2, 0]])


def test_centroid_examples():
    assert np.allclose(centroid(Simplex([[0, 0], [1, 0], [0, 1]])), (1 / 3, 1 / 3))
    assert np.allclose(centroid(TRIRECT), (0.5, 0.5, 0.5))
    assert np.allclose(centroid(TRIRECT, (1, -2, 5)), (0.5, 0.5, 0.5))
    regular = Simplex([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    assert np.allclose(centroid(regular), (0, 0, 0))


def test_face_centroids():
    # a face centroid is the Euler kernel at k = the face's vertex count
    V = TRIRECT.vertices
    for face, expected in (([1, 2, 3], (2 / 3, 2 / 3, 2 / 3)), ([0, 1], (1, 0, 0)),
                           ([2, 3], (0, 1, 1))):
        for M in ((0, 0, 0), (1, -2, 5)):
            assert np.allclose(euler_point(V[face], M, len(face)), expected)


def test_quasi_median_endpoints():
    a, b = quasi_medians(TRIRECT)  # pair 0: ridge (2, 3), edge (0, 1)
    assert np.allclose(a[0], (0, 1, 1))
    assert np.allclose(b[0], (1, 0, 0))


def test_quasi_median_is_median_for_triangles():
    T = Simplex([[0, 0], [1, 0], [0, 1]])
    a, b = quasi_medians(T)  # pair 0: ridge (2,), edge (0, 1)
    assert np.allclose(a[0], (0, 1))
    assert np.allclose(b[0], (0.5, 0))  # opposite edge midpoint


def test_centroid_divides_quasi_medians():
    # ratio 2:(d-1), with the 2-part at the ridge-centroid end
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        T = random_simplex(d, rng)
        G = centroid(T)
        a_all, b_all = quasi_medians(T)
        assert len(a_all) == (d + 1) * d // 2
        for a, b in zip(a_all, b_all):
            u = b - a
            t = (G - a) @ u / (u @ u)
            assert abs(t - 2 / (d + 1)) <= 1e-10
            # off-segment residual
            assert np.linalg.norm(G - (a + t * u)) <= 1e-10 * T.diameter


def test_centroid_affine_equivariant():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        T = random_simplex(d, rng)
        A = rng.normal(size=(d, d)) + 2 * np.eye(d)
        b = rng.normal(size=d)
        phiT = Simplex(T.vertices @ A.T + b)
        M = rng.normal(size=d)
        assert np.allclose(centroid(phiT, A @ M + b), A @ centroid(T, M) + b, atol=1e-10)


def test_opposite_edge():
    # pairs run over the edges (0, 1), (0, 2), ..., (2, 3); each ridge is the rest
    ridges, _, directions = _monge_pairs(TRIRECT, (0, 0, 0), DEFAULT_TOL)
    V = TRIRECT.vertices
    assert np.array_equal(ridges[0], V[[2, 3]])
    assert np.array_equal(ridges[-1], V[[0, 1]])
    assert np.allclose(directions[-1], (V[2] + V[3]) / 2)


class TestOrthocentricity:
    # a simplex is orthocentric exactly when euclid_orthocenter returns a point
    def test_trirectangular(self):
        assert euclid_orthocenter(TRIRECT) is not None

    def test_corner_orthogonal_scaled(self):
        T = Simplex([[0, 0, 0], [3, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert euclid_orthocenter(T) is not None

    def test_generic_not_orthocentric(self):
        rng = np.random.default_rng(9)
        assert euclid_orthocenter(random_simplex(3, rng)) is None

    def test_triangles_always(self):
        rng = np.random.default_rng(10)
        assert all(euclid_orthocenter(random_simplex(2, rng)) is not None for _ in range(1000))


class TestOrthocenter:
    def test_trirectangular_orthocenter_at_corner(self):
        # corner-orthogonal simplices, equal and unequal legs
        for T in (TRIRECT, Simplex([[0, 0, 0], [3, 0, 0], [0, 2, 0], [0, 0, 2]])):
            H = euclid_orthocenter(T)
            assert H is not None
            assert np.allclose(H, (0, 0, 0), atol=1e-9)

    def test_right_triangle(self):
        T = Simplex([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(euclid_orthocenter(T), (0, 0), atol=1e-9)

    def test_far_orthocenter_of_thin_triangle(self):
        # H lies about 280 diameters away, where the Euclidean Monge point is
        T = Simplex([[0.5703353931316224, -0.44270410404633015],
                     [0.8498698970150325, 1.0125321776067526],
                     [0.37617644888836693, -1.4341400627923468]])
        H = euclid_orthocenter(T)
        assert H is not None
        assert np.allclose(H, (678.038205, -131.605385), atol=1e-5)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            u = T.vertices[j] - T.vertices[k]
            assert abs((H - T.vertices[i]) @ u) <= 1e-9 * np.linalg.norm(H) * np.linalg.norm(u)
        rng = np.random.default_rng(1)
        assert all(euclid_orthocenter(random_simplex(2, rng)) is not None for _ in range(1000))

    def test_non_orthocentric_none(self):
        for seed in (9, 11):
            rng = np.random.default_rng(seed)
            assert euclid_orthocenter(random_simplex(3, rng)) is None
