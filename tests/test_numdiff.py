import numpy as np

from tunevar import numdiff


def test_jacobian_matches_analytic_polynomial():
    A = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])

    def f(x):
        return A @ x + np.array([x[0] ** 2, x[0] * x[1], x[1] ** 3])

    x = np.array([0.7, -0.3])
    expected = A + np.array(
        [[2 * x[0], 0.0], [x[1], x[0]], [0.0, 3 * x[1] ** 2]]
    )
    assert np.allclose(numdiff.jacobian(f, x), expected, rtol=1e-7, atol=1e-9)


def test_gradient_matches_analytic():
    def f(x):
        return float(np.sin(x[0]) * np.exp(x[1]))

    x = np.array([0.4, -0.2])
    expected = np.array([np.cos(x[0]) * np.exp(x[1]), np.sin(x[0]) * np.exp(x[1])])
    # a scalar-valued f gives the gradient: shape () + (x.size,)
    g = numdiff.jacobian(f, x)
    assert g.shape == (2,)
    assert np.allclose(g, expected, rtol=1e-7)


def test_hessian_symmetric_and_accurate():
    def f(x):
        return float(x[0] ** 2 * x[1] + np.cos(x[1]))

    x = np.array([1.2, 0.3])
    H = numdiff.hessian(f, x)
    expected = np.array([[2 * x[1], 2 * x[0]], [2 * x[0], -np.cos(x[1])]])
    assert np.allclose(H, H.T)
    assert np.allclose(H, expected, rtol=1e-4, atol=1e-5)


def test_hessian_array_valued_matches_elementwise():
    def f(x):
        return np.array([[x[0] ** 2 * x[1], np.cos(x[1])], [x[0] * x[1] ** 3, 1.0]])

    x = np.array([1.2, 0.3])
    H = numdiff.hessian(f, x)
    assert H.shape == (2, 2, 2, 2)
    for a in range(2):
        for b in range(2):
            # bit-identical to the Hessian of each entry on its own
            assert np.array_equal(H[a, b], numdiff.hessian(lambda v: f(v)[a, b], x))
    assert np.allclose(H[0, 0], [[2 * x[1], 2 * x[0]], [2 * x[0], 0.0]], rtol=1e-4, atol=1e-5)


def test_jacobian_matrix_valued_shapes():
    def f(lam):
        return np.outer(np.array([1.0, lam[0]]), np.array([lam[0], lam[0] ** 2, 1.0]))

    lam = np.array([0.5])
    J = numdiff.jacobian(f, lam)
    assert J.shape == (2, 3, 1)
    expected = np.array([[[1.0], [2 * 0.5], [0.0]], [[2 * 0.5], [3 * 0.25], [1.0]]])
    assert np.allclose(J, expected, rtol=1e-6, atol=1e-8)


def test_step_sizes_scale_with_magnitude():
    # large-argument derivatives stay accurate because h grows with |x|
    def f(x):
        return np.array([x[0] ** 2])

    big = numdiff.jacobian(f, np.array([1e6]))[0, 0]
    assert abs(big - 2e6) / 2e6 < 1e-7


def test_jacobian_in_box_steps_only_inside_the_box():
    # f is NaN outside [0, 1] x [-1, 1]: a coordinate on an edge takes the
    # one-sided difference into the box, the others the central one
    def f(x):
        inside = 0.0 <= x[0] <= 1.0 and -1.0 <= x[1] <= 1.0
        return np.array([x[0] ** 2 + x[1], x[0] * x[1]]) if inside else np.full(2, np.nan)

    box = np.array([[0.0, 1.0], [-1.0, 1.0]])
    for x in ([0.0, 0.5], [1.0, -1.0], [0.3, 1.0]):
        x = np.array(x)
        J = numdiff.jacobian_in_box(f, x, box, numdiff.STEP_FIRST)
        assert np.allclose(J, [[2 * x[0], 1.0], [x[1], x[0]]], atol=1e-4)
    x = np.array([0.4, 0.2])
    assert np.array_equal(numdiff.jacobian_in_box(f, x, box, numdiff.STEP_FIRST),
                          numdiff.jacobian(f, x))
    assert np.array_equal(numdiff.jacobian_in_box(f, x, box, 1e-3),
                          numdiff.jacobian_in_box(f, x, None, 1e-3))
