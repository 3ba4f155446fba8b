import numpy as np

from resectsim.optimize import levenberg_marquardt


def test_linear_fit_stops_on_tolerance():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=12)
    result = levenberg_marquardt(lambda x: a @ x - b, lambda x: a, np.zeros(3))
    assert result.converged
    assert result.stop in ("gradient", "step")
    assert np.allclose(result.x, np.linalg.lstsq(a, b, rcond=None)[0],
                       atol=1e-9)


def test_no_descent_step_is_reported():
    # the negated Jacobian points every damped step uphill
    result = levenberg_marquardt(lambda x: x - 3.0, lambda x: -np.eye(2),
                                 np.zeros(2))
    assert result.stop == "no_descent"
    assert result.converged  # callers treat this exit as converged
    assert result.iterations == 1
    assert result.cost_history == [18.0]
    assert np.array_equal(result.x, np.zeros(2))


def test_iteration_limit_is_reported():
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jacobian(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    result = levenberg_marquardt(residual, jacobian, np.array([-1.2, 1.0]),
                                 max_iter=2)
    assert result.stop == "max_iter"
    assert not result.converged
    assert result.iterations == 2
