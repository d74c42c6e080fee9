import numpy as np
import pytest

from swarmso3 import FieldSpec, field_eval, field_gradient

RNG = np.random.default_rng(99)


def fd_gradient(spec, p, h=1e-5):
    out = np.empty(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        out[a] = (field_eval(spec, p + e) - field_eval(spec, p - e)) / (2 * h)
    return out


GAUSS = FieldSpec(kind="gaussian", source=[1.0, -2.0, 0.5], amplitude=3.0, width=[2.0, 1.5, 3.0])
QUAD = FieldSpec(kind="quadratic", source=[0.0, 1.0, 0.0], amplitude=60.0, curvature=[0.3, 0.2, 0.4], domain_radius=10.0)
SUMG = FieldSpec(
    kind="sum_of_gaussians",
    source=[0.0, 0.0, 0.0],
    components=(
        {"source": [0.0, 0.0, 0.0], "amplitude": 5.0, "width": 3.0},
        {"source": [1.0, 0.5, -0.5], "amplitude": 0.5, "width": 4.0},
    ),
)


def test_gaussian_peak_value():
    assert field_eval(GAUSS, GAUSS.source) == pytest.approx(3.0)


def test_gaussian_isotropic_profile():
    spec = FieldSpec(kind="gaussian", source=[0.0, 0.0, 0.0], amplitude=2.0, width=1.5)
    for r in (0.3, 1.0, 2.5):
        expected = 2.0 * np.exp(-(r**2) / (2 * 1.5**2))
        assert field_eval(spec, [r, 0, 0]) == pytest.approx(expected, rel=1e-12)


def test_quadratic_positive_on_domain():
    for _ in range(200):
        u = RNG.normal(size=3)
        u /= np.linalg.norm(u)
        p = np.asarray(QUAD.source) + u * RNG.uniform(0, QUAD.domain_radius)
        assert field_eval(QUAD, p) > 0.0


def test_quadratic_rejects_non_positive_spec():
    with pytest.raises(ValueError):
        FieldSpec(kind="quadratic", source=[0, 0, 0], amplitude=1.0,
                  curvature=[1.0, 1.0, 1.0], domain_radius=10.0)


def test_gradient_critical_point_at_source():
    # exact for single-mode kinds; a mixture peak sits near, not on, the
    # dominant center, so only a loose bound applies there
    for spec in (GAUSS, QUAD):
        assert np.linalg.norm(field_gradient(spec, spec.source)) < 1e-9
    assert np.linalg.norm(field_gradient(SUMG, SUMG.source)) < 0.1


def test_gradient_isotropic_gaussian_closed_form():
    w = 1.5
    spec = FieldSpec(kind="gaussian", source=[0.0, 0.0, 0.0], amplitude=2.0, width=w)
    for r in (-2.0, 0.7, 3.1):
        g = field_gradient(spec, [r, 0, 0])
        sigma = field_eval(spec, [r, 0, 0])
        # points back toward the source with magnitude |r| sigma / w^2
        assert g[1] == pytest.approx(0.0, abs=1e-15)
        assert g[2] == pytest.approx(0.0, abs=1e-15)
        assert g[0] == pytest.approx(-r / w**2 * sigma, rel=1e-12)
        assert np.allclose(g, fd_gradient(spec, np.array([r, 0.0, 0.0])), atol=1e-8)


@pytest.mark.parametrize("spec", [GAUSS, QUAD, SUMG], ids=["gaussian", "quadratic", "sum"])
def test_gradient_matches_finite_differences(spec):
    for _ in range(1000):
        p = np.asarray(spec.source) + RNG.uniform(-4.0, 4.0, size=3)
        g = field_gradient(spec, p)
        fd = fd_gradient(spec, p)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1e-12, np.linalg.norm(g))


@pytest.mark.parametrize("spec", [GAUSS, QUAD], ids=["gaussian", "quadratic"])
def test_single_mode_ascent_toward_source(spec):
    for _ in range(500):
        p = np.asarray(spec.source) + RNG.uniform(-3.0, 3.0, size=3)
        d = np.asarray(spec.source) - p
        if np.linalg.norm(d) < 1e-6:
            continue
        assert field_gradient(spec, p) @ d > 0.0


def test_sum_of_gaussians_rejects_second_peak():
    with pytest.raises(ValueError):
        FieldSpec(
            kind="sum_of_gaussians",
            source=[0.0, 0.0, 0.0],
            components=(
                {"source": [0.0, 0.0, 0.0], "amplitude": 1.0, "width": 1.0},
                {"source": [8.0, 0.0, 0.0], "amplitude": 1.0, "width": 1.0},
            ),
        )


def test_sum_of_gaussians_rejects_off_peak_source():
    with pytest.raises(ValueError):
        FieldSpec(
            kind="sum_of_gaussians",
            source=[2.0, 0.0, 0.0],
            components=({"source": [0.0, 0.0, 0.0], "amplitude": 1.0, "width": 1.0},),
        )


def test_width_validation():
    with pytest.raises(ValueError):
        FieldSpec(kind="gaussian", source=[0, 0, 0], amplitude=1.0, width=[[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        FieldSpec(kind="gaussian", source=[0, 0, 0], amplitude=-1.0, width=1.0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind="gaussian", amplitude=np.inf), "amplitude must be finite"),
        (dict(kind="quadratic", amplitude=np.inf, curvature=1.0, domain_radius=1.0),
         "amplitude must be finite"),
        (dict(kind="gaussian", width=[1.0, np.inf, 1.0]), "width must be finite"),
        (dict(kind="quadratic", amplitude=1e6, curvature=np.nan, domain_radius=1.0),
         "curvature must be finite"),
        (dict(kind="sum_of_gaussians",
              components=({"source": [0.0, 0.0, 0.0], "amplitude": np.inf},)),
         "component amplitudes must be positive and finite"),
    ],
    ids=["amplitude", "quadratic-amplitude", "width", "curvature", "component-amplitude"],
)
def test_non_finite_field_parameters_rejected(kwargs, match):
    # a non-finite parameter is named here, not passed on to eigvalsh or
    # into a run whose first reference update turns nan
    with pytest.raises(ValueError, match=match):
        FieldSpec(source=[0.0, 0.0, 0.0], **kwargs)


def test_gaussian_is_the_one_component_mixture():
    # both kinds build their terms by the same component loop
    source, amplitude, width = [1.0, -2.0, 0.5], 3.0, [2.0, 1.5, 3.0]
    gauss = FieldSpec(kind="gaussian", source=source, amplitude=amplitude, width=width)
    mix = FieldSpec(
        kind="sum_of_gaussians",
        source=source,
        components=({"source": source, "amplitude": amplitude, "width": width},),
    )
    for a, b in zip(gauss._terms, mix._terms):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    points = gauss.source + np.random.default_rng(5).uniform(-4.0, 4.0, size=(4, 5, 3))
    assert np.array_equal(gauss.values(points), mix.values(points))
    assert np.array_equal(gauss.gradients(points), mix.gradients(points))


@pytest.mark.parametrize(
    "kwargs, defaults",
    [
        (dict(kind="gaussian"), dict(amplitude=1.0, width=1.0)),
        (dict(kind="quadratic", curvature=0.01, domain_radius=5.0), dict(amplitude=1.0)),
    ],
    ids=["gaussian", "quadratic"],
)
def test_omitted_inputs_take_their_kinds_defaults(kwargs, defaults):
    source = [1.0, -2.0, 0.5]
    omitted = FieldSpec(source=source, **kwargs)
    given = FieldSpec(source=source, **kwargs, **defaults)
    for a, b in zip(omitted._terms, given._terms, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert omitted.amplitude == 1.0


@pytest.mark.parametrize("p", [np.zeros((2, 3)), np.zeros(2)], ids=["stack", "short"])
@pytest.mark.parametrize("fn", [field_eval, field_gradient], ids=["eval", "gradient"])
def test_single_point_wrappers_take_one_point(fn, p):
    with pytest.raises(ValueError, match=r"expected shape \(3,\)"):
        fn(GAUSS, p)
