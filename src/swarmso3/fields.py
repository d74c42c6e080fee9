"""Scalar-field models used as simulation ground truth.

Each field maps R^3 to the reals with a unique maximum at `source`; the
quadratic kind is positive only within its checked `domain_radius`.
The simulator samples values at agent positions; the analytic gradient
exists for diagnostics and tests only and is never fed to controllers.
`FieldSpec.values` and `FieldSpec.gradients` evaluate at a (..., 3)
array of points, e.g. the (N, 3) positions of a whole swarm at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .so3 import _apply_kinds, _arr3, _finite, _take


def _spd_matrix(value, name: str, power: int) -> np.ndarray:
    """Accept a scalar v (v**power I), per-axis (3,) values (their powers
    on the diagonal), or a full 3x3 matrix (symmetrized, taken as is);
    the result must be positive definite. Widths take power 2,
    curvatures power 1."""
    v = _finite(np.asarray(value, dtype=np.float64), name)
    if v.ndim == 0:
        m = np.eye(3) * float(v) ** power
    elif v.shape == (3,):
        m = np.diag(v**power)
    elif v.shape == (3, 3):
        m = 0.5 * (v + v.T)
    else:
        raise ValueError(f"{name} must be a scalar, (3,) or (3, 3)")
    if np.min(np.linalg.eigvalsh(m)) <= 0:
        raise ValueError(f"{name} matrix must be positive definite")
    return m


@dataclass(frozen=True)
class FieldSpec:
    """One scalar field: kind, source location, and shape parameters.

    gaussian:          amplitude * exp(-1/2 d^T W^-1 d), W the width matrix
    quadratic:         amplitude - d^T Q d, positive for ||d|| <= domain_radius;
                       curvature Q is a scalar c (Q = c I), per-axis, or 3x3
    sum_of_gaussians:  sum of gaussian components; unique max at `source`
                       is checked numerically on a coarse grid

    Every kind takes `source`; `KINDS` lists the other inputs of each kind,
    and those of other kinds are rejected (they read None). `COMPONENT`
    lists the keys of one `components` entry, and rejects any other.
    """

    COMPONENT = {"source": None, "amplitude": None, "width": 1.0}
    KINDS = {
        "gaussian": {"amplitude": 1.0, "width": 1.0},
        "quadratic": {"amplitude": 1.0, "curvature": None, "domain_radius": None},
        "sum_of_gaussians": {"components": None},
    }
    kind: str
    source: np.ndarray
    amplitude: float = None  # type: ignore[assignment]
    width: np.ndarray = None  # type: ignore[assignment]
    curvature: np.ndarray = None  # type: ignore[assignment]
    domain_radius: float = None  # type: ignore[assignment]
    components: tuple = None  # type: ignore[assignment]
    # (sources (K, 3), amplitudes (K,), matrices (K, 3, 3)): every kind is
    # a sum over K terms of d_k = p - source_k and d_k^T M_k d_k
    _terms: tuple = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        _apply_kinds(self, "field")
        src = _finite(_arr3(self.source), "source")
        object.__setattr__(self, "source", src)
        if self.amplitude is not None and not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

        if self.kind == "quadratic":
            q = _spd_matrix(self.curvature, "curvature", 1)
            if not self.domain_radius > 0:
                raise ValueError("quadratic kind needs a positive domain_radius")
            lam_max = float(np.max(np.linalg.eigvalsh(q)))
            if not self.amplitude - lam_max * self.domain_radius**2 > 0:
                raise ValueError(
                    "amplitude too small: field not positive on the declared domain"
                )
            object.__setattr__(self, "curvature", q)
            terms = [(src, float(self.amplitude), q)]
        else:
            components = self.components
            if self.kind == "gaussian":
                if not self.amplitude > 0:
                    raise ValueError("amplitude must be positive")
                components = ({"source": src, "amplitude": self.amplitude, "width": self.width},)
            elif not components:
                raise ValueError("sum_of_gaussians needs at least one component")
            terms = []
            for i, comp in enumerate(components):
                comp = _take(comp, self.COMPONENT, f"field component {i}")
                c_src = _finite(_arr3(comp["source"]), "component source")
                c_amp = float(comp["amplitude"])
                if not 0 < c_amp < np.inf:
                    raise ValueError("component amplitudes must be positive and finite")
                c_w = _spd_matrix(comp["width"], "width", 2)
                terms.append((c_src, c_amp, np.linalg.inv(c_w)))
            if self.kind == "gaussian":  # its one component's normalised width
                object.__setattr__(self, "width", c_w)
        object.__setattr__(self, "_terms", tuple(np.ascontiguousarray(t) for t in zip(*terms)))
        if self.kind == "sum_of_gaussians":
            _check_unique_max(self)

    def _quad(self, points):
        """(M_k d_k, d_k^T M_k d_k) for every point and term."""
        sources, _, mats = self._terms
        d = points[..., None, :] - sources
        md = (mats @ d[..., None])[..., 0]
        return md, (d * md).sum(axis=-1)

    def values(self, points) -> np.ndarray:
        """Field values at points (..., 3); shape (...)."""
        _, q = self._quad(points)
        amps = self._terms[1]
        if self.kind == "quadratic":
            return amps[0] - q[..., 0]
        return (amps * np.exp(-0.5 * q)).sum(axis=-1)

    def gradients(self, points) -> np.ndarray:
        """Analytic field gradients at points (..., 3); shape (..., 3)."""
        md, q = self._quad(points)
        amps = self._terms[1]
        if self.kind == "quadratic":
            return -2.0 * md[..., 0, :]
        return -((amps * np.exp(-0.5 * q))[..., None] * md).sum(axis=-2)


def _check_unique_max(spec: FieldSpec):
    """Coarse-grid check that `source` is the single dominant peak.

    Two conditions at grid granularity: no grid point farther than one
    grid cell from the source may beat its value, and from every such
    point the gradient must point toward the source. Catches secondary
    peaks and misplaced source declarations; sub-cell peak offsets (the
    exact optimum of a gaussian mixture rarely sits on a component
    center) are accepted.
    """
    sources = spec._terms[0]
    peak = spec.values(spec.source)
    lo = sources.min(axis=0)
    hi = sources.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    lo, hi = lo - 0.5 * span, hi + 0.5 * span
    axes = [np.linspace(lo[a], hi[a], 7) for a in range(3)]
    cell = float(np.max((hi - lo) / 6.0))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    d = spec.source - grid
    keep = np.linalg.norm(d, axis=1) > cell
    grid, d = grid[keep], d[keep]
    beats = np.flatnonzero(spec.values(grid) >= peak)
    if beats.size:
        raise ValueError(
            "field value at a grid point beats the declared source "
            f"(at {grid[beats[0]].tolist()})"
        )
    g = spec.gradients(grid)
    uphill = (np.sum(g * d, axis=1) <= 0.0) & (np.linalg.norm(g, axis=1) > 1e-12 * peak)
    if uphill.any():
        raise ValueError(
            "field is not single-peaked toward the declared source "
            f"(ascent check failed at {grid[np.argmax(uphill)].tolist()})"
        )


def field_eval(spec: FieldSpec, p) -> float:
    """Field value at one point p (3,)."""
    return float(spec.values(_arr3(p)))


def field_gradient(spec: FieldSpec, p) -> np.ndarray:
    """Analytic field gradient at one point p (3,); shape (3,)."""
    return spec.gradients(_arr3(p))
