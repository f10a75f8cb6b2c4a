"""Linear subspaces, Haar sampling, projection functions, and restrictions.

A subspace is stored as a column-orthonormal frame identifying it with R^k;
rotation invariance of everything downstream makes the frame choice
immaterial.  Haar subspaces and rotations come from sign-fixed QR of
Gaussian matrices (Mezzadri, Notices AMS 54, 2007): all the planes of one
Grassmannian average are drawn as one stack of normals, factored by one
stacked complete QR and checked for orthonormality in one batched pass, and
each plane is then a view into that stack.  Cubature planes, the lines
through or the hyperplanes normal to the directions of a sphere rule, are
framed by the same stacked QR, the planes of several levels at once.
Projection functions (minimum over the orthogonal fiber) are realized as
catalog variants wherever a closed form exists; any other source raises
UnsupportedVariant, as an unrealized restriction does.  A plane stack's
projections or restrictions are realized in one step,
:func:`realize_stack`.  A quadratic's are realized stack-wide: one Schur
complement A/A_GG (one stacked solve) or one stacked F'AF gives a
:class:`QuadraticStack` for every plane at once, checked once, and a single
plane's is the same code on a stack of one.  A plane-free source, one whose
realization reads nothing of the plane but its dimension (radial variants,
indicators and support functions of balls about the origin, and the
wrappers built only of them, see :func:`plane_free`), is realized once, as
the one function every plane of the stack shares.  Any other source is
realized plane by plane.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convex import (Ball, Cone, ConvexFunction, EpiScaled, EpiTranslated, Indicator,
                     InfConv, MaxAffine, PlusAffine, PointwiseScaled,
                     PointwiseSum, Quadratic, QuadraticStack, RadialHinge,
                     RadialPower, Rotated, SupportFn, project_body)
from .errors import UnsupportedVariant
from .numerics import Rng, sphere_rule, sphere_rule_size, standard_normals

__all__ = [
    "Subspace",
    "ProjectedFunction",
    "sample_grassmann",
    "whole_space",
    "cubature_covers",
    "cubature_levels",
    "grassmann_cubature",
    "sample_rotation",
    "project_function",
    "project_quadratics",
    "restrict_function",
    "restrict_quadratics",
    "plane_free",
    "realize_stack",
    "check_conjugate_projection",
]

_ORTHO_TOL = 1e-12


def _check_orthonormal(frames: np.ndarray, complements: np.ndarray) -> None:
    """Raise ValueError unless every (n, k) frame of the stack has orthonormal
    columns and is orthogonal to its (n, n - k) complement."""
    frames_t = np.swapaxes(frames, -1, -2)
    gram = frames_t @ frames
    if not np.abs(gram - np.eye(frames.shape[-1])).max() <= _ORTHO_TOL:
        raise ValueError("frame columns are not orthonormal")
    if complements.shape[-1] and not np.abs(frames_t @ complements).max() <= _ORTHO_TOL:
        raise ValueError("complement is not orthogonal to the frame")


class Subspace:
    """A k-dimensional linear subspace of R^n spanned by an orthonormal frame."""

    def __init__(self, frame: np.ndarray, complement: np.ndarray | None = None):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be an (n, k) matrix")
        n, k = frame.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if complement is None:
            complement = np.linalg.qr(frame, mode="complete")[0][:, k:]
        complement = np.asarray(complement, dtype=float)
        if complement.shape != (n, n - k):
            raise ValueError("complement frame has the wrong shape")
        _check_orthonormal(frame[None], complement[None])
        self._set(frame, complement)

    @classmethod
    def _checked(cls, frame: np.ndarray, complement: np.ndarray) -> "Subspace":
        """A subspace on a frame and complement that a batched check has passed."""
        e = cls.__new__(cls)
        e._set(frame, complement)
        return e

    def _set(self, frame: np.ndarray, complement: np.ndarray) -> None:
        self.frame = frame
        self.complement = complement
        self.n, self.k = frame.shape

    def __repr__(self):
        return f"Subspace(k={self.k}, n={self.n})"


def _stacked_frames(m: np.ndarray) -> np.ndarray:
    """Checked (S, n, n) stack of complete orthogonal frames for an (S, n, k)
    stack of full-rank matrices.

    Frame i is the complete QR factor of ``m[i]``, with each of its first k
    columns multiplied by the sign of its diagonal entry of R, so those
    columns span the column space of ``m[i]``; one stacked QR factors them all.
    """
    k = m.shape[-1]
    q, r = np.linalg.qr(m, mode="complete")
    q[:, :, :k] *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    _check_orthonormal(q[:, :, :k], q[:, :, k:])
    return q


def _haar_frames(n: int, k: int, streams) -> np.ndarray:
    """Checked (len(streams), n, n) stack of complete orthogonal frames whose
    first k columns are Haar on the Grassmannian: frame i factors
    ``streams[i]``'s (n, k) standard normals."""
    return _stacked_frames(standard_normals(streams, (n, k)))


class _Planes(Sequence):
    """The subspaces spanned by the first k columns of a checked frame stack;
    each is built, as a view into the stack, when it is indexed, and
    ``frames`` and ``complements`` view the whole (S, n, k) and (S, n, n - k)
    stacks of their frames and complements."""

    def __init__(self, q: np.ndarray, k: int):
        self._q = q
        self._k = k
        self.frames = q[:, :, :k]
        self.complements = q[:, :, k:]

    def __len__(self):
        return len(self._q)

    def __getitem__(self, i: int) -> Subspace:
        q = self._q[i]
        return Subspace._checked(q[:, :self._k], q[:, self._k:])


def whole_space(n: int) -> _Planes:
    """R^n as a stack of one plane, on the identity frame."""
    return _Planes(np.eye(n)[None], n)


def sample_grassmann(n: int, k: int, streams: Sequence[Rng]) -> _Planes:
    """One Haar-distributed k-plane in R^n per stream.

    Plane i has frame and complement from the sign-fixed complete QR of
    ``streams[i].generator().standard_normal((n, k))``, bit for bit.  The
    draws, the QR and the orthonormality check run once over the whole stack;
    the returned sequence builds each plane as a view into it when indexed.
    """
    return _Planes(_haar_frames(n, k, streams), k)


def cubature_covers(n: int, k: int) -> bool:
    """Whether :func:`grassmann_cubature` has rules on k-planes in R^n: lines
    and hyperplanes, for 2 <= n <= 4.  The whole space needs no rule: it is
    the one plane of :func:`whole_space`."""
    return 2 <= n <= 4 and k in (1, n - 1)


def _cubature_size(n: int, level: int) -> int:
    """Planes of the level-``level`` cubature rule in R^n: one per antipodal
    pair of sphere-rule directions."""
    return sphere_rule_size(n, level) // 2


def cubature_levels(n: int, samples: int) -> list[int]:
    """The levels L = 1, 2, 4, ... of :func:`grassmann_cubature` in R^n within a
    budget of ``samples`` planes: levels 1 and 2 always, and each further
    level while the cumulative plane count stays at most ``samples``."""
    levels, count = [1, 2], _cubature_size(n, 1) + _cubature_size(n, 2)
    while count + _cubature_size(n, 2 * levels[-1]) <= samples:
        levels.append(2 * levels[-1])
        count += _cubature_size(n, levels[-1])
    return levels


def grassmann_cubature(n: int, k: int,
                       levels: Sequence[int]) -> list[tuple[_Planes, np.ndarray]]:
    """Planes and weights of the cubature rules on k-planes in R^n at each of
    ``levels``, all framed by one stacked QR.

    The nodes of level L come from the directions d of ``sphere_rule(n, L)``:
    the lines through them for k = 1 (G(2, 1) included), else the
    hyperplanes normal to them for k = n - 1.  Antipodal directions give the
    same plane, so only the rule's first half is taken, one direction per
    pair, with its weights normalized to sum to 1.  A function of the plane
    that is a polynomial of degree below 4 * L in d is averaged exactly.
    (n, k) not covered (see :func:`cubature_covers`), the whole space, G(4, 2)
    and every n >= 5 among them, raise :class:`UnsupportedVariant`.
    """
    if not cubature_covers(n, k):
        raise UnsupportedVariant(
            f"Grassmannian cubature covers lines and hyperplanes in n <= 4, "
            f"got k={k}, n={n}")
    if not levels:
        return []
    rules = [sphere_rule(n, level) for level in levels]
    halves = [len(wts) // 2 for _, wts in rules]  # the second half negates the first
    q = _stacked_frames(np.concatenate([dirs[:half] for (dirs, _), half
                                        in zip(rules, halves)])[:, :, None])
    if k != 1:  # the normal's complement, then the normal
        q = np.roll(q, -1, axis=2)
    bounds = np.cumsum([0] + halves).tolist()
    return [(_Planes(q[start:stop], k), wts[:half] / wts[:half].sum())
            for (_, wts), half, start, stop in zip(rules, halves, bounds, bounds[1:])]


def sample_rotation(n: int, rng: Rng) -> np.ndarray:
    """Haar rotation: sign-fixed QR with the determinant corrected to +1."""
    q = _haar_frames(n, n, [rng])[0]
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


# ---------------------------------------------------------------------------
# Projection functions


@dataclass(frozen=True)
class ProjectedFunction:
    """min over the fiber x_E + E-perp of the source, realized in E-coordinates."""
    source: ConvexFunction
    subspace: Subspace
    realized: ConvexFunction


def project_function(u: ConvexFunction, e: Subspace) -> ProjectedFunction:
    """Projection function of a super-coercive u onto a subspace.

    Closed forms per variant (Schur complement for quadratics, dimension drop
    for radial variants, body shadow for indicators, and the wrappers built on
    them); any other source raises UnsupportedVariant.
    """
    if not u.is_supercoercive:
        raise UnsupportedVariant("projection functions need a super-coercive source")
    realized = _project(u, e)
    return ProjectedFunction(u, e, realized)


def project_quadratics(u: Quadratic, frames: np.ndarray,
                        complements: np.ndarray) -> QuadraticStack:
    """The projections of u onto the planes of (S, n, k) frames with their
    (S, n, n - k) complements, in frame coordinates: the Schur complements
    A/A_GG, with b and c alike, from stacked products and one stacked solve."""
    if not complements.shape[-1]:  # the whole space: no fiber to minimize over
        return restrict_quadratics(u, frames)
    f_t, g_t = np.swapaxes(frames, 1, 2), np.swapaxes(complements, 1, 2)
    a_ff = f_t @ u.a @ frames
    a_fg = f_t @ u.a @ complements
    a_gg = g_t @ u.a @ complements
    b_f = f_t @ u.b
    b_g = g_t @ u.b
    sol = np.linalg.solve(a_gg, np.concatenate([np.swapaxes(a_fg, 1, 2), b_g[:, :, None]],
                                               axis=2))
    x_part, w_part = sol[:, :, :-1], sol[:, :, -1:]
    a_bar = a_ff - a_fg @ x_part
    a_bar = 0.5 * (a_bar + np.swapaxes(a_bar, 1, 2))
    b_bar = b_f - (a_fg @ w_part)[:, :, 0]
    c_bar = u.c - 0.5 * (b_g[:, None, :] @ w_part)[:, 0, 0]
    return QuadraticStack(a_bar, b_bar, c_bar)


def _project(u: ConvexFunction, e: Subspace) -> ConvexFunction:
    f, g = e.frame, e.complement
    k = e.k
    if isinstance(u, Quadratic):
        return project_quadratics(u, f[None], g[None])[0]
    if isinstance(u, RadialPower):
        return RadialPower(k, u.p, u.scale)
    if isinstance(u, Cone):
        return Cone(k, u.t, u.r)
    if isinstance(u, Indicator):
        return Indicator(project_body(u.body, f))
    if isinstance(u, EpiTranslated):
        return EpiTranslated(_project(u.inner, e), f.T @ u.x0, u.alpha)
    if isinstance(u, Rotated):
        rotated_e = Subspace(u.q.T @ f, u.q.T @ g if g.size else g)
        return _project(u.inner, rotated_e)
    if isinstance(u, EpiScaled):
        return EpiScaled(_project(u.inner, e), u.lam)
    if isinstance(u, PointwiseScaled):
        return PointwiseScaled(_project(u.inner, e), u.c)
    if isinstance(u, InfConv):
        return InfConv(_project(u.left, e), _project(u.right, e))
    raise UnsupportedVariant(f"projection of {type(u).__name__} is not realized")


def restrict_function(v: ConvexFunction, e: Subspace) -> ConvexFunction:
    """Restriction of a finite-valued v to the subspace, in E-coordinates."""
    if not v.is_finite:
        raise UnsupportedVariant("restriction is defined for finite-valued functions")
    return _restrict(v, e)


def restrict_quadratics(v: Quadratic, frames: np.ndarray) -> QuadraticStack:
    """The restrictions x'(F'AF)x/2 + (F'b)'x + c of v to the planes of (S, n,
    k) frames F, in frame coordinates x."""
    f_t = np.swapaxes(frames, 1, 2)
    return QuadraticStack(f_t @ v.a @ frames, f_t @ v.b, np.full(len(frames), v.c))


def _restrict(v: ConvexFunction, e: Subspace) -> ConvexFunction:
    f = e.frame
    k = e.k
    if isinstance(v, Quadratic):
        return restrict_quadratics(v, f[None])[0]
    if isinstance(v, RadialPower):
        return RadialPower(k, v.p, v.scale)
    if isinstance(v, RadialHinge):
        return RadialHinge(k, v.t, v.r)
    if isinstance(v, SupportFn):
        # h of the shadow agrees with h of the body on the subspace
        return SupportFn(project_body(v.body, f))
    if isinstance(v, MaxAffine) and v.domain is None:
        return MaxAffine(v.slopes @ f, v.offsets)
    if isinstance(v, PointwiseScaled):
        return PointwiseScaled(_restrict(v.inner, e), v.c)
    if isinstance(v, PlusAffine):
        return PlusAffine(_restrict(v.inner, e), f.T @ v.slope, v.const)
    if isinstance(v, PointwiseSum):
        return PointwiseSum(_restrict(v.left, e), _restrict(v.right, e))
    if isinstance(v, Rotated):
        return _restrict(v.inner, Subspace(v.q.T @ f))
    raise UnsupportedVariant(f"restriction of {type(v).__name__} is not realized")


def plane_free(u: ConvexFunction) -> bool:
    """Whether every branch of :func:`_project` and :func:`_restrict` that
    realizes u reads nothing of the plane but its dimension k, so u has one
    projection and one restriction for all k-planes: radial powers, cones,
    radial hinges, the indicator or support function of a ball about the
    origin (its shadow's center F'0 is 0), and the wrappers built only of
    them, epigraph translations and affine terms only with a zero offset.  A
    quadratic's Schur complements move with the plane, an isotropic one's
    by rounding."""
    if isinstance(u, (RadialPower, Cone, RadialHinge)):
        return True
    if isinstance(u, (Indicator, SupportFn)):
        return isinstance(u.body, Ball) and not any(u.body.center)
    if isinstance(u, (Rotated, EpiScaled, PointwiseScaled)):
        return plane_free(u.inner)
    if isinstance(u, (InfConv, PointwiseSum)):
        return plane_free(u.left) and plane_free(u.right)
    if isinstance(u, EpiTranslated):
        return not u.x0.any() and plane_free(u.inner)
    if isinstance(u, PlusAffine):
        return not u.slope.any() and plane_free(u.inner)
    return False


def realize_stack(u: ConvexFunction, planes, project: bool):
    """u's projections (``project``) or restrictions onto every plane of a
    stack, a sequence of subspaces whose ``frames`` and ``complements`` view
    their stacked frames: a quadratic's as one :class:`QuadraticStack`, a
    :func:`plane_free` source's as the one function every plane shares,
    realized on the first plane, and any other's as a list, plane by plane.
    A source that cannot be realized raises what the first plane raises."""
    if isinstance(u, Quadratic):
        return (project_quadratics(u, planes.frames, planes.complements) if project
                else restrict_quadratics(u, planes.frames))

    def one(e):
        return project_function(u, e).realized if project else restrict_function(u, e)
    if plane_free(u):
        return one(planes[0])
    return [one(e) for e in planes]


# ---------------------------------------------------------------------------
# Identity checks


def check_conjugate_projection(u: ConvexFunction, e: Subspace, grid) -> float:
    """Max over the grid of |(proj u)^*(x) - (u^*)|_E(x)| using in-E conjugation."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    proj = project_function(u, e).realized
    lhs_fn = proj.conjugate()
    rhs_fn = restrict_function(u.conjugate(), e)
    lhs = np.asarray(lhs_fn(grid))
    rhs = np.asarray(rhs_fn(grid))
    both_inf = ~np.isfinite(lhs) & ~np.isfinite(rhs)
    diff = np.abs(lhs - rhs)
    diff[both_inf] = 0.0
    return float(diff.max())
