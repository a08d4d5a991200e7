"""Convex-polyhedron intersection volume.

The swept-volume blocker table is built from one sampled roll: at every
sampled angle the moving cell is tested for positive-volume overlap with
each candidate lattice cell that pruning leaves open. The other 47 rolls
are lattice rotations of that one or of its reverse, so they cost no
volume calls (see ``geometry.blocker_table``).

``intersection_volume`` collects the intersection's vertices (each
polytope's vertices inside the other, and every edge-facet crossing that
lies inside both) and takes their convex hull with Qhull. Each convex
polytope is described twice over: as face polygons of shape (F, V, 3)
with per-face vertex counts and outward CCW winding, and as half-spaces
of shape (F, 4), rows (nx, ny, nz, c) meaning n.x <= c. The tests
cross-check it against an independent plane-clipping implementation and
a Monte-Carlo estimate.
"""

from __future__ import annotations

import numpy as np


def _loop_edges(polys, lens):
    """Endpoints (P, Q) of every polygon boundary edge, vectorized.

    Edges shared by two faces appear twice; duplicates only add repeated
    candidate points, which the hull does not mind.
    """
    ps = []
    qs = []
    for m in np.unique(lens):
        rows = np.nonzero(lens == m)[0]
        pts = polys[rows, :m]  # (R, m, 3)
        ps.append(pts.reshape(-1, 3))
        qs.append(np.roll(pts, -1, axis=1).reshape(-1, 3))
    return np.vstack(ps), np.vstack(qs)


def _edge_crossings(p, q, planes_cut, planes_a, planes_b, eps):
    """Edge/plane crossing points lying inside both polytopes."""
    d = q - p
    nrm = planes_cut[:, :3]
    dn = d @ nrm.T  # (E, K)
    pn = p @ nrm.T - planes_cut[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -pn / dn
    ok = (np.abs(dn) > 1e-300) & (t >= -1e-12) & (t <= 1.0 + 1e-12)
    ei, ki = np.nonzero(ok)
    if len(ei) == 0:
        return np.empty((0, 3))
    x = p[ei] + np.clip(t[ei, ki], 0.0, 1.0)[:, None] * d[ei]
    inside = np.all(x @ planes_a[:, :3].T - planes_a[:, 3] <= eps, axis=1) & np.all(
        x @ planes_b[:, :3].T - planes_b[:, 3] <= eps, axis=1
    )
    return x[inside]


def intersection_volume(
    polys_a, lens_a, planes_a, polys_b, lens_b, planes_b, eps=1e-9
):
    """Intersection volume via point collection + convex hull.

    The intersection of two convex polytopes is the convex hull of: A's
    vertices inside B, B's vertices inside A, and every edge-facet
    crossing point that lies inside both. Degenerate (flat or empty)
    collections have zero volume. numpy/scipy only.
    """
    from scipy.spatial import ConvexHull, QhullError

    pa, qa = _loop_edges(polys_a, lens_a)
    pb, qb = _loop_edges(polys_b, lens_b)

    chunks = [
        pa[np.all(pa @ planes_b[:, :3].T - planes_b[:, 3] <= eps, axis=1)],
        pb[np.all(pb @ planes_a[:, :3].T - planes_a[:, 3] <= eps, axis=1)],
        _edge_crossings(pa, qa, planes_b, planes_a, planes_b, eps),
        _edge_crossings(pb, qb, planes_a, planes_a, planes_b, eps),
    ]
    arr = np.vstack(chunks)
    if len(arr) < 4:
        return 0.0
    if np.ptp(arr, axis=0).min() < 1e-12:
        return 0.0  # axis-aligned flat set, zero volume
    try:
        return float(ConvexHull(arr, qhull_options="Pp").volume)
    except QhullError:
        return 0.0  # coplanar or otherwise degenerate: grazing contact
