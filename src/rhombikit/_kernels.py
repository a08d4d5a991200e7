"""Convex-polyhedron intersection volume.

The swept-volume blocker table is built from one sampled roll: at every
sampled angle the moving cell is tested for positive-volume overlap with
each candidate lattice cell that pruning leaves open. The other 47 rolls
are lattice rotations of that one or of its reverse, so they cost no
volume calls (see ``geometry.blocker_table``).

``intersection_volume`` clips one polytope's faces against the other's
half-spaces (Sutherland-Hodgman plane clipping) in plain Python floats.
Each convex polytope is described twice over: as face polygons of shape
(F, V, 3) with per-face vertex counts and outward CCW winding, and as
half-spaces of shape (F, 4), rows (nx, ny, nz, c) meaning n.x <= c. The
tests cross-check it against an independent point-collection method
with a Qhull convex hull and against a Monte-Carlo estimate. Its final
sum, ``fan_volume``, is also the volume of every mesh
(``geometry.mesh_volume``).
"""

from __future__ import annotations

import math


def intersection_volume(
    polys_a, lens_a, planes_a, polys_b, lens_b, planes_b, eps=1e-9
):
    """Volume of the intersection by clipping A against B's half-spaces.

    Every face polygon of A is clipped against each plane of B in turn;
    each cut contributes a cap polygon built from the clip-segment
    endpoints ordered around their centroid. The volume of what survives
    comes from the divergence theorem over triangle fans. Inputs are
    numpy arrays, read once with ``tolist``. B's polygons and A's planes
    are not used; they are taken so that the tests' hull oracle, which
    needs them, can stand in for this function.
    """
    faces = [poly[:m] for poly, m in zip(polys_a.tolist(), lens_a.tolist())]
    for nx, ny, nz, c in planes_b.tolist():
        kept = []
        section = []
        for face in faces:
            out = []
            q = face[0]
            dq = nx * q[0] + ny * q[1] + nz * q[2] - c
            for i in range(len(face)):
                p, dp = q, dq
                q = face[(i + 1) % len(face)]
                dq = nx * q[0] + ny * q[1] + nz * q[2] - c
                if dp <= eps:
                    out.append(p)
                if (dp <= eps) != (dq <= eps) and abs(dp - dq) > 1e-300:
                    t = min(max(dp / (dp - dq), 0.0), 1.0)
                    x = [
                        p[0] + t * (q[0] - p[0]),
                        p[1] + t * (q[1] - p[1]),
                        p[2] + t * (q[2] - p[2]),
                    ]
                    out.append(x)
                    section.append(x)
            if len(out) >= 3:
                kept.append(out)
        if not kept:
            return 0.0
        if len(section) >= 3:
            cap = _cap(section, nx, ny, nz)
            if len(cap) >= 3:
                kept.append(cap)
        faces = kept

    vol = fan_volume(faces)
    return vol if vol > 0.0 else 0.0


def fan_volume(faces) -> float:
    """Signed volume enclosed by polygons given as lists of [x, y, z]
    points, CCW from outside: the divergence theorem summed over each
    polygon's triangle fan from its first point."""
    vol = 0.0
    for face in faces:
        x0, y0, z0 = face[0]
        for i in range(1, len(face) - 1):
            x1, y1, z1 = face[i]
            x2, y2, z2 = face[i + 1]
            vol += (
                x0 * (y1 * z2 - z1 * y2)
                - y0 * (x1 * z2 - z1 * x2)
                + z0 * (x1 * y2 - y1 * x2)
            )
    return vol / 6.0


def _cap(section, nx, ny, nz):
    """The section points ordered around their centroid, CCW about +n,
    with repeats of the previous point dropped."""
    k = len(section)
    cx = sum(s[0] for s in section) / k
    cy = sum(s[1] for s in section) / k
    cz = sum(s[2] for s in section) / k
    # in-plane basis (e1, e2) with e1 x e2 along +n, e1 normal to the
    # coordinate axis least aligned with n
    ax, ay, az = abs(nx), abs(ny), abs(nz)
    if ax <= ay and ax <= az:
        hx, hy, hz = 1.0, 0.0, 0.0
    elif ay <= az:
        hx, hy, hz = 0.0, 1.0, 0.0
    else:
        hx, hy, hz = 0.0, 0.0, 1.0
    e1x = hy * nz - hz * ny
    e1y = hz * nx - hx * nz
    e1z = hx * ny - hy * nx
    norm = (e1x * e1x + e1y * e1y + e1z * e1z) ** 0.5
    e1x /= norm
    e1y /= norm
    e1z /= norm
    nn = (nx * nx + ny * ny + nz * nz) ** 0.5
    e2x = (ny * e1z - nz * e1y) / nn
    e2y = (nz * e1x - nx * e1z) / nn
    e2z = (nx * e1y - ny * e1x) / nn

    def angle(s):
        vx, vy, vz = s[0] - cx, s[1] - cy, s[2] - cz
        return math.atan2(vx * e2x + vy * e2y + vz * e2z, vx * e1x + vy * e1y + vz * e1z)

    cap = []
    for s in sorted(section, key=angle):
        if cap:
            last = cap[-1]
            if (s[0] - last[0]) ** 2 + (s[1] - last[1]) ** 2 + (s[2] - last[2]) ** 2 < 1e-20:
                continue
        cap.append(s)
    return cap
