"""Convex-polyhedron intersection volume.

The swept-volume blocker table is built from one sampled roll: at every
sampled angle the moving cell is tested for positive-volume overlap with
each candidate lattice cell that pruning leaves open; the sweep and this
kernel run in plain Python floats and need no numpy. The other 47 rolls
are lattice rotations of that one or of its reverse, so they cost no
volume calls (see ``geometry.blocker_table``).

``intersection_volume`` clips one polytope's faces against the other's
half-spaces (Sutherland-Hodgman plane clipping) in plain Python floats.
Each face is held as a list of directed edges, point pairs, so a cut
closes its face with one new edge and hands the reverse of that edge to
the plane's cap; the cap's edges close into a loop in whatever order
they arrive, and nothing is ever sorted. Each convex polytope is
described twice over, as nested sequences of numbers: face polygons, F
lists of points (x, y, z), each as long as its face, in outward CCW
winding, and half-spaces, F rows (nx, ny, nz, c) meaning n.x <= c. The
tests cross-check it against an independent point-collection method
with a Qhull convex hull and against a Monte-Carlo estimate. Its final sum, ``fan_volume``, is
also the volume of every mesh (``geometry.mesh_volume``).
"""

from __future__ import annotations

_EPS = 1e-9  # how far outside a plane a point may lie and still count as in


def intersection_volume(polys_a, planes_a, polys_b, planes_b):
    """Volume of the intersection by clipping A against B's half-spaces.

    Each plane of B keeps the inner part of every edge of A. A face the
    plane cuts is closed by the edge from where its boundary leaves the
    half-space to where it comes back, and the reverse of that edge joins
    the plane's cap, so the cap's edges form a closed loop with no
    ordering. The closing edge is added only when both its points exist,
    so malformed input cannot raise. The volume of what survives is
    ``fan_volume`` of the faces. Inputs are nested sequences of numbers
    (the blocker sweep's lists, or numpy arrays), each number read once
    as a float, so both give bitwise-equal volumes. B's polygons and A's
    planes are not used; they are taken so that the tests' hull oracle,
    which needs them, can stand in for this function.
    """
    faces = []
    for poly in polys_a:
        loop = [(float(x), float(y), float(z)) for x, y, z in poly]
        faces.append(list(zip(loop, loop[1:] + loop[:1])))
    for plane in planes_b:
        nx, ny, nz, c = map(float, plane)
        kept = []
        cap = []
        for face in faces:
            out = []
            leave = enter = None
            for p, q in face:
                dp = nx * p[0] + ny * p[1] + nz * p[2] - c
                dq = nx * q[0] + ny * q[1] + nz * q[2] - c
                if (dp <= _EPS) != (dq <= _EPS):
                    # the edge keeps its inner part: x replaces its outer point
                    t = min(max(dp / (dp - dq), 0.0), 1.0)
                    x = [
                        p[0] + t * (q[0] - p[0]),
                        p[1] + t * (q[1] - p[1]),
                        p[2] + t * (q[2] - p[2]),
                    ]
                    if dp <= _EPS:
                        leave = q = x
                    else:
                        enter = p = x
                if dp <= _EPS or dq <= _EPS:
                    out.append((p, q))
            if leave is not None and enter is not None:
                out.append((leave, enter))
                cap.append((enter, leave))
            if out:
                kept.append(out)
        if not kept:
            return 0.0
        if cap:
            kept.append(cap)
        faces = kept

    vol = fan_volume(faces)
    return vol if vol > 0.0 else 0.0


def fan_volume(faces) -> float:
    """Signed volume enclosed by faces given as lists of directed edges
    ((x, y, z), (x, y, z)), CCW from outside: the divergence theorem,
    det[first point, a, b] summed over each face's edges (a, b), over 6."""
    vol = 0.0
    for face in faces:
        x0, y0, z0 = face[0][0]
        for (x1, y1, z1), (x2, y2, z2) in face:
            vol += (
                x0 * (y1 * z2 - z1 * y2)
                - y0 * (x1 * z2 - z1 * x2)
                + z0 * (x1 * y2 - y1 * x2)
            )
    return vol / 6.0
