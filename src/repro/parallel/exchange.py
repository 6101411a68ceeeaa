"""Interface-track matching between neighbouring subdomains.

Modular ray tracing lays identical track patterns in every (congruent)
subdomain, so a track leaving one subdomain through an interface continues
exactly as a track of the neighbour. This module computes that routing
table once; the engine then moves boundary angular flux along it every
sweep (paper Sec. 3.1 stage 4: "the tail fluxes of tracks are transmitted
through the adjacent domains of MPI").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError
from repro.tracks.chains import _PointMatcher
from repro.tracks.generator import TrackGenerator


@dataclass(frozen=True)
class Route:
    """One interface flux route between (domain, track, direction) slots.

    ``direction`` is 0 for forward, 1 for backward, matching the sweep's
    psi array layout. The 2D lattice and the 3D z-slab drivers share it.
    """

    src_domain: int
    src_track: int
    src_dir: int
    dst_domain: int
    dst_track: int
    dst_dir: int


def match_interface_tracks(trackgens: list[TrackGenerator]) -> tuple[Route, ...]:
    """Build the routing table over all domains' interface track ends.

    Every interface exit must find exactly one entry in a neighbouring
    domain; a missing partner means the decomposition broke modular ray
    tracing and raises :class:`~repro.errors.DecompositionError`.
    """
    if not trackgens:
        raise DecompositionError("no domains to match")
    scale = max(max(tg.geometry.width, tg.geometry.height) for tg in trackgens)
    # Global entry registry: interface entry points of all domains.
    matcher = _PointMatcher(scale * max(len(trackgens), 1))
    for dom, tg in enumerate(trackgens):
        for t in tg.tracks:
            ux, uy = t.direction
            if t.interface_start:
                # Forward traversal enters at the start point.
                matcher.add(t.x0, t.y0, ux, uy, (dom, t.uid, 0))
            if t.interface_end:
                # Backward traversal enters at the end point.
                matcher.add(t.x1, t.y1, -ux, -uy, (dom, t.uid, 1))

    tol = scale * 1e-6
    routes: list[Route] = []
    for dom, tg in enumerate(trackgens):
        for t in tg.tracks:
            ux, uy = t.direction
            if t.interface_end:
                # Forward exit at the end point, continuing along (ux, uy).
                hit = matcher.find(t.x1, t.y1, ux, uy, tol)
                if hit is None:
                    raise DecompositionError(
                        f"domain {dom} track {t.uid}: no interface partner at "
                        f"({t.x1:.8g}, {t.y1:.8g})"
                    )
                dst_dom, dst_track, dst_dir = hit  # type: ignore[misc]
                routes.append(Route(dom, t.uid, 0, dst_dom, dst_track, dst_dir))
            if t.interface_start:
                hit = matcher.find(t.x0, t.y0, -ux, -uy, tol)
                if hit is None:
                    raise DecompositionError(
                        f"domain {dom} track {t.uid}: no interface partner at "
                        f"({t.x0:.8g}, {t.y0:.8g})"
                    )
                dst_dom, dst_track, dst_dir = hit  # type: ignore[misc]
                routes.append(Route(dom, t.uid, 1, dst_dom, dst_track, dst_dir))
    # Sanity: routes must never point a slot at itself.
    for r in routes:
        if (r.src_domain, r.src_track, r.src_dir) == (r.dst_domain, r.dst_track, r.dst_dir):
            raise DecompositionError(f"self-route detected: {r}")
    return tuple(routes)
