"""Product (azimuthal x polar) quadrature and sweep weights."""

from __future__ import annotations

import numpy as np

from repro.constants import FOUR_PI
from repro.quadrature.azimuthal import AzimuthalQuadrature
from repro.quadrature.polar import PolarQuadrature


class ProductQuadrature:
    """Combined angular quadrature for the transport sweep.

    The sweep tallies scalar flux as

        phi_r = 4 pi q_r + (1 / (Sigma_t V_r)) * sum_k  w_k  dpsi_k

    where the *total* per-segment weight for a track of azimuthal index
    ``a`` and polar index ``p`` is

        w_k = 4 pi * w_azim(a) * w_polar(p) * spacing(a) * sin(theta_p)

    (the last two factors convert a line integral into the volume/angle
    integral: the track represents a strip ``spacing`` wide, and a 2D
    segment of length ``l`` corresponds to a 3D path ``l / sin(theta)``
    through a volume ``l * spacing``). :meth:`track_weight` returns
    ``w_k`` for 2D sweeps; :meth:`track_weight_3d` for z-stacked 3D tracks
    where the axial spacing replaces the polar-projection bookkeeping.
    """

    def __init__(self, azimuthal: AzimuthalQuadrature, polar: PolarQuadrature) -> None:
        self.azimuthal = azimuthal
        self.polar = polar

    @property
    def num_azim_half(self) -> int:
        return self.azimuthal.num_angles

    @property
    def num_polar_half(self) -> int:
        return self.polar.num_polar_half

    def track_weight(self, a: int, p: int) -> float:
        """Total sweep weight of a 2D track with angles ``(a, p)``.

        Includes the 4-pi normalisation, both angular weights, the
        effective azimuthal spacing, and ``sin(theta_p)``. The factor 1/2
        accounts for the two sweep directions of each stored track, which
        together cover the full sphere while the stored weights cover only
        the forward half.
        """
        return float(
            0.5
            * FOUR_PI
            * self.azimuthal.weights[a]
            * self.polar.weights[p]
            * self.azimuthal.spacing[a]
            * self.polar.sin_theta[p]
        )

    def track_weight_3d(self, a: int, p: int, z_spacing: float) -> float:
        """Total sweep weight of a 3D (z-stacked) track traversal.

        A 3D track of angles ``(a, p)`` represents a flux tube of cross
        section ``spacing(a) * z_spacing`` (the two spacings are normal to
        the track and to each other); segment lengths are true 3D lengths.
        The factor 1/4 distributes the ``(a, p)`` solid-angle measure over
        its four physical directions (up/down polar family, each swept
        forward and backward), of which each traversal covers one.
        """
        return float(self.track_weights_3d(a, p, z_spacing))

    def track_weights_3d(self, a, p, z_spacing) -> np.ndarray:
        """:meth:`track_weight_3d` over arrays of tracks, bitwise the same."""
        return (
            0.25
            * FOUR_PI
            * self.azimuthal.weights[a]
            * self.polar.weights[p]
            * self.azimuthal.spacing[a]
            * z_spacing
        )

    def weights_table(self) -> np.ndarray:
        """2D sweep weights for every ``(a, p)``, shape ``(A, P)``."""
        table = np.empty((self.num_azim_half, self.num_polar_half))
        for a in range(self.num_azim_half):
            for p in range(self.num_polar_half):
                table[a, p] = self.track_weight(a, p)
        return table

    def __repr__(self) -> str:
        return f"ProductQuadrature({self.azimuthal!r}, {self.polar!r})"
