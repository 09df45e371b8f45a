"""Quasi-spherical asymptotically flat extensions of convex surfaces of
revolution: mass functionals along the parallel foliation, the critical
mean-curvature scaling constant, and no-fill-in certificates.

Names are imported from their modules, for example
``from quasispherical import geometry, mass`` or
``from quasispherical.bartnik import solve_mu0``."""

__version__ = "0.1.0"
