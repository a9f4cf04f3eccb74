"""Steering of semilinear measure-driven integrodifferential systems.

Mild solutions of

    d zeta(t) = [A(t) zeta + int_0^t G(t,s) zeta(s) ds + V u(t)] dt
              + delta(t, zeta(t)) dh(t),        zeta(0) + g(zeta) = zeta0,

in the Dirichlet sine eigenbasis, with minimal-norm controls steering to
zeta(a) + g(zeta) = zeta1, plus the sufficient smallness conditions.
"""

__version__ = "0.1.0"
