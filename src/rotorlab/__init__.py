"""Verification laboratory for a relativistic worldline coupled to a null vector.

Layers, bottom up: exact forward-mode jets (``jets``), Minkowski algebra
(``minkowski``), spinors and null tetrads (``spinor``), gauge-invariant
scalars and the invariant-counting argument (``invariants``), the Lagrangian
family F(P, Q) (``fform``), Noether charges and Casimir invariants
(``noether``), velocity-Hessian degeneracy analysis (``degeneracy``), and
exact free motion plus numerical integration (``dynamics``).  ``cli`` exposes
the whole stack as a command-line tool; ``reports`` holds the report plumbing.
"""

__version__ = "0.1.0"
