"""Attenuated Radon transform on convex planar domains.

Boundary data synthesis, the range characterization through A-analytic
Hilbert transforms, and source reconstruction by the explicit Cauchy
integral formula.  Import from the submodules (`aradon.geometry`,
`aradon.xray`, `aradon.bukhgeim`, ...); the package itself imports
nothing, so the command-line entry point can configure threading before
numpy loads.
"""

__version__ = "0.1.0"
