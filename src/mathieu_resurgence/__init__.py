"""Band spectrum of the periodic cosine Schrodinger problem, its resurgent
series structure, and the numerical oracles that cross-validate every
asymptotic formula in the package.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
