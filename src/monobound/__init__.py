"""Exact-arithmetic bounds on the index of unipotent local monodromy.

Computes orders of GL_d over F_ell and Z/4Z, their certified gcd over
primes distinct from the residue characteristic, the derived bound
attached to the Betti/Chern invariants of a polarized variety, exact
Chern-class calculus for concrete families, and the finite-order plus
nilpotent decomposition of quasi-unipotent rational matrices.

Each library name is imported from the submodule that defines it, such
as `from monobound.compat_bounds import c_d`; the package itself binds
only `__version__`, so `import monobound` loads no submodule.
"""

__version__ = "0.1.0"
