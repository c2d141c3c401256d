"""Exact-arithmetic bounds on the index of unipotent local monodromy.

Computes orders of GL_d over F_ell and Z/4Z, their certified gcd over
primes distinct from the residue characteristic, the derived bound
attached to the Betti/Chern invariants of a polarized variety, exact
Chern-class calculus for concrete families, and the finite-order plus
nilpotent decomposition of quasi-unipotent rational matrices.

Every public name below is importable from the package itself
(`from monobound import c_d`), but its submodule is loaded only on
first access (PEP 562), so that `import monobound` and each CLI
subcommand pay only for the modules they use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "numtheory": (
        "FactoredInt",
        "factorize",
        "is_prime",
        "phi_inverse_set",
        "valuation",
    ),
    "group_orders": ("c_ell_d", "order_gl_fq", "order_gl_z4"),
    "compat_bounds": (
        "RefinedBound",
        "ScanCertificate",
        "c_d",
        "p_part_c_d",
        "refined_bound",
    ),
    "variety_bounds": (
        "BoundReport",
        "DVector",
        "VarietyInvariants",
        "bound",
        "d_vector",
        "descend",
    ),
    "chern_invariants": (
        "FamilySpec",
        "betti_vector",
        "chern_total_dual_cotangent",
        "complete_intersection",
        "euler_characteristic",
        "hypersurface",
        "invariants_of",
        "projective_space",
        "section_of",
    ),
    "wd_matrix": (
        "RationalMatrix",
        "WDPair",
        "is_quasi_unipotent",
        "is_unipotent",
        "jordan_chevalley",
        "nilpotent_exp",
        "nilpotent_log",
        "semisimple_order",
        "trace_criterion",
        "wd_pair",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
