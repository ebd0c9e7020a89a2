"""Exact-arithmetic tools for moduli of polarized hyperkaehler manifolds.

The package decides, for the two deformation families with b2 = 23 (Hilbert
schemes of points on a K3 surface) and b2 = 7 (generalized Kummer varieties),
whether the moduli space of polarized pairs with a given dimension parameter
n, Beauville-Bogomolov-Fujiki degree 2d and divisibility t is non-empty, how
many connected components it has, and on which components the polarization is
base point free or very ample.  Everything is integer / rational arithmetic;
there are no floats anywhere.

Modules:
    arith    elementary number theory (factorization, phi, quadratic residues)
    lattice  BBF squares, divisibility, Gram-matrix cross-checks
    bundles  k-very-ampleness bounds for line bundles on K3/abelian surfaces
    moduli   non-emptiness, component counts, witnesses, ampleness thresholds
    oracle   brute-force lattice search used to cross-verify the formulas
    cli      command line front end

Every name in `__all__` can be read from the package itself.  The
submodule that defines it is imported on first access (PEP 562), so
`import hkmoduli` loads no submodule and `python -m hkmoduli` loads only
what the command line front end needs.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "NotInvertible": "arith",
    "euler_phi": "arith",
    "factorize": "arith",
    "is_quadratic_residue": "arith",
    "mod_inverse": "arith",
    "qr_of_ratio": "arith",
    "rho": "arith",
    "DimensionMismatch": "lattice",
    "Family": "lattice",
    "GramLattice": "lattice",
    "LatticeClass": "lattice",
    "bbf_square": "lattice",
    "divisibility": "lattice",
    "full_model": "lattice",
    "is_primitive": "lattice",
    "rank3_model": "lattice",
    "BundleSpec": "bundles",
    "BundleStatus": "bundles",
    "SurfaceKind": "bundles",
    "induced_bundle_status": "bundles",
    "max_k_very_ample": "bundles",
    "ComponentCountDetail": "moduli",
    "Decomposition": "moduli",
    "DivisibilityViolation": "moduli",
    "InternalInconsistency": "moduli",
    "ModuliQuery": "moduli",
    "ModuliReport": "moduli",
    "ThresholdDecision": "moduli",
    "Witness": "moduli",
    "component_count": "moduli",
    "component_count_detail": "moduli",
    "decompose": "moduli",
    "is_nonempty": "moduli",
    "nonempty_residue": "moduli",
    "prime_power_connected": "moduli",
    "report": "moduli",
    "reports": "moduli",
    "thresholds": "moduli",
    "witness": "moduli",
    "SearchBounds": "oracle",
    "bundle_status": "oracle",
    "class_count": "oracle",
    "cross_check": "oracle",
    "default_bounds": "oracle",
    "enumerate_witnesses": "oracle",
    "verify_witness": "oracle",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys())
