"""Finite Weyl groups as integer points on a pair of quadrics.

Integer Cartan data for the families A-G and their products (the adjugate
and determinant of A, and 2 delta); the primary and secondary integer
quadrics; enumeration of the Diophantine orbits of the coordinate involutions
T_i; the Weyl group as words, with matrices built when read, and its transfer
onto the main orbit; componentwise and Bruhat orders; and reduced word
enumeration via descent sets.

Each public name is imported from its home submodule on first access
(PEP 562), so ``import weylipse`` loads no layer that its caller does not use.
"""

from importlib import import_module

# home submodule -> the public names it exports through the package
_EXPORTS = {
    "cartan": (
        "CartanData",
        "LieTypeSpec",
        "Root",
        "bilinear",
        "build_cartan",
        "grade",
        "parabolic_order",
        "parse_type",
        "positive_roots",
        "weyl_order",
    ),
    "errors": (
        "DEFAULT_EXPAND_CAP",
        "DEFAULT_TABLE_CAP",
        "BadIndexSetError",
        "CapExceededError",
        "ComputationError",
        "DimensionMismatchError",
        "IndexOutOfRangeError",
        "InvariantError",
        "MalformedFormError",
        "NotAMultipleError",
        "NotARootError",
        "NotASolutionError",
        "NotInMainOrbitError",
        "NotOnEllipsoidError",
        "RankOutOfRangeError",
        "UnknownFamilyError",
        "UsageError",
        "WeylipseError",
    ),
    "orbits": (
        "OrbitRecord",
        "enumerate_secondary_nonneg",
        "expand_orbit",
        "orbit_seeds",
        "orbit_size",
    ),
    "ordering": (
        "Poset",
        "ReducedWordSet",
        "bruhat_from_primary",
        "bruhat_from_subwords",
        "emit_dot",
        "first_letters",
        "primary_poset",
        "reduced_words",
    ),
    "quadrics": ("QuadForm", "apply_T", "h_vector", "primary_form", "secondary_form"),
    "weyl": (
        "GroupTable",
        "WeylElement",
        "P_map",
        "S_map",
        "build_group_table",
        "element_from_pvector",
        "p_alpha_b",
        "star",
        "word_to_element",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
