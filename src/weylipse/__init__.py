"""Finite Weyl groups as integer points on a pair of quadrics.

Exact (integer/fraction) Cartan data for the families A-G and their products;
the primary and secondary integer quadrics; enumeration of the Diophantine
orbits of the coordinate involutions T_i; the Weyl group as words, with
matrices built when read, and its transfer onto the main orbit; componentwise and Bruhat orders; and reduced
word enumeration via descent sets.
"""

from .cartan import (
    CartanData,
    LieTypeSpec,
    Root,
    bilinear,
    build_cartan,
    grade,
    parabolic_order,
    parse_type,
    positive_roots,
    weyl_order,
)
from .errors import (
    BadIndexSetError,
    CapExceededError,
    ComputationError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvariantError,
    MalformedFormError,
    NotAMultipleError,
    NotARootError,
    NotASolutionError,
    NotInMainOrbitError,
    NotOnEllipsoidError,
    RankOutOfRangeError,
    UnknownFamilyError,
    UsageError,
    WeylipseError,
)
from .orbits import (
    DEFAULT_EXPAND_CAP,
    OrbitRecord,
    enumerate_secondary_nonneg,
    expand_orbit,
    orbit_seeds,
    orbit_size,
)
from .ordering import (
    Poset,
    ReducedWordSet,
    bruhat_from_primary,
    bruhat_from_subwords,
    emit_dot,
    first_letters,
    primary_poset,
    reduced_words,
)
from .quadrics import QuadForm, apply_T, h_vector, primary_form, secondary_form
from .weyl import (
    DEFAULT_TABLE_CAP,
    GroupTable,
    WeylElement,
    P_map,
    S_map,
    build_group_table,
    element_from_pvector,
    p_alpha_b,
    star,
    word_to_element,
)

__version__ = "0.1.0"
