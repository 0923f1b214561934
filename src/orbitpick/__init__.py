"""orbitpick: Pick interpolation for group-invariant disk algebras.

Decide and construct solutions of bounded analytic interpolation
problems for the fixed-point algebras of groups of disk automorphisms:
orbit Blaschke products, character extraction, reproducing-kernel Gram
matrices, Pick-matrix feasibility, extremal norms, and Schur-recursion
interpolants composed with inner functions.
"""

from .blaschke import (
    BlaschkeProduct,
    CharacterReport,
    character_of,
    evaluate,
    from_orbit,
)
from .errors import (
    AliasedNodes,
    DuplicateNodes,
    DuplicatePoints,
    InconclusiveCharacter,
    Infeasible,
    InputError,
    NotDiskAutomorphism,
    NotInDisk,
    NoTailBound,
    NumericalError,
    OrbitExplosion,
    OrbitPickError,
    SchemaError,
    TooCloseToBoundary,
    UnsupportedVariant,
)
from .kernels import (
    ComposedInnerKernel,
    GramMatrix,
    OrbitGramKernel,
    SzegoKernel,
    boundary_gram_quadrature,
    dominance_check,
    gram,
)
from .linalg import (
    HermitianMatrix,
    PsdReport,
    brute_force_psd_3x3,
    min_eig,
    pencil_max,
    psd_check,
)
from .mobius import (
    DiskAutomorphism,
    canonicalize,
    disk_point,
    iterate_cyclic,
    pseudo_hyperbolic,
)
from .orbits import (
    GroupPresentation,
    Orbit,
    OrbitEntry,
    cyclic_group,
    cyclic_orbit_weight,
    enumerate_orbit,
    generic_group,
    stabilizer_order_origin,
    z2z2_group,
)
from .pick import (
    ComposedInterpolant,
    FeasibilityReport,
    PickProblem,
    SchurInterpolant,
    amenable_average,
    assemble_pick,
    evaluate_composed,
    evaluate_interpolant,
    feasibility,
    interpolate_composed,
    interpolate_disk,
    pick_norm,
)

__version__ = "0.1.0"
