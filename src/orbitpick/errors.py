"""Exception hierarchy shared by all orbitpick modules.

Three broad families matter to callers (and to the CLI exit codes):
``InputError`` for ill-posed or malformed data, ``NumericalError`` for
computations that could not be completed reliably, and ``Infeasible``
for well-posed interpolation problems that admit no solution.
"""


class OrbitPickError(Exception):
    """Base class for all orbitpick exceptions."""


class InputError(OrbitPickError):
    """Ill-posed or malformed input data."""


class NotInDisk(InputError):
    """A point required to lie in the open unit disk does not."""


class NotDiskAutomorphism(InputError):
    """A fractional-linear map is not an automorphism of the disk."""


class DuplicatePoints(InputError):
    """Points required to be pairwise distinct are not."""


class DuplicateNodes(DuplicatePoints):
    """Interpolation nodes coincide."""


class AliasedNodes(InputError):
    """Distinct nodes collapse to the same point under the inner map
    but carry different target values, so no invariant function can
    separate them."""


class UnsupportedVariant(InputError):
    """Operation not defined for this kernel variant."""


class SchemaError(InputError):
    """A problem file does not conform to the input schema."""


class NumericalError(OrbitPickError):
    """A computation failed to reach the requested certainty."""


class OrbitExplosion(NumericalError):
    """Orbit enumeration exceeded the configured point cap."""


class NoTailBound(NumericalError):
    """A truncation was requested in strict mode but the orbit carries
    no convergence certificate."""


class TooCloseToBoundary(NumericalError):
    """Evaluation requested at a point where the truncation error bound
    blows up."""


class InconclusiveCharacter(NumericalError):
    """Character extraction probes disagree beyond tolerance."""


class Infeasible(OrbitPickError):
    """The interpolation problem is well posed but has no solution in
    the closed unit ball."""
