"""Exception hierarchy.

Every failure mode of the pipeline gets its own class so callers can react
precisely; a command-line front end can map them to exit codes.  All of them
derive from IsorecError.
"""


class IsorecError(Exception):
    """Base class for all package errors."""


# --- exact arithmetic ------------------------------------------------------

class IrreducibleDenominator(IsorecError):
    """A denominator factor has no root in the working field tower."""


class TruncationTooShort(IsorecError):
    """A series was queried (or needed) beyond its guaranteed order."""


class InvalidExpression(IsorecError, ValueError):
    """Text that parse_element refuses: a character, a name or a construct
    outside its arithmetic, or nesting too deep for Python's parser."""


class UnsolvableInTower(IsorecError):
    """An algebraic condition has no solution in Q(t) or the declared
    quadratic extension."""


# --- Lax-matrix layer ------------------------------------------------------

class PoleCollision(IsorecError):
    """Two declared finite poles coincide."""


class IndexOutOfRange(IsorecError):
    """An index outside its declared range: a (nu, i) Hamiltonian or
    auxiliary index, an hbar power that carries no term, or a recursion
    range with gmax < 0 or nmax < 1."""


class DegenerateOrbit(IsorecError):
    """The (2,1) entry of L vanishes identically; no spectral coordinates."""


class InvalidPoleStructure(IsorecError):
    """Input that breaks a declared pole layout: mismatched or negative
    orders, an unknown leading kind, a Lax coefficient with a trace, a pole
    or residue where none may be, or a factor count that does not match a
    form."""


# --- deformation layer -----------------------------------------------------

class NoDeformation(IsorecError):
    """Pole layouts with no isomonodromic time (the Airy/Hermite-Weber
    exclusions)."""


class CasePreconditionViolated(IsorecError):
    """The selected de-autonomization case does not apply to this layout."""


class PlanMismatch(IsorecError):
    """A scaling plan is inconsistent with the system it is applied to."""


class OrderMismatch(IsorecError):
    """Series truncation orders of two inputs disagree."""


class InvalidHamiltonian(IsorecError):
    """H is not a polynomial in a Darboux pair (q, p) over the time field."""


# --- spectral curve layer --------------------------------------------------

class NilpotentLeading(IsorecError):
    """det and trace of the leading matrix both vanish."""


class NotProportional(IsorecError):
    """The leading Lax and auxiliary matrices fail to be proportional."""


class HigherGenus(IsorecError):
    """More than two odd-order points: the curve is not rational."""


class NoBranchpoints(IsorecError):
    """y is already rational; there is nothing for the recursion to do."""


class ConfluentBranchpoints(IsorecError):
    """The two branchpoints coincide; the double cover degenerates."""


class InvalidUniformization(IsorecError):
    """A parametrization x(z), y(z) that is not a degree-2 cover with the
    declared involution and branch z-points."""


class NonSimpleBranchpoint(IsorecError):
    """The recursion kernel denominator vanishes to order > 2."""


# --- recursion / correlator layer ------------------------------------------

class DegenerateAZero(IsorecError):
    """det of the leading auxiliary matrix vanishes identically."""


class UnexpectedPole(IsorecError):
    """A quantity proved to be regular somewhere has a pole there."""


class SingularHessian(IsorecError):
    """The critical point of the Hamiltonian is degenerate."""


class IdentityFailed(IsorecError):
    """An exact identity that must hold for admissible input does not."""
