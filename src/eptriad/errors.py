"""Exception types shared across the toolkit."""


class EptriadError(Exception):
    """Base class for toolkit errors."""


class InaccurateEigensystem(EptriadError):
    """Eigenpairs returned by the solver fail the residual check H v = w v."""


class NoConvergence(EptriadError):
    """Iterative refinement failed to reach tolerance."""


class NotAnEP(EptriadError):
    """Point does not satisfy the discriminant-zero criterion."""


class PathTouchesEP(EptriadError):
    """A loop segment passes too close to a degeneracy for safe transport."""


class AmbiguousMatch(EptriadError):
    """Band assignment between neighboring steps could not be resolved."""


class AnchorMismatch(EptriadError):
    """Loops to concatenate do not share an anchor point (or g)."""


class NonUnimodularDeterminant(EptriadError):
    """The tracked frame lost rank: the holonomy determinant det U is 0."""


class FitDiverged(EptriadError):
    """Spectral fit residual stayed above threshold after both phases."""


class NotAGroup(EptriadError):
    """Group verification failed; the message names the violated axiom."""


class RegimeWarning(UserWarning):
    """Parameters outside the validated small-parameter regime."""


class IdentifiabilityWarning(UserWarning):
    """Two fitted resonances closer than the frequency resolution supports."""
