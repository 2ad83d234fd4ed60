"""Exception types shared across the toolkit."""


class EptriadError(Exception):
    """Base class for toolkit errors."""


class DegenerateEigensystem(EptriadError):
    """Eigenvalues too close for biorthonormalization; carries the offending gap."""

    def __init__(self, min_gap: float):
        self.min_gap = min_gap
        super().__init__(f"minimum eigenvalue gap {min_gap:.3e} below threshold")


class InaccurateEigensystem(EptriadError):
    """Eigenpairs returned by the solver fail the residual check H v = w v."""


class NoConvergence(EptriadError):
    """Iterative refinement failed to reach tolerance."""


class NotAnEP(EptriadError):
    """Point does not satisfy the discriminant-zero criterion."""


class PathTouchesEP(EptriadError):
    """A loop step is too close to a degeneracy for safe transport."""


class AmbiguousMatch(EptriadError):
    """Band assignment between neighboring steps could not be resolved."""


class AnchorMismatch(EptriadError):
    """Loops to concatenate do not share an anchor point (or g)."""


class NonUnimodularDeterminant(EptriadError):
    """Holonomy determinant is not on the unit circle."""


class PoleProximity(EptriadError):
    """Green's function evaluated too close to a resonance pole."""


class FitDiverged(EptriadError):
    """Spectral fit residual stayed above threshold after both phases."""


class NotAGroup(EptriadError):
    """Group verification failed; carries the violated axiom."""

    def __init__(self, axiom: str, detail: str = ""):
        self.axiom = axiom
        super().__init__(f"{axiom} fails" + (f": {detail}" if detail else ""))


class RegimeWarning(UserWarning):
    """Parameters outside the validated small-parameter regime."""


class IdentifiabilityWarning(UserWarning):
    """Two fitted resonances closer than the frequency resolution supports."""
