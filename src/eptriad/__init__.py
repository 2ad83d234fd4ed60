"""Exceptional-point topology and non-Abelian band permutations for a
three-site non-Hermitian model: spectrum and discriminant machinery, EP/arc
location, stroboscopic loop transport, the dihedral permutation algebra,
and a virtual Green's-function measurement pipeline."""

__version__ = "0.1.0"

from .model import (
    Eigensystem,
    EigensystemStack,
    ParamPoint,
    PhysicalScale,
    eigensystem,
    eigensystems,
    to_physical,
)
from .locate import EPPoint, EAPolyline, arc_starts, branch_cut_trace, refine_ep, seed_eps_in_slice, trace_ea
from .loops import LoopPath, concat_loops, interpolate_loop, preset_loop, preset_waypoints, reverse_loop
from .permutations import PermutationElement, compose, element, identify, to_matrix, verify_group
from .spectral import (
    CavityConfig,
    FitConfig,
    FittedParams,
    NoiseSpec,
    SpectralDataset,
    fit_loop,
    fit_step,
    load_dataset,
    onsite_profile,
    save_dataset,
    synthesize,
)
from .transport import (
    TransportResult,
    eigenvalue_vorticity,
    transport,
    transport_eigensystems,
)

__all__ = [name for name in dir() if not name.startswith("_")]
