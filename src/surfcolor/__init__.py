"""Coloring surface-embedded graphs through nowhere-zero dual flows
with prescribed homology, plus the hollow-polygon width verifier."""

from .surface_map import (
    CombinatorialMap,
    FaceProfile,
    build_map,
    dual,
    face_profile,
    load_surfmap,
    save_surfmap,
)
from .chains import Chain0, Chain1, Chain2
from .homology import CohomologyBasis, cohomology_basis, copaths_from
from .flows import Flow
from .circulation import Certificate, Circulation, HomologyTarget
from .lattice import HomologyPoint, Separator
from .solver import ColoringResult, Precoloring, extend_precoloring, verify_homomorphism

__all__ = [
    "CombinatorialMap",
    "FaceProfile",
    "build_map",
    "dual",
    "face_profile",
    "load_surfmap",
    "save_surfmap",
    "Chain0",
    "Chain1",
    "Chain2",
    "CohomologyBasis",
    "cohomology_basis",
    "copaths_from",
    "Flow",
    "Certificate",
    "Circulation",
    "HomologyTarget",
    "HomologyPoint",
    "Separator",
    "ColoringResult",
    "Precoloring",
    "extend_precoloring",
    "verify_homomorphism",
]

__version__ = "0.1.0"
