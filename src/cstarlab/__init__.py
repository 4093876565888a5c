"""Finite-dimensional laboratory for perturbation theory of operator
algebras: concrete matrix C*-subalgebras, completely positive maps, and the
constructive machinery relating close algebras (averaging, intertwining,
order-zero perturbation), every quantitative bound backed by a Certificate.
"""

from .algebra import BlockStructure, ConcreteAlgebra, FDAlgebra, wedderburn_decompose
from .averaging import (IntertwinerResult, RepairResult, canonical_average,
                        improve_multiplicativity, intertwining_unitary,
                        projection_conjugator)
from .certs import (BOUNDS, Certificate, ContradictionError, SchemaError,
                    SpectralGapError, WindowError, on_track, provenance_stamp)
from .cpmaps import (LinMap, StinespringDilation, Ternary, arveson_restrict,
                     cb_bracket, choi_blocks, classify, kraus_operators,
                     stinespring, ucp_extension)
from .geometry import (DistanceInterval, kk_distance, nearest_in_span,
                       tensor_lift)
from .instances import (Instance, block_algebra, gen_instance,
                        hat_decomposition, random_order_zero)
from .intertwine import (IsoResult, StageRecord, close_isomorphism,
                         half_flip_cpc, implement_unitarily, intertwining_iso,
                         near_embedding_nuclear)
from .orderzero import (NucDimDecomposition, OrderZeroMap,
                        identity_decomposition, is_order_zero,
                        near_embed_nucdim, nucdim_cpc_transfer,
                        perturb_order_zero, split_decomposition,
                        structure_decompose, verify_nucdim_decomposition)
from .pipelines import Report, conjugation_iso, render_report, run_pipeline
from .serialize import dumps, load, loads, save

__version__ = "0.1.0"

__all__ = [
    "BlockStructure", "BOUNDS", "Certificate",
    "ConcreteAlgebra", "ContradictionError",
    "DistanceInterval", "FDAlgebra", "Instance", "IntertwinerResult",
    "IsoResult", "LinMap", "NucDimDecomposition",
    "OrderZeroMap", "RepairResult", "Report",
    "SchemaError", "SpectralGapError", "StageRecord", "StinespringDilation",
    "Ternary", "WindowError", "arveson_restrict",
    "block_algebra", "canonical_average", "cb_bracket", "choi_blocks", "classify",
    "close_isomorphism", "conjugation_iso", "dumps",
    "gen_instance", "half_flip_cpc", "hat_decomposition",
    "identity_decomposition", "implement_unitarily",
    "improve_multiplicativity", "intertwining_iso", "intertwining_unitary",
    "is_order_zero", "kk_distance", "kraus_operators", "load", "loads",
    "near_embed_nucdim", "near_embedding_nuclear", "nearest_in_span",
    "nucdim_cpc_transfer", "on_track", "perturb_order_zero",
    "projection_conjugator", "provenance_stamp",
    "random_order_zero", "render_report", "run_pipeline", "save",
    "split_decomposition", "stinespring", "structure_decompose",
    "tensor_lift", "ucp_extension", "verify_nucdim_decomposition",
    "wedderburn_decompose",
]
