"""Finite-dimensional laboratory for perturbation theory of operator
algebras: concrete matrix C*-subalgebras, completely positive maps, and the
constructive machinery relating close algebras (averaging, intertwining,
order-zero perturbation), every quantitative bound backed by a Certificate.
"""

from types import ModuleType as _ModuleType

from .algebra import BlockStructure, ConcreteAlgebra, FDAlgebra, wedderburn_decompose
from .averaging import (IntertwinerResult, RepairResult, canonical_average,
                        improve_multiplicativity, intertwining_unitary,
                        projection_conjugator)
from .certs import (BOUNDS, Certificate, ContradictionError, SchemaError,
                    SpectralGapError, WindowError, on_track)
from .cpmaps import (LinMap, StinespringDilation, Ternary, arveson_restrict,
                     cb_bracket, choi_blocks, classify, kraus_operators,
                     stinespring, ucp_extension)
from .geometry import (DistanceInterval, kk_distance, nearest_in_span,
                       tensor_lift)
from .instances import (Instance, block_algebra, gen_instance,
                        hat_decomposition, random_order_zero)
from .intertwine import (IsoResult, StageRecord, close_isomorphism,
                         implement_unitarily, intertwining_iso,
                         near_embedding_nuclear)
from .orderzero import (NucDimDecomposition, OrderZeroMap,
                        identity_decomposition, is_order_zero,
                        near_embed_nucdim, nucdim_cpc_transfer,
                        perturb_order_zero, split_decomposition,
                        structure_decompose, verify_nucdim_decomposition)
from .pipelines import Report, conjugation_iso, render_report, run_pipeline
from .serialize import dumps, load, loads, save

__version__ = "0.1.0"

# the public names are the ones imported above, stated once there
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
