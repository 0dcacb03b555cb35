"""nlbd: simulation and exhaustive search for nonlocal boxes and distillation wirings.

The package is organized as:

* :mod:`nlbd.boxes` - bipartite no-signalling boxes (probability and
  correlator/marginal form), validation, CHSH value, named families.
* :mod:`nlbd.xorboxes` - n-player XOR-game boxes with trivial marginals,
  their value, and the parity-distillation oracle.
* :mod:`nlbd.fourier` - Walsh transforms of +-1 output functions, values
  via Fourier coefficients, and the parity upper bound for non-adaptive
  distillation.
* :mod:`nlbd.wirings` - applying non-adaptive and adaptive two-copy
  protocols by exact outcome enumeration; named protocols (parity, OR);
  the closed-form OR and adaptive values for symmetric boxes
  (``or_value``, ``adaptive_value``).
* :mod:`nlbd.search` - exhaustive protocol searches, parameter-region scans,
  and reproduction of the reference value tables.
* :mod:`nlbd.equivalence` - the eight correlator-form polynomials of an
  adaptive two-copy wiring's output, each split into two affine factors,
  and the two nonidentical boxes, one per factor, whose parity wiring
  simulates the adaptive protocol.
* :mod:`nlbd.fileio` - the box/xor file formats and protocol serialization.
* :mod:`nlbd.cli` - the ``nlbd`` command-line front end.
"""

from .boxes import (
    BipartiteBox,
    CorrelatorForm,
    ValidationReport,
    box_from_correlators,
    chsh_value,
    chsh_value_of_box,
    correlators_from_box,
    make_named_box,
    validate_box,
)
from .equivalence import (
    AffineFactor,
    DeltaPolynomial,
    EquivalenceCertificate,
    EquivalenceResult,
    EquivalentBox,
    build_equivalent_boxes,
    factor_affine_target,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    FormatError,
    InvalidBox,
    InvalidConstructedBox,
    NlbdError,
    NoRealFactorization,
    RangeInfeasible,
    UnknownKind,
    VerificationFailed,
)
from .fileio import (
    format_box_correlators,
    format_box_matrix,
    format_protocol,
    format_xor_box,
    parse_box_text,
    parse_protocol,
    read_box_file,
    write_box_file,
)
from .fourier import (
    ParityBound,
    PmOutputFunction,
    nonadaptive_value_fourier,
    parity_bound,
    walsh_transform,
)
from .search import (
    CC_COLLAPSE_THRESHOLD,
    RegionScanResult,
    SearchResult,
    TableReport,
    adaptive_search_max,
    adaptive_search_stack,
    enumerate_nonadaptive_max,
    format_table_report,
    region_scan,
    reproduce_tables,
)
from .wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    adaptive_value,
    apply_adaptive,
    apply_nonadaptive,
    bs_output_box,
    bs_wiring,
    identity_wiring,
    or_protocol,
    or_value,
    parity_protocol,
    symmetric_box,
)
from .xorboxes import (
    MultipartiteXorBox,
    XorGame,
    parity_distill_value,
    simulate_parity,
    xor_value,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveTwoCopyProtocol",
    "AffineFactor",
    "ArityMismatch",
    "BipartiteBox",
    "BudgetExceeded",
    "CC_COLLAPSE_THRESHOLD",
    "CorrelatorForm",
    "DeltaPolynomial",
    "EquivalenceCertificate",
    "EquivalenceResult",
    "EquivalentBox",
    "FormatError",
    "InvalidBox",
    "InvalidConstructedBox",
    "MultipartiteXorBox",
    "NlbdError",
    "NoRealFactorization",
    "NonAdaptiveProtocol",
    "ParityBound",
    "PmOutputFunction",
    "RangeInfeasible",
    "RegionScanResult",
    "SearchResult",
    "TableReport",
    "UnknownKind",
    "ValidationReport",
    "VerificationFailed",
    "XorGame",
    "adaptive_search_max",
    "adaptive_search_stack",
    "adaptive_value",
    "apply_adaptive",
    "apply_nonadaptive",
    "box_from_correlators",
    "bs_output_box",
    "bs_wiring",
    "build_equivalent_boxes",
    "chsh_value",
    "chsh_value_of_box",
    "correlators_from_box",
    "enumerate_nonadaptive_max",
    "factor_affine_target",
    "format_box_correlators",
    "format_box_matrix",
    "format_protocol",
    "format_table_report",
    "format_xor_box",
    "identity_wiring",
    "make_named_box",
    "nonadaptive_value_fourier",
    "or_protocol",
    "or_value",
    "parity_bound",
    "parity_distill_value",
    "parity_protocol",
    "parse_box_text",
    "parse_protocol",
    "read_box_file",
    "region_scan",
    "reproduce_tables",
    "simulate_parity",
    "symmetric_box",
    "validate_box",
    "walsh_transform",
    "write_box_file",
    "xor_value",
]
