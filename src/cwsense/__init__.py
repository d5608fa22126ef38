"""Deterministic compressed-sensing matrices from constant-weight codes.

The library builds binary and ternary constant-weight codes (greedy
search, moment buckets, Steiner triple systems, affine planes, spreads
of finite-field subspaces), turns them into sparse {-1,0,1} measurement
matrices, certifies mutual coherence with exact rational arithmetic,
and runs seeded orthogonal matching pursuit experiments against the
coherence-based recovery guarantee.
"""

from .errors import BudgetError, FormatError, ParameterError
from .field import FiniteField, find_irreducible, make_field
from .codes import (BoundReport, CWCode, certify_binary, check_words,
                    dimension_binary_gilbert, dimension_binary_gs,
                    dimension_ternary_gilbert, dumps_code, gilbert_bound,
                    graham_sloane_bound, graham_sloane_construct,
                    greedy_binary, greedy_ternary, load_code, loads_code,
                    save_code, smallest_prime_at_least,
                    ternary_gilbert_bound, validate)
from .designs import (SteinerTripleSystem, SubspaceCode, affine_plane_code,
                      certify_subspace_code, load_subspace_code,
                      loads_subspace_code, make_sts, save_subspace_code,
                      spread_code, steiner_to_code, sts_bose, sts_skolem,
                      subspace_to_code, subspace_to_coset_code)
from .matrices import (CoherenceReport, MeasurementMatrix, WelchBound,
                       coherence, devore, dumps_matrix, from_code,
                       load_matrix, loads_matrix, save_matrix, welch_bound)
from .recovery import (RecoveryReport, SparseSignal, omp, reports_to_csv,
                       run_experiment)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "FormatError", "ParameterError",
    "FiniteField", "find_irreducible", "make_field",
    "BoundReport", "CWCode", "certify_binary", "check_words",
    "dimension_binary_gilbert",
    "dimension_binary_gs", "dimension_ternary_gilbert", "dumps_code",
    "gilbert_bound", "graham_sloane_bound", "graham_sloane_construct",
    "greedy_binary", "greedy_ternary", "load_code", "loads_code",
    "save_code", "smallest_prime_at_least", "ternary_gilbert_bound",
    "validate",
    "SteinerTripleSystem", "SubspaceCode", "affine_plane_code",
    "certify_subspace_code", "load_subspace_code", "loads_subspace_code",
    "make_sts", "save_subspace_code", "spread_code", "steiner_to_code",
    "sts_bose", "sts_skolem", "subspace_to_code", "subspace_to_coset_code",
    "CoherenceReport", "MeasurementMatrix", "WelchBound", "coherence",
    "devore", "dumps_matrix", "from_code", "load_matrix", "loads_matrix", "save_matrix",
    "welch_bound",
    "RecoveryReport", "SparseSignal", "omp", "reports_to_csv",
    "run_experiment",
    "__version__",
]
