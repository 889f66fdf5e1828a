"""Weight-aware bounds and excluded-weight analysis for q-ary linear codes."""

from .bounds import (
    BoundVerdict,
    distance_ratio_holds,
    global_weight_max,
    griesmer_min_n,
    max_window_weight,
    parameter_verdicts,
    residual_griesmer_min_n,
    residual_singleton_max_d,
    singleton_max_d,
)
from .codes import (
    CodeParams,
    LinearCode,
    ResidualWindowWarning,
    WeightSpectrum,
    code_from_matrix,
    code_params,
    find_codeword_of_weight,
    generator_text,
    hamming_weight,
    iter_codewords,
    min_distance,
    parse_generator_text,
    read_generator_file,
    residual,
    row_reduce,
    spectrum,
)
from .corpus import random_code, random_corpus
from .errors import WeightBoundsError
from .exclusion import (
    AuditViolation,
    ExclusionReport,
    audit_against_spectrum,
    chen_xie_excluded,
    compare_methods,
    griesmer_excluded,
    singleton_excluded,
)
from .gf import GF, make_field
from .tables import TableRow, table_rows

__version__ = "0.1.0"

__all__ = [
    "AuditViolation",
    "BoundVerdict",
    "CodeParams",
    "ExclusionReport",
    "GF",
    "LinearCode",
    "ResidualWindowWarning",
    "TableRow",
    "WeightBoundsError",
    "WeightSpectrum",
    "audit_against_spectrum",
    "chen_xie_excluded",
    "code_from_matrix",
    "code_params",
    "compare_methods",
    "distance_ratio_holds",
    "find_codeword_of_weight",
    "generator_text",
    "global_weight_max",
    "griesmer_excluded",
    "griesmer_min_n",
    "hamming_weight",
    "iter_codewords",
    "make_field",
    "max_window_weight",
    "min_distance",
    "parameter_verdicts",
    "parse_generator_text",
    "random_code",
    "random_corpus",
    "read_generator_file",
    "residual",
    "residual_griesmer_min_n",
    "residual_singleton_max_d",
    "row_reduce",
    "singleton_excluded",
    "singleton_max_d",
    "spectrum",
    "table_rows",
]
