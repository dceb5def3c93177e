"""Patience sorting tableaux: insertion algorithms, RSK-style correspondences,
exact counting formulas, and brute-force verification oracles."""

from .correspondence import (
    DashedPattern,
    StablePairLevel,
    is_stable_pair,
    occurrences,
    rsk,
    rsk_inverse,
)
from .counting import (
    bell_hook,
    bell_rowsum,
    binomial,
    bracket_lps,
    bracket_rps,
    compositions,
    count_lps,
    count_lps_rec,
    count_rps,
    count_rps_rec,
    fiber_size,
    hook_count,
    parse_evaluation,
    parse_shape,
    ps_project,
    stirling2,
)
from .errors import (
    BudgetExceededError,
    InternalError,
    InvalidInputError,
    NotInStablePairsError,
    PSTabError,
    ReverseInsertionError,
)
from .insertion import (
    Mode,
    TableauPair,
    TwoRowedArray,
    array_insert,
    extended_insert,
    ps_insert,
    read_by_recording,
    reverse_insertion,
)
from .oracle import (
    Budgets,
    CaseResult,
    VerificationReport,
    bell_hook_sum,
    bell_rowsum_terms,
    bracket_sum_lps,
    bracket_sum_rps,
    count_set_partitions,
    count_tableaux_bruteforce,
    enumerate_pstab,
    fiber_bruteforce,
    fiber_census,
    is_stable_pair_scan,
    verify_suite,
    words_with_evaluation,
)
from .tableaux import (
    Shape,
    Tableau,
    TableauClass,
    classify,
    column_reading,
    destandardize_tableau,
    render_ascii,
    render_latex,
    reverse_columns,
    standardize_tableau,
    tableau_from_json,
    tableau_to_json,
)
from .words import (
    Direction,
    Evaluation,
    StandardizedSymbol,
    Symbol,
    Word,
    destandardize,
    evaluation,
    format_word,
    is_standard,
    parse_word,
    standardize,
)

__version__ = "0.1.0"
