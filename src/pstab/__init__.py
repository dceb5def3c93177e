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

# names served from pstab.oracle on first use, so that importing pstab does not load it
_ORACLE_NAMES = frozenset("""
    Budgets CaseResult VerificationReport bell_hook_sum bell_rowsum_terms bracket_sum_lps
    bracket_sum_rps count_set_partitions count_tableaux_bruteforce enumerate_pstab
    fiber_bruteforce fiber_census insertion_image is_stable_pair_scan verify_suite
    words_with_evaluation
""".split())
# a star import names the oracle too, and so loads it
__all__ = [name for name in globals() if not name.startswith("_")] + sorted(_ORACLE_NAMES)


def __getattr__(name: str):
    # PEP 562: reached only for names not bound above
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
