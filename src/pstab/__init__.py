"""Patience sorting tableaux: insertion algorithms, RSK-style correspondences,
exact counting formulas, and brute-force verification oracles."""

__version__ = "0.1.0"

# every public name, by the module that defines it: importing pstab loads none
# of these modules, and each one loads when one of its names is first used
_NAMES = {
    "correspondence": "DashedPattern StablePairLevel is_stable_pair occurrences rsk rsk_inverse",
    "counting": """bell_hook bell_rowsum binomial bracket_lps bracket_rps compositions count_lps
        count_lps_rec count_rps count_rps_rec fiber_size hook_count parse_evaluation parse_shape
        ps_project stirling2""",
    "errors": """BudgetExceededError InternalError InvalidInputError NotInStablePairsError PSTabError
        ReverseInsertionError""",
    "insertion": """Mode TableauPair TwoRowedArray array_insert extended_insert ps_insert
        read_by_recording reverse_insertion""",
    "oracle": """Budgets CaseResult VerificationReport bell_hook_sum bell_rowsum_terms bracket_sum_lps
        bracket_sum_rps count_set_partitions count_tableaux_bruteforce enumerate_pstab fiber_bruteforce
        fiber_census insertion_image is_stable_pair_scan verify_suite words_with_evaluation""",
    "tableaux": """Shape Tableau TableauClass classify column_reading destandardize_tableau render_ascii
        render_latex reverse_columns standardize_tableau tableau_from_json tableau_to_json""",
    "words": """Direction Evaluation StandardizedSymbol Symbol Word destandardize evaluation format_word
        is_standard parse_word standardize""",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
# a star import binds every public name and the production modules, and so loads them all
__all__ = [module for module in _NAMES if module != "oracle"] + list(_MODULE_OF)


def __getattr__(name: str):
    # PEP 562: reached only for names not bound here
    module = name if name in _NAMES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own machinery (which -X importtime reports) binds the module here
    __import__(f"{__name__}.{module}")
    return globals()[module] if module == name else getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
