import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstab

# every name the package exported before the oracle was loaded on demand
PUBLIC = {
    "correspondence": "DashedPattern StablePairLevel is_stable_pair occurrences rsk rsk_inverse",
    "counting": (
        "bell_hook bell_rowsum binomial bracket_lps bracket_rps compositions count_lps count_lps_rec"
        " count_rps count_rps_rec fiber_size hook_count parse_evaluation parse_shape ps_project stirling2"
    ),
    "errors": (
        "BudgetExceededError InternalError InvalidInputError NotInStablePairsError PSTabError"
        " ReverseInsertionError"
    ),
    "insertion": (
        "Mode TableauPair TwoRowedArray array_insert extended_insert ps_insert read_by_recording"
        " reverse_insertion"
    ),
    "oracle": (
        "Budgets CaseResult VerificationReport bell_hook_sum bell_rowsum_terms bracket_sum_lps"
        " bracket_sum_rps count_set_partitions count_tableaux_bruteforce enumerate_pstab"
        " fiber_bruteforce fiber_census is_stable_pair_scan verify_suite words_with_evaluation"
    ),
    "tableaux": (
        "Shape Tableau TableauClass classify column_reading destandardize_tableau render_ascii"
        " render_latex reverse_columns standardize_tableau tableau_from_json tableau_to_json"
    ),
    "words": (
        "Direction Evaluation StandardizedSymbol Symbol Word destandardize evaluation format_word"
        " is_standard parse_word standardize"
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


def test_every_public_name_imports_from_the_package():
    assert len(NAMES) == 74
    for module, name in NAMES:
        namespace: dict = {}
        exec(f"from pstab import {name}", namespace)
        assert namespace[name] is getattr(getattr(pstab, module), name), name
    star: dict = {}
    exec("from pstab import *", star)
    assert {name for _, name in NAMES} <= set(star)
    with pytest.raises(ImportError):
        exec("from pstab import no_such_name", {})


def _imported_modules(*argv: str) -> set[str]:
    """Every module a fresh interpreter imports while running ``argv``."""
    src = str(Path(pstab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [("-c", "import pstab.cli"), ("-m", "pstab", "count", "--mode", "lps", "2,1,2")])
def test_request_path_does_not_load_the_oracle(argv):
    modules = _imported_modules(*argv)
    assert "pstab.cli" in modules
    assert not modules & {"pstab.oracle", "multiprocessing"}
