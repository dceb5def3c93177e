import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pstab
from pstab import DashedPattern, InvalidInputError, TwoRowedArray
from pstab.insertion import MODE_SPECS, ModeSpec

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


# modules a light request must not load: the oracle's pool, and the stdlib
# chains behind dataclasses (inspect, ast, dis, tokenize) and json
HEAVY = {"dataclasses", "inspect", "json", "pstab.oracle", "multiprocessing"}
PAIR = '{"p": {"columns": [[1, 2, 4], [2, 3, 6], [4]]}, "q": {"columns": [[1, 3, 6], [2, 4, 5], [7]]}}'


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    # a site hook may load some of HEAVY before any pstab code runs
    return _imported_modules("-c", "pass")


@pytest.mark.parametrize("argv", [
    ("-c", "import pstab.cli"),
    ("-m", "pstab", "count", "--mode", "lps", "2,1,2"),
    ("-m", "pstab", "hook", "--n", "4", "--shape", "3,1"),
    ("-m", "pstab", "insert", "--mode", "rps", "--format", "json", "4 6 2 3 2 1 4"),
])
def test_request_path_does_not_load_the_oracle(argv, bare_modules):
    modules = _imported_modules(*argv)
    assert "pstab.cli" in modules
    assert not (modules - bare_modules) & HEAVY


def test_unrsk_loads_json_when_it_runs():
    assert "json" in _imported_modules("-m", "pstab", "unrsk", "--mode", "lps", PAIR)


VALUES = [
    (TwoRowedArray, {"top": (1, 1, 2), "bottom": (3, 4, 2)}, {"top": (1, 1, 2), "bottom": (3, 4, 3)}),
    (DashedPattern, {"blocks": ((3, 1), (2,))}, {"blocks": ((3,), (1,), (2,))}),
    (ModeSpec, MODE_SPECS["lps"]._asdict(), MODE_SPECS["rps"]._asdict()),
]


@pytest.mark.parametrize("cls, fields, other_fields", VALUES, ids=[cls.__name__ for cls, *_ in VALUES])
def test_value_classes_keep_the_frozen_dataclass_semantics(cls, fields, other_fields):
    value = cls(**fields)
    assert value == cls(*fields.values()) and hash(value) == hash(cls(*fields.values()))
    assert value != cls(**other_fields)
    reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    assert repr(value) == repr(reference(**fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        assert [getattr(clone, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, args, message", [
    (TwoRowedArray, ((1, 2), (1,)), "top and bottom words differ in length: 2 vs 1"),
    (TwoRowedArray, ((1, 0), (1, 2)), "not a symbol: 0"),
    (TwoRowedArray, ((1, 2), (1, "2")), "not a symbol: '2'"),
    (DashedPattern, (((3, 1), (3,)),), "pattern symbols must form a permutation of 1..3"),
    (DashedPattern, (((1, 2, 3), ()),), "pattern blocks must be nonempty"),
])
def test_value_classes_validate_with_their_messages(cls, args, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        cls(*args)
