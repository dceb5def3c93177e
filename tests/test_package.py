import copy
import dataclasses
import doctest
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import pstab
from pstab import (
    DashedPattern, InvalidInputError, Tableau, TableauPair, TwoRowedArray, bell_hook, bell_rowsum, compositions,
    count_set_partitions, evaluation, fiber_size, hook_count, stirling2,
)
from pstab.oracle import bell_rowsum_terms, verify_suite
from pstab.insertion import MODE_SPECS, ModeSpec

# every public name of the package, by the module that defines it
PUBLIC = {
    "correspondence": "DashedPattern StablePairLevel is_stable_pair occurrences rsk rsk_inverse",
    "counting": (
        "bell_hook bell_rowsum binomial bracket_lps bracket_rps compositions count_lps count_lps_rec"
        " count_rps count_rps_rec count_set_partitions fiber_size hook_count parse_evaluation parse_shape"
        " ps_project stirling2"
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
        " bracket_sum_rps count_tableaux_bruteforce enumerate_pstab"
        " fiber_bruteforce fiber_census insertion_image is_stable_pair_scan verify_suite"
        " words_with_evaluation"
    ),
    "tableaux": (
        "Tableau TableauClass classify column_reading destandardize_tableau render_ascii render_latex"
        " reverse_columns standardize_tableau tableau_from_json tableau_to_json"
    ),
    "words": (
        "Direction Evaluation Shape StandardizedSymbol Symbol Word destandardize evaluation"
        " format_word is_standard parse_word standardize"
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


def test_every_public_name_imports_from_the_package():
    assert len(NAMES) == 75
    for module, name in NAMES:
        namespace: dict = {}
        exec(f"from pstab import {name}", namespace)
        assert namespace[name] is getattr(getattr(pstab, module), name), name
    star: dict = {}
    exec("from pstab import *", star)
    # as when the package imported them eagerly, a star import also binds the production modules
    assert set(star) - {"__builtins__"} == {name for _, name in NAMES} | (set(PUBLIC) - {"oracle"})
    assert set(pstab.__all__) <= set(dir(pstab))
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
    ("-m", "pstab", "bell", "5", "--method", "oracle"),
    ("-m", "pstab", "insert", "--mode", "rps", "--format", "json", "4 6 2 3 2 1 4"),
])
def test_request_path_does_not_load_the_oracle(argv, bare_modules):
    modules = _imported_modules(*argv)
    assert "pstab.cli" in modules
    assert not (modules - bare_modules) & HEAVY


COUNTING_ONLY = ({"counting"}, {"tableaux", "insertion", "correspondence", "oracle"})


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (("count", "--mode", "lps", "2,1,2"), *COUNTING_ONLY),
    (("bell", "10"), *COUNTING_ONLY),
    (("bell", "10", "--method", "hook"), *COUNTING_ONLY),
    (("bell", "5", "--method", "oracle"), *COUNTING_ONLY),
    (("hook", "--n", "4", "--shape", "3,1"), *COUNTING_ONLY),
    (("insert", "--mode", "lps", "2,1,2"), {"insertion", "tableaux"}, {"correspondence", "counting", "oracle"}),
    (("rsk", "--mode", "rps", "--array", "1,1/2,1"), {"correspondence"}, {"counting", "oracle"}),
    (("unrsk", "--mode", "lps", PAIR), {"correspondence"}, {"counting", "oracle"}),
], ids=["count", "bell", "bell-hook", "bell-oracle", "hook", "insert", "rsk", "unrsk"])
def test_each_command_loads_only_the_layers_it_runs(argv, loaded, not_loaded):
    modules = _imported_modules("-m", "pstab", *argv)
    assert {f"pstab.{name}" for name in loaded} <= modules
    assert not {f"pstab.{name}" for name in not_loaded} & modules


def test_help_loads_no_layer():
    modules = {name for name in _imported_modules("-m", "pstab", "--help") if name.split(".")[0] == "pstab"}
    assert "pstab.cli" in modules
    assert modules <= {"pstab", "pstab.__main__", "pstab.cli", "pstab.errors", "pstab.words"}


@pytest.mark.parametrize("code, loaded, not_loaded", [
    ("import pstab", set(), set(PUBLIC)),
    ("import pstab; pstab.count_lps", {"counting"}, {"insertion", "correspondence", "oracle"}),
    ("import pstab; pstab.count_set_partitions", {"counting"}, set(PUBLIC) - {"counting", "errors", "words"}),
    ("import pstab; pstab.tableaux.render_ascii", {"tableaux"}, {"counting", "oracle"}),
])
def test_the_package_loads_a_module_when_one_of_its_names_is_first_used(code, loaded, not_loaded):
    modules = _imported_modules("-c", code)
    assert {f"pstab.{name}" for name in loaded} <= modules
    assert not {f"pstab.{name}" for name in not_loaded} & modules


@pytest.mark.parametrize("argv", [
    ("verify", "--max-n", "1", "--word-len", "1", "--array-len", "1", "--eval-sum", "1", "--jobs", "1"),
])
def test_a_serial_oracle_request_does_not_load_the_pool(argv, bare_modules):
    modules = _imported_modules("-m", "pstab", *argv)
    assert "pstab.oracle" in modules
    # nor json, which only a --json report writes with
    assert not {"multiprocessing", "json"} & (modules - bare_modules)


def test_unrsk_loads_json_when_it_runs():
    assert "json" in _imported_modules("-m", "pstab", "unrsk", "--mode", "lps", PAIR)


def test_a_json_verify_report_loads_json():
    argv = ("verify", "--json", "--max-n", "1", "--word-len", "1", "--array-len", "1", "--eval-sum", "1")
    assert "json" in _imported_modules("-m", "pstab", *argv)


VALUES = [
    (TwoRowedArray, {"top": (1, 1, 2), "bottom": (3, 4, 2)}, {"top": (1, 1, 2), "bottom": (3, 4, 3)}),
    (DashedPattern, {"blocks": ((3, 1), (2,))}, {"blocks": ((3,), (1,), (2,))}),
    (ModeSpec, MODE_SPECS["lps"]._asdict(), MODE_SPECS["rps"]._asdict()),
    (Tableau, {"columns": ((1, 2), (3,))}, {"columns": ((1,), (2, 3))}),
    (
        TableauPair,
        {"p": Tableau([[1, 2], [3]]), "q": Tableau([[1, 3], [2]])},
        {"p": Tableau([[1, 2], [3]]), "q": Tableau([[1, 2], [3]])},
    ),
]
# a tableau prints as its column lists and hashes as its columns
OWN_REPR_AND_HASH = {Tableau: ("Tableau([[1, 2], [3]])", hash(((1, 2), (3,))))}


@pytest.mark.parametrize("cls, fields, other_fields", VALUES, ids=[cls.__name__ for cls, *_ in VALUES])
def test_value_classes_keep_the_frozen_dataclass_semantics(cls, fields, other_fields):
    value = cls(**fields)
    assert value == cls(*fields.values()) and hash(value) == hash(cls(*fields.values()))
    assert value != cls(**other_fields)
    # another class's operand gets NotImplemented, so its own __eq__ decides
    assert value.__eq__(object()) is NotImplemented and value == mock.ANY
    reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    expected = OWN_REPR_AND_HASH.get(cls, (repr(reference(**fields)), hash(tuple(fields.values()))))
    assert (repr(value), hash(value)) == expected
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


# every public function that takes a count or a size: a call on that value, and the least value it accepts
SIZE_TAKERS = {
    "fiber_size": (lambda v: fiber_size(v, (1,)), 1),
    "hook_count": (lambda v: hook_count(v, (1,)), 1),
    "count_set_partitions": (count_set_partitions, 0),
    "evaluation": (lambda v: evaluation((1,), v), 0),
    "bell_rowsum": (bell_rowsum, 1),
    "bell_hook": (bell_hook, 1),
    "stirling2": (lambda v: stirling2(v, 1), 1),
    "compositions": (lambda v: list(compositions(v)), 1),
    "bell_rowsum_terms": (bell_rowsum_terms, 1),
    "verify_suite max_n": (lambda v: verify_suite(max_n=v), 1),
    "verify_suite jobs": (lambda v: verify_suite(max_n=1, jobs=v), 1),
}
NOT_SIZES = [
    (name, value) for name, (_, least) in SIZE_TAKERS.items() for value in (2.5, True, "4", None, least - 1)
]


@pytest.mark.parametrize("name, value", NOT_SIZES, ids=[f"{name}-{value!r}" for name, value in NOT_SIZES])
def test_every_size_is_an_int_and_not_a_bool_of_at_least_its_least(name, value):
    call, _ = SIZE_TAKERS[name]
    with pytest.raises(InvalidInputError):
        call(value)


def test_unpickling_checks_the_fields_again():
    forged = pickle.dumps(Tableau._from_tuples(((0,),)))
    with pytest.raises(InvalidInputError, match="^not a symbol: 0$"):
        pickle.loads(forged)


def test_readme_example_runs_as_a_doctest():
    readme = Path(__file__).parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
