import ast

import pytest

from mutate import EQUIVALENT, PACKAGE, REPO, TARGETS, mutants


def test_every_target_has_tests_and_an_equivalent_list():
    assert set(EQUIVALENT) == set(TARGETS)
    for target, tests in TARGETS.items():
        assert (PACKAGE / target).is_file()
        assert tests and all((REPO / "tests" / name).is_file() for name in tests)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_each_mutant_swaps_one_operator(target):
    source = (PACKAGE / target).read_text()
    original = ast.dump(ast.parse(source))
    found = mutants(source)
    assert found
    for label, mutated in found:
        assert ast.dump(ast.parse(mutated)) != original, label


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_equivalent_mutant_is_generated(target):
    labels = {label for label, _ in mutants((PACKAGE / target).read_text())}
    assert set(EQUIVALENT[target]) <= labels


def test_sites_cover_comparisons_and_boolean_operators():
    source = "def f(a, b):\n    return a < b and (a >= b or a == b)\n"
    assert [label for label, _ in mutants(source)] == [
        "f: a < b or (a >= b or a == b)",
        "f: a <= b",
        "f: a >= b and a == b",
        "f: a > b",
    ]


def test_labels_name_the_class_of_a_method():
    source = ("class A:\n    def f(self, a):\n        return a < 1\n"
              "class B:\n    def f(self, a):\n        def g():\n            return a < 1\n"
              "        return g\n")
    assert [label for label, _ in mutants(source)] == ["A.f: a <= 1", "B.f.g: a <= 1"]
