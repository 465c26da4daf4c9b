import ast

from mutate import EQUIVALENT, PACKAGE, TARGET, mutants


def test_each_mutant_swaps_one_operator():
    source = (PACKAGE / TARGET).read_text()
    original = ast.dump(ast.parse(source))
    found = mutants(source)
    assert found
    for label, mutated in found:
        assert ast.dump(ast.parse(mutated)) != original, label


def test_every_equivalent_mutant_is_generated():
    labels = {label for label, _ in mutants((PACKAGE / TARGET).read_text())}
    assert set(EQUIVALENT) <= labels


def test_sites_cover_comparisons_and_boolean_operators():
    source = "def f(a, b):\n    return a < b and (a >= b or a == b)\n"
    assert [label for label, _ in mutants(source)] == [
        "f: a < b or (a >= b or a == b)",
        "f: a <= b",
        "f: a >= b and a == b",
        "f: a > b",
    ]
