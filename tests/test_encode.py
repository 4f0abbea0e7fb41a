"""``sigmaprod.encode`` is the one module that writes the library's values as
JSON; the other modules hold no JSON form of their own."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import sigmaprod
from sigmaprod import averaging, classification, encode

SRC = Path(sigmaprod.__file__).resolve().parent
JSON_FORM = re.compile(r"(\w+_)?to_json")


def json_forms(path):
    """Names of the functions and methods ``path`` defines that look like JSON forms."""
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and JSON_FORM.fullmatch(node.name)]


def test_only_encode_defines_json_forms():
    found = {path.name: json_forms(path) for path in sorted(SRC.glob("*.py"))}
    assert sorted(found.pop("encode.py")) == ["decomposition_to_json", "operator_to_json"]
    assert {name: forms for name, forms in found.items() if forms} == {}


def test_the_reexported_encoders_are_encodes_own():
    assert classification.decomposition_to_json is encode.decomposition_to_json
    assert averaging.operator_to_json is encode.operator_to_json


def test_fraction_text_and_its_digit_limit():
    assert encode.fraction(Fraction(-6, 4)) == "-3/2"
    assert encode.fraction(Fraction(7)) == "7"
    with pytest.raises(encode.OutputTooLarge):
        encode.fraction(Fraction(1, 3 ** 9100))
    with pytest.raises(encode.OutputTooLarge):
        encode.fraction(Fraction(10 ** 4400))


def test_integer_and_its_digit_limit():
    assert encode.integer(-12) == -12
    assert encode.integer(10 ** 4299) == 10 ** 4299
    with pytest.raises(encode.OutputTooLarge):
        encode.integer(10 ** 4300)
