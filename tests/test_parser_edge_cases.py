"""Parser edge cases beyond the basics."""

import pytest

from repro.lang import builders as B
from repro.lang.parser import ParseError, parse, parse_many, to_sexpr


class TestNumericEdges:
    def test_negative_float(self):
        assert parse("-0.25") == B.const(-0.25)

    def test_integral_float_literal(self):
        # 2.0 normalizes to the int leaf
        assert parse("2.0") is B.const(2)

    def test_scientific_notation(self):
        assert parse("1e-3") == B.const(0.001)

    def test_symbol_with_digits(self):
        term = parse("x1")
        assert term == B.symbol("x1")

    def test_dash_symbol_vs_number(self):
        # a lone '-' in head position is the subtraction operator
        assert parse("(- 1 2)").op == "-"


class TestWhitespaceAndNesting:
    def test_deep_nesting(self):
        depth = 60
        text = "(neg " * depth + "x" + ")" * depth
        term = parse(text)
        from repro.lang.term import term_depth

        assert term_depth(term) == depth + 1

    def test_newlines_and_tabs(self):
        term = parse("(+\n\t1\n\t2)")
        assert term == B.add(B.const(1), B.const(2))

    def test_parse_many_mixed(self):
        terms = parse_many("1 (neg 2)\n; comment\n(Get a 0)")
        assert len(terms) == 3
        assert terms[2] == B.get("a", 0)

    def test_empty_parse_many(self):
        assert parse_many("; only a comment") == []


class TestGetEdgeCases:
    def test_get_requires_symbol_then_const(self):
        with pytest.raises(ParseError):
            parse("(Get 1 x)")
        with pytest.raises(ParseError):
            parse("(Get x 1 2)")

    def test_get_roundtrip_large_index(self):
        term = B.get("buffer", 12345)
        assert parse(to_sexpr(term)) is term

    def test_integral_index_spellings_name_one_leaf(self):
        leaf = parse("(Get a 1)")
        assert leaf.payload == ("a", 1)
        assert parse("(Get a 1.0)") is leaf
        assert parse("(Get a 1e0)") is leaf
        assert parse("(Get a 2.0)") is parse("(Get a 2)")

    @pytest.mark.parametrize("index", ["1.5", "-0.25", "1e-3", "nan", "inf"])
    def test_non_integral_index_is_rejected(self, index):
        # Truncating would read another element: (Get a 1.5) is not a[1].
        with pytest.raises(ParseError, match="Get index must be an integer"):
            parse(f"(Get a {index})")
        with pytest.raises(ParseError):
            parse(f"(List (Vec (Get a 0) (Get a {index})))")

    def test_builder_rejects_non_integral_index(self):
        assert B.get("a", 3.0) is B.get("a", 3)
        with pytest.raises(ValueError):
            B.get("a", 1.5)


class TestPrinterEdges:
    def test_zero_arg_compound(self):
        from repro.lang.term import make

        term = make("List")
        assert to_sexpr(term) == "(List)"

    def test_float_repr_roundtrips(self):
        for value in (0.1, -2.5, 1e-7, 3.141592653589793):
            term = B.const(value)
            assert parse(to_sexpr(term)) is term
