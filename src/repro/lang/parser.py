"""S-expression reader and printer for the Isaria DSL.

Concrete syntax, matching the paper's examples:

- ``(+ (Get x 0) (Get y 0))`` — operators are symbols in head position;
- ``(Get x 3)`` parses to a ``Get`` leaf with payload ``("x", 3)``
  (``3.0`` and ``3e0`` too; a non-integral index is a
  :class:`ParseError`);
- bare numbers are ``Const`` leaves, bare identifiers ``Symbol`` leaves;
- ``?a`` is a wildcard (patterns only).
"""

from __future__ import annotations

from repro.lang import term as T
from repro.lang.term import Term


class ParseError(ValueError):
    """Raised on malformed s-expression input."""


_DELIMS = set("()")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DELIMS:
            tokens.append(ch)
            i += 1
        elif ch == ";":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS:
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_atom(token: str) -> Term:
    if token.startswith("?"):
        if len(token) == 1:
            raise ParseError("empty wildcard name '?'")
        return T.wildcard(token[1:])
    try:
        return T.const(int(token))
    except ValueError:
        pass
    try:
        return T.const(float(token))
    except ValueError:
        pass
    return T.symbol(token)


def _parse_expr(tokens: list[str], pos: int) -> tuple[Term, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    token = tokens[pos]
    if token == ")":
        raise ParseError("unexpected ')'")
    if token != "(":
        return _parse_atom(token), pos + 1

    # Compound form: (op arg ...)
    pos += 1
    if pos >= len(tokens):
        raise ParseError("unexpected end of input after '('")
    op = tokens[pos]
    if op in _DELIMS:
        raise ParseError(f"expected operator symbol, got {op!r}")
    pos += 1
    args: list[Term] = []
    while pos < len(tokens) and tokens[pos] != ")":
        arg, pos = _parse_expr(tokens, pos)
        args.append(arg)
    if pos >= len(tokens):
        raise ParseError("missing ')'")
    pos += 1  # consume ')'

    if op == "Get":
        if (
            len(args) != 2
            or not T.is_symbol(args[0])
            or not T.is_const(args[1])
        ):
            raise ParseError("Get expects (Get <array> <index>)")
        try:
            return T.get(args[0].payload, args[1].payload), pos
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return T.make(op, *args), pos


def parse(text: str) -> Term:
    """Parse a single term from ``text``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    term, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input at token {pos}: {tokens[pos]!r}")
    return term


def parse_many(text: str) -> list[Term]:
    """Parse a sequence of terms from ``text``."""
    tokens = _tokenize(text)
    terms: list[Term] = []
    pos = 0
    while pos < len(tokens):
        term, pos = _parse_expr(tokens, pos)
        terms.append(term)
    return terms


def _fmt_const(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_sexpr(term: Term) -> str:
    """Render ``term`` back to concrete syntax.

    ``parse(to_sexpr(t)) == t`` for every term that the parser can
    produce (i.e. everything except exotic payloads).
    """
    if T.is_const(term):
        return _fmt_const(term.payload)
    if T.is_symbol(term):
        return term.payload
    if T.is_wildcard(term):
        return f"?{term.payload}"
    if T.is_get(term):
        array, index = term.payload
        return f"(Get {array} {index})"
    inner = " ".join(to_sexpr(arg) for arg in term.args)
    return f"({term.op} {inner})" if inner else f"({term.op})"
