"""Text format for models, maps and homotopy data, with a printer.

Grammar (whitespace-insensitive, ';'-terminated statements):

    model NAME { gen NAME : deg INT [upper INT] ; ...  d NAME = ELEMENT ; ... }
    map  NAME : SRC -> DST { NAME -> ELEMENT ; ... }
    smap NAME : SRC -> DST { NAME -> ELEMENT ; ... }

    element  := ['-'] term { ('+'|'-') term }
    term     := '0' | [rational] monomial
    rational := INT [ '/' INT ]
    monomial := generator-name | '[' element ',' element ']'

Omitted d-lines mean the differential vanishes on that generator; omitted map
lines are an error.  An smap block assigns degree-raising values (|g| + 1)
used as suspension data by homotopy verification; it is not a DGL map.
Pretty-printing a workspace and re-parsing yields an identical workspace.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ParseError, PreconditionError, TruncationError
from .lie import FreeLieAlgebra, Generator, LieElement
from .model import DglModel, DglMorphism

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_'^]*)
      | (?P<punct>[{}\[\]:;,+\-/=])
    """,
    re.VERBOSE,
)

KEYWORDS = {"model", "map", "smap", "gen", "deg", "upper", "d"}


@dataclass
class _Token:
    kind: str  # "int", "ident", "punct", "arrow", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class SuspensionMap:
    """Degree-raising generator assignment used as homotopy data."""

    name: str
    source: DglModel
    target: DglModel
    values: dict


@dataclass
class Workspace:
    truncation: int
    models: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    smaps: dict = field(default_factory=dict)

    def model(self, name: str) -> DglModel:
        if name not in self.models:
            raise PreconditionError(f"unknown model {name!r}")
        return self.models[name]

    def map(self, name: str) -> DglMorphism:
        if name not in self.maps:
            raise PreconditionError(f"unknown map {name!r}")
        return self.maps[name]

    def smap(self, name: str) -> SuspensionMap:
        if name not in self.smaps:
            raise PreconditionError(f"unknown smap {name!r}")
        return self.smaps[name]

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.models == other.models
            and {k: (m.source.name, m.target.name, {g: v.terms for g, v in m.values.items()}) for k, m in self.maps.items()}
            == {k: (m.source.name, m.target.name, {g: v.terms for g, v in m.values.items()}) for k, m in other.maps.items()}
            and {k: (s.source.name, s.target.name, {g: v.terms for g, v in s.values.items()}) for k, s in self.smaps.items()}
            == {k: (s.source.name, s.target.name, {g: v.terms for g, v in s.values.items()}) for k, s in other.smaps.items()}
        )


# -- element expressions --------------------------------------------------------


class _Parser:
    def __init__(self, tokens, truncation: int):
        self.tokens = tokens
        self.pos = 0
        self.truncation = truncation
        self.depth = 0  # brackets open around the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def expect_ident(self, what="identifier") -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected an integer, found {tok.text!r}", tok.line, tok.column)
        return int(tok.text)

    # element AST: ("zero",), ("gen", name, tok), ("bracket", a, b),
    #              ("scale", Fraction, node), ("sum", [nodes])
    def element(self):
        tok = self.peek()
        nodes = []
        sign = 1
        if tok.text == "-":
            self.next()
            sign = -1
        nodes.append(self.term(sign))
        while self.peek().text in ("+", "-"):
            op = self.next().text
            nodes.append(self.term(1 if op == "+" else -1))
        return ("sum", nodes) if len(nodes) > 1 else nodes[0]

    def term(self, sign: int):
        tok = self.peek()
        coeff = Fraction(sign)
        if tok.kind == "int":
            self.next()
            num = int(tok.text)
            if self.peek().text == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    raise ParseError("zero denominator", tok.line, tok.column)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            if num == 0:
                return ("zero",)
            nxt = self.peek()
            if nxt.kind != "ident" and nxt.text != "[":
                raise ParseError("a coefficient must be followed by a monomial", nxt.line, nxt.column)
        mono = self.monomial()
        return mono if coeff == 1 else ("scale", coeff, mono)

    def monomial(self):
        tok = self.peek()
        if tok.text == "[":
            # a bracket nested k deep has degree at least k + 1; refuse deeper
            # nesting before recursing into it
            if self.depth >= self.truncation:
                raise ParseError(
                    f"brackets nested deeper than the truncation degree {self.truncation}",
                    tok.line,
                    tok.column,
                )
            self.next()
            self.depth += 1
            a = self.element()
            self.expect(",")
            b = self.element()
            self.expect("]")
            self.depth -= 1
            return ("bracket", a, b)
        if tok.kind == "ident":
            self.next()
            return ("gen", tok.text, tok)
        raise ParseError(f"expected a monomial, found {tok.text or 'end of input'!r}", tok.line, tok.column)


def _eval_element(node, algebra: FreeLieAlgebra, where: _Token) -> Optional[LieElement]:
    """Evaluate an element AST; None encodes the zero element."""
    kind = node[0]
    if kind == "zero":
        return None
    if kind == "gen":
        _, name, tok = node
        try:
            return algebra.gen(name)
        except PreconditionError:
            raise ParseError(f"unknown generator {name!r}", tok.line, tok.column) from None
    if kind == "scale":
        inner = _eval_element(node[2], algebra, where)
        return None if inner is None else node[1] * inner
    if kind == "bracket":
        a = _eval_element(node[1], algebra, where)
        b = _eval_element(node[2], algebra, where)
        if a is None or b is None:
            return None
        try:
            return algebra.bracket(a, b)
        except TruncationError as exc:
            raise ParseError(str(exc), where.line, where.column) from None
    if kind == "sum":
        total = None
        for sub in node[1]:
            val = _eval_element(sub, algebra, where)
            if val is None:
                continue
            if total is None:
                total = val
            else:
                try:
                    total = total + val
                except PreconditionError:
                    raise ParseError("element is not homogeneous", where.line, where.column) from None
        return total
    raise ParseError("malformed element", where.line, where.column)


# -- blocks -------------------------------------------------------------------------


def parse_workspace(text: str, truncation: int = 12) -> Workspace:
    parser = _Parser(_tokenize(text), truncation)
    ws = Workspace(truncation=truncation)
    try:
        while parser.peek().kind != "eof":
            tok = parser.expect_ident("'model', 'map' or 'smap'")
            if tok.text == "model":
                _parse_model(parser, ws)
            elif tok.text in ("map", "smap"):
                _parse_map(parser, ws, suspension=tok.text == "smap")
            else:
                raise ParseError(
                    f"expected 'model', 'map' or 'smap', found {tok.text!r}", tok.line, tok.column
                )
    except RecursionError:
        # the depth bound follows the truncation, which may exceed the stack
        tok = parser.peek()
        raise ParseError("brackets nested too deeply to parse", tok.line, tok.column) from None
    return ws


def _parse_model(parser: _Parser, ws: Workspace):
    name_tok = parser.expect_ident("a model name")
    name = name_tok.text
    if name in ws.models:
        raise ParseError(f"duplicate model name {name!r}", name_tok.line, name_tok.column)
    parser.expect("{")
    gens = []
    seen = set()
    d_decls = []
    while parser.peek().text != "}":
        stmt = parser.expect_ident("'gen' or 'd'")
        if stmt.text == "gen":
            gtok = parser.expect_ident("a generator name")
            if gtok.text in seen:
                raise ParseError(f"duplicate generator {gtok.text!r}", gtok.line, gtok.column)
            if gtok.text in KEYWORDS:
                raise ParseError(f"{gtok.text!r} is reserved", gtok.line, gtok.column)
            seen.add(gtok.text)
            parser.expect(":")
            kw = parser.expect_ident()
            if kw.text != "deg":
                raise ParseError("expected 'deg'", kw.line, kw.column)
            degree = parser.expect_int()
            upper = None
            if parser.peek().text == "upper":
                parser.next()
                upper = parser.expect_int()
            parser.expect(";")
            if degree < 1:
                raise ParseError(f"generator {gtok.text!r} must have degree >= 1", gtok.line, gtok.column)
            if degree > ws.truncation:
                raise ParseError(
                    f"generator {gtok.text!r} exceeds the truncation degree {ws.truncation}",
                    gtok.line,
                    gtok.column,
                )
            gens.append(Generator(gtok.text, degree, upper))
        elif stmt.text == "d":
            gtok = parser.expect_ident("a generator name")
            eq = parser.expect("=")
            node = parser.element()
            parser.expect(";")
            d_decls.append((gtok, node))
        else:
            raise ParseError(f"expected 'gen' or 'd', found {stmt.text!r}", stmt.line, stmt.column)
    parser.expect("}")
    algebra = FreeLieAlgebra(gens, truncation=ws.truncation)
    diff = {}
    for gtok, node in d_decls:
        if gtok.text not in seen:
            raise ParseError(f"unknown generator {gtok.text!r}", gtok.line, gtok.column)
        if gtok.text in diff:
            raise ParseError(f"duplicate differential for {gtok.text!r}", gtok.line, gtok.column)
        value = _eval_element(node, algebra, gtok)
        g = algebra.generators[algebra.index(gtok.text)]
        if value is None:
            continue
        if value.degree != g.degree - 1:
            raise ParseError(
                f"d {gtok.text} must have degree {g.degree - 1}, got degree {value.degree}",
                gtok.line,
                gtok.column,
            )
        diff[gtok.text] = value
    ws.models[name] = DglModel(algebra, diff, name=name)


def _parse_map(parser: _Parser, ws: Workspace, suspension: bool):
    name_tok = parser.expect_ident("a map name")
    name = name_tok.text
    store = ws.smaps if suspension else ws.maps
    if name in ws.maps or name in ws.smaps:
        raise ParseError(f"duplicate map name {name!r}", name_tok.line, name_tok.column)
    parser.expect(":")
    src_tok = parser.expect_ident("a source model name")
    parser.expect("->")
    dst_tok = parser.expect_ident("a target model name")
    for tok in (src_tok, dst_tok):
        if tok.text not in ws.models:
            raise ParseError(f"unknown model {tok.text!r}", tok.line, tok.column)
    source = ws.models[src_tok.text]
    target = ws.models[dst_tok.text]
    parser.expect("{")
    values = {}
    shift = 1 if suspension else 0
    while parser.peek().text != "}":
        gtok = parser.expect_ident("a generator name")
        if gtok.text not in {g.name for g in source.generators}:
            raise ParseError(f"unknown generator {gtok.text!r}", gtok.line, gtok.column)
        if gtok.text in values:
            raise ParseError(f"duplicate value for {gtok.text!r}", gtok.line, gtok.column)
        parser.expect("->")
        node = parser.element()
        parser.expect(";")
        value = _eval_element(node, target.algebra, gtok)
        g = source.generators[source.algebra.index(gtok.text)]
        if value is None:
            value = target.algebra.zero(g.degree + shift)
        elif value.degree != g.degree + shift:
            raise ParseError(
                f"value for {gtok.text!r} must have degree {g.degree + shift}, got {value.degree}",
                gtok.line,
                gtok.column,
            )
        values[gtok.text] = value
    close = parser.expect("}")
    missing = [g.name for g in source.generators if g.name not in values]
    if missing:
        raise ParseError(
            f"map {name!r} is missing values for: {', '.join(missing)}",
            name_tok.line,
            name_tok.column,
        )
    if suspension:
        store[name] = SuspensionMap(name, source, target, values)
    else:
        store[name] = DglMorphism(source, target, values, name=name)


# -- printing ------------------------------------------------------------------------


def print_workspace(ws: Workspace) -> str:
    chunks = []
    for name, model in ws.models.items():
        lines = [f"model {name} {{"]
        for g in model.generators:
            upper = f" upper {g.upper}" if g.upper is not None else ""
            lines.append(f"  gen {g.name} : deg {g.degree}{upper};")
        for g in model.generators:
            value = model.diff.get(g.name)
            if value is not None:
                lines.append(f"  d {g.name} = {value};")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, phi in ws.maps.items():
        chunks.append(_print_map("map", name, phi.source, phi.target, phi.values))
    for name, s in ws.smaps.items():
        chunks.append(_print_map("smap", name, s.source, s.target, s.values))
    return "\n\n".join(chunks) + "\n"


def _print_map(kw, name, source, target, values) -> str:
    lines = [f"{kw} {name} : {source.name} -> {target.name} {{"]
    for g in source.generators:
        lines.append(f"  {g.name} -> {values[g.name]};")
    lines.append("}")
    return "\n".join(lines)
