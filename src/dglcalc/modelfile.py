"""Text format for models, maps and homotopy data, with a printer.

Grammar (whitespace-insensitive, ';'-terminated statements):

    model NAME { gen NAME : deg INT [upper INT] ; ...  d NAME = ELEMENT ; ... }
    map  NAME : SRC -> DST { NAME -> ELEMENT ; ... }
    smap NAME : SRC -> DST { NAME -> ELEMENT ; ... }

    element  := ['-'] term { ('+'|'-') term }
    term     := '0' | [rational] monomial
    rational := INT [ '/' INT ]
    monomial := generator-name | '[' element ',' element ']'

Every gen line of a model comes before its d lines, so each element is parsed
straight into the model's free Lie algebra.  Omitted d-lines mean the
differential vanishes on that generator; omitted map lines are an error.  An smap block assigns degree-raising values (|g| + 1)
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

        def key(ws):
            stores = [
                {k: (m.source.name, m.target.name, {g: v.terms for g, v in m.values.items()}) for k, m in store.items()}
                for store in (ws.maps, ws.smaps)
            ]
            return ws.truncation, ws.models, stores

        return key(self) == key(other)


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

    # Elements are evaluated as they are parsed; None stands for zero.  Value
    # errors other than an unknown generator are reported at `where`, the
    # generator token of the statement.
    def element(self, algebra: FreeLieAlgebra, where: _Token) -> Optional[LieElement]:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        total = self.term(sign, algebra, where)
        while self.peek().text in ("+", "-"):
            value = self.term(1 if self.next().text == "+" else -1, algebra, where)
            if value is None:
                continue
            if total is None:
                total = value
            else:
                try:
                    total = total + value
                except PreconditionError:
                    raise ParseError("element is not homogeneous", where.line, where.column) from None
        return total

    def term(self, sign: int, algebra: FreeLieAlgebra, where: _Token) -> Optional[LieElement]:
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
                return None
            nxt = self.peek()
            if nxt.kind != "ident" and nxt.text != "[":
                raise ParseError("a coefficient must be followed by a monomial", nxt.line, nxt.column)
        mono = self.monomial(algebra, where)
        return mono if mono is None or coeff == 1 else coeff * mono

    def monomial(self, algebra: FreeLieAlgebra, where: _Token) -> Optional[LieElement]:
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
            a = self.element(algebra, where)
            self.expect(",")
            b = self.element(algebra, where)
            self.expect("]")
            self.depth -= 1
            if a is None or b is None:
                return None
            try:
                return algebra.bracket(a, b)
            except TruncationError as exc:
                raise ParseError(str(exc), where.line, where.column) from None
        if tok.kind == "ident":
            self.next()
            try:
                return algebra.gen(tok.text)
            except PreconditionError:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.column) from None
        raise ParseError(f"expected a monomial, found {tok.text or 'end of input'!r}", tok.line, tok.column)


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
    while parser.peek().text == "gen":
        parser.next()
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
    algebra = FreeLieAlgebra(gens, truncation=ws.truncation)
    diff, targets = {}, set()  # targets: every d line's generator, zero values too
    while parser.peek().text != "}":
        stmt = parser.expect_ident("'gen' or 'd'")
        if stmt.text == "gen":
            raise ParseError("'gen' after a 'd' line; declare every generator first", stmt.line, stmt.column)
        if stmt.text != "d":
            raise ParseError(f"expected 'gen' or 'd', found {stmt.text!r}", stmt.line, stmt.column)
        gtok = parser.expect_ident("a generator name")
        parser.expect("=")
        if gtok.text not in seen:
            raise ParseError(f"unknown generator {gtok.text!r}", gtok.line, gtok.column)
        if gtok.text in targets:
            raise ParseError(f"duplicate differential for {gtok.text!r}", gtok.line, gtok.column)
        targets.add(gtok.text)
        value = parser.element(algebra, gtok)
        parser.expect(";")
        if value is None:
            continue
        g = gens[algebra.index(gtok.text)]
        if value.degree != g.degree - 1:
            raise ParseError(
                f"d {gtok.text} must have degree {g.degree - 1}, got degree {value.degree}",
                gtok.line,
                gtok.column,
            )
        diff[gtok.text] = value
    parser.expect("}")
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
        try:
            g = source.generators[source.algebra.index(gtok.text)]
        except PreconditionError:
            raise ParseError(f"unknown generator {gtok.text!r}", gtok.line, gtok.column) from None
        if gtok.text in values:
            raise ParseError(f"duplicate value for {gtok.text!r}", gtok.line, gtok.column)
        parser.expect("->")
        value = parser.element(target.algebra, gtok)
        parser.expect(";")
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
