"""Text format for models, maps and homotopy data, with a printer.

Grammar (whitespace-insensitive, ';'-terminated statements):

    model NAME { gen NAME : deg INT [upper INT] ; ...  d NAME = ELEMENT ; ... }
    map  NAME : SRC -> DST { NAME -> ELEMENT ; ... }
    smap NAME : SRC -> DST { NAME -> ELEMENT ; ... }

    element  := ['-'] term { ('+'|'-') term }
    term     := '0' | [rational] monomial
    rational := INT [ '/' INT ]
    monomial := generator-name | '[' element ',' element ']'

A term with a zero coefficient is zero; a monomial after it is still parsed,
so its generators and nesting are checked.

The scanner keeps each token's offset into the text; the line and column of a
`ParseError` are counted from that offset only when the error is raised.
Every gen line of a model comes before its d lines, so each element is parsed
straight into the model's free Lie algebra.  Omitted d-lines mean the
differential vanishes on that generator; omitted map lines are an error.  An smap block assigns degree-raising values (|g| + 1)
used as suspension data by homotopy verification; it is not a DGL map.
Pretty-printing a workspace and re-parsing yields an identical workspace.
"""
from __future__ import annotations

import re
from collections import namedtuple
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
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

KEYWORDS = {"model", "map", "smap", "gen", "deg", "upper", "d"}


def _tokenize(text: str) -> list:
    """The tokens of a text as (kind, text, offset) triples, kind one of
    "int", "ident", "punct" and "arrow", then ("eof", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_position(text, m.start()))
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _position(text: str, offset: int) -> tuple:
    """(line, column) of an offset into a text, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# Degree-raising generator assignment used as homotopy data.
SuspensionMap = namedtuple("SuspensionMap", "name source target values")


class Workspace:
    __slots__ = ("truncation", "models", "maps", "smaps")

    def __init__(self, truncation: int, models: dict = None, maps: dict = None, smaps: dict = None):
        self.truncation = truncation
        self.models = {} if models is None else models
        self.maps = {} if maps is None else maps
        self.smaps = {} if smaps is None else smaps

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
    """Reads tokens of a text; `error` places a message at a token."""

    def __init__(self, text: str, truncation: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.truncation = truncation
        self.depth = 0  # brackets open around the current position

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def expect_ident(self, what="identifier") -> tuple:
        tok = self.next()
        if tok[0] != "ident":
            raise self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            raise self.error(f"expected an integer, found {tok[1]!r}", tok)
        return int(tok[1])

    # Elements are evaluated as they are parsed; None stands for zero.  Value
    # errors other than an unknown generator are reported at `where`, the
    # generator token of the statement.
    def element(self, algebra: FreeLieAlgebra, where: tuple) -> Optional[LieElement]:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        total = self.term(sign, algebra, where)
        while self.peek()[1] in ("+", "-"):
            value = self.term(1 if self.next()[1] == "+" else -1, algebra, where)
            if value is None:
                continue
            if total is None:
                total = value
            else:
                try:
                    total = total + value
                except PreconditionError:
                    raise self.error("element is not homogeneous", where) from None
        return total

    def term(self, sign: int, algebra: FreeLieAlgebra, where: tuple) -> Optional[LieElement]:
        tok = self.peek()
        coeff = sign
        if tok[0] == "int":
            self.next()
            num = int(tok[1])
            if self.peek()[1] == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    raise self.error("zero denominator", tok)
                coeff = Fraction(sign * num, den)
            else:
                coeff = sign * num
            nxt = self.peek()
            if num == 0:
                # a zero term; a monomial after it is still read and checked
                if nxt[0] == "ident" or nxt[1] == "[":
                    self.monomial(algebra, where)
                return None
            if nxt[0] != "ident" and nxt[1] != "[":
                raise self.error("a coefficient must be followed by a monomial", nxt)
        mono = self.monomial(algebra, where)
        return mono if mono is None or coeff == 1 else coeff * mono

    def monomial(self, algebra: FreeLieAlgebra, where: tuple) -> Optional[LieElement]:
        tok = self.peek()
        if tok[1] == "[":
            # a bracket nested k deep has degree at least k + 1; refuse deeper
            # nesting before recursing into it
            if self.depth >= self.truncation:
                raise self.error(f"brackets nested deeper than the truncation degree {self.truncation}", tok)
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
                raise self.error(str(exc), where) from None
        if tok[0] == "ident":
            self.next()
            try:
                return algebra.gen(tok[1])
            except PreconditionError:
                raise self.error(f"unknown generator {tok[1]!r}", tok) from None
        raise self.error(f"expected a monomial, found {tok[1] or 'end of input'!r}", tok)


# -- blocks -------------------------------------------------------------------------


def parse_workspace(text: str, truncation: int = 12) -> Workspace:
    parser = _Parser(text, truncation)
    ws = Workspace(truncation=truncation)
    try:
        while parser.peek()[0] != "eof":
            tok = parser.expect_ident("'model', 'map' or 'smap'")
            if tok[1] == "model":
                _parse_model(parser, ws)
            elif tok[1] in ("map", "smap"):
                _parse_map(parser, ws, suspension=tok[1] == "smap")
            else:
                raise parser.error(f"expected 'model', 'map' or 'smap', found {tok[1]!r}", tok)
    except RecursionError:
        # the depth bound follows the truncation, which may exceed the stack
        raise parser.error("brackets nested too deeply to parse", parser.peek()) from None
    return ws


def _parse_model(parser: _Parser, ws: Workspace):
    name_tok = parser.expect_ident("a model name")
    name = name_tok[1]
    if name in ws.models:
        raise parser.error(f"duplicate model name {name!r}", name_tok)
    parser.expect("{")
    gens = []
    seen = set()
    while parser.peek()[1] == "gen":
        parser.next()
        gtok = parser.expect_ident("a generator name")
        gname = gtok[1]
        if gname in seen:
            raise parser.error(f"duplicate generator {gname!r}", gtok)
        if gname in KEYWORDS:
            raise parser.error(f"{gname!r} is reserved", gtok)
        seen.add(gname)
        parser.expect(":")
        kw = parser.expect_ident()
        if kw[1] != "deg":
            raise parser.error("expected 'deg'", kw)
        degree = parser.expect_int()
        upper = None
        if parser.peek()[1] == "upper":
            parser.next()
            upper = parser.expect_int()
        parser.expect(";")
        if degree < 1:
            raise parser.error(f"generator {gname!r} must have degree >= 1", gtok)
        if degree > ws.truncation:
            raise parser.error(f"generator {gname!r} exceeds the truncation degree {ws.truncation}", gtok)
        gens.append(Generator(gname, degree, upper))
    algebra = FreeLieAlgebra(gens, truncation=ws.truncation)
    diff, targets = {}, set()  # targets: every d line's generator, zero values too
    while parser.peek()[1] != "}":
        stmt = parser.expect_ident("'gen' or 'd'")
        if stmt[1] == "gen":
            raise parser.error("'gen' after a 'd' line; declare every generator first", stmt)
        if stmt[1] != "d":
            raise parser.error(f"expected 'gen' or 'd', found {stmt[1]!r}", stmt)
        gtok = parser.expect_ident("a generator name")
        gname = gtok[1]
        parser.expect("=")
        if gname not in seen:
            raise parser.error(f"unknown generator {gname!r}", gtok)
        if gname in targets:
            raise parser.error(f"duplicate differential for {gname!r}", gtok)
        targets.add(gname)
        value = parser.element(algebra, gtok)
        parser.expect(";")
        if value is None:
            continue
        g = gens[algebra.index(gname)]
        if value.degree != g.degree - 1:
            raise parser.error(f"d {gname} must have degree {g.degree - 1}, got degree {value.degree}", gtok)
        diff[gname] = value
    parser.expect("}")
    ws.models[name] = DglModel(algebra, diff, name=name)


def _parse_map(parser: _Parser, ws: Workspace, suspension: bool):
    name_tok = parser.expect_ident("a map name")
    name = name_tok[1]
    store = ws.smaps if suspension else ws.maps
    if name in ws.maps or name in ws.smaps:
        raise parser.error(f"duplicate map name {name!r}", name_tok)
    parser.expect(":")
    src_tok = parser.expect_ident("a source model name")
    parser.expect("->")
    dst_tok = parser.expect_ident("a target model name")
    for tok in (src_tok, dst_tok):
        if tok[1] not in ws.models:
            raise parser.error(f"unknown model {tok[1]!r}", tok)
    source = ws.models[src_tok[1]]
    target = ws.models[dst_tok[1]]
    parser.expect("{")
    values = {}
    shift = 1 if suspension else 0
    while parser.peek()[1] != "}":
        gtok = parser.expect_ident("a generator name")
        gname = gtok[1]
        try:
            g = source.generators[source.algebra.index(gname)]
        except PreconditionError:
            raise parser.error(f"unknown generator {gname!r}", gtok) from None
        if gname in values:
            raise parser.error(f"duplicate value for {gname!r}", gtok)
        parser.expect("->")
        value = parser.element(target.algebra, gtok)
        parser.expect(";")
        if value is None:
            value = target.algebra.zero(g.degree + shift)
        elif value.degree != g.degree + shift:
            raise parser.error(
                f"value for {gname!r} must have degree {g.degree + shift}, got {value.degree}", gtok
            )
        values[gname] = value
    parser.expect("}")
    missing = [g.name for g in source.generators if g.name not in values]
    if missing:
        raise parser.error(f"map {name!r} is missing values for: {', '.join(missing)}", name_tok)
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
