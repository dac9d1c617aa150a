"""Seeded random models, morphisms and elements for property tests.

Differentials are built degree by degree: the value on a generator is drawn
from the space of decomposable cycles one degree down, which forces d^2 = 0
by construction.  Morphisms are built the same way, solving the chain
condition degree by degree and falling back to smaller values when a solve
has no solution.
"""
from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

from dglcalc import DglModel, DglMorphism, FreeLieAlgebra, Generator, LieElement
from dglcalc.complexes import DglComplex
from dglcalc.constructions import _exp_apply
from dglcalc import linalg
from dglcalc.modelfile import Workspace, parse_workspace

from .oracles import solve_columns

NAMES = "abcdefgh"

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the attributes of an EvaluationContext that hold its complexes and cones
CONTEXT_COMPLEXES = (
    "cL", "cK", "der_LL", "der_LK", "rel", "rel_star", "rel_ad_L", "rel_ad", "rel_ad_pair"
)

# (file, map name) of every morphism in the fixtures
FIXTURE_MAPS = (
    ("contractible_pair.dgl", "i"),
    ("cp2_to_s4.dgl", "f"),
    ("homotopy_demo.dgl", "start"),
    ("homotopy_demo.dgl", "end"),
    ("one_cell_attachment.dgl", "i"),
    ("s3_into_s3xs3.dgl", "j"),
)


def _bench_workloads():
    """The benchmark's workload module, which imports nothing from dglcalc."""
    name = "_bench_workloads"
    if name not in sys.modules:
        path = FIXTURES.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def in_order(vectors) -> list:
    """Vectors as their (index, type name, value) items in dict order: an int
    differs from an equal Fraction, and so does a reordered dict."""
    return [[(k, type(v).__name__, v) for k, v in vec.items()] for vec in vectors]


def cmd_mix_map_ids() -> list:
    """`slot-variant` of every map file that the benchmark's cmd-mix generates."""
    wl = _bench_workloads()
    return [f"{slot.name}-{v}" for slot in wl.MAP_SLOTS for v in range(wl.VARIANTS)]


def cmd_mix_map_text(case) -> tuple:
    """(text, truncation) of a cmd-mix generated map file."""
    wl = _bench_workloads()
    name, variant = case.split("-")
    slot = next(s for s in wl.MAP_SLOTS if s.name == name)
    return wl.slot_text(slot, int(variant)), slot.truncation


def cmd_mix_map(case):
    """The map `i` of a cmd-mix generated file, at the file's truncation."""
    text, truncation = cmd_mix_map_text(case)
    return parse_workspace(text, truncation=truncation).map("i")


def column_builds(monkeypatch) -> list:
    """Records (complex, degree, label index) of every differential column
    that a package complex builds through its `d_column`, from now on."""
    from dglcalc.derivations import DerComplex
    from dglcalc.relative import RelComplex

    built = []
    for cls in (DglComplex, DerComplex, RelComplex):
        def counted(cplx, n, i, _build=cls.d_column):
            built.append((cplx, n, i))
            return _build(cplx, n, i)

        monkeypatch.setattr(cls, "d_column", counted)
    return built


def basis_element(alg, word):
    """The basis element of `alg` that a basis word names; builds the basis of
    its degree and raises PreconditionError for any other word."""
    degree = alg.word_degree(word)
    alg.words(degree)
    if len(word) > 1:
        alg.split(word)  # only basis words have a standard factorisation
    return LieElement(alg, degree, {word: 1})


def fixture_map(path, name, truncation=10):
    return parse_workspace((FIXTURES / path).read_text(), truncation=truncation).map(name)


def homology_dims(cplx, degrees) -> dict:
    """{n: dim H_n} of a package complex over the given degrees."""
    return {n: cplx.homology(n).dim for n in degrees}


def homology_reps(cplx, n) -> list:
    """The representative cycles of H_n of a package complex, as domain objects."""
    return [cplx.from_vector(n, row) for row in cplx.homology(n).rep_rows]


def random_degrees(rng, max_gens=3, min_degree=2, max_degree=4, degree_one_budget=0):
    n = rng.randint(1, max_gens)
    out = []
    ones = 0
    for _ in range(n):
        d = rng.randint(min_degree - (1 if ones < degree_one_budget else 0), max_degree)
        if d < min_degree:
            ones += 1
        out.append(max(d, 1))
    out.sort()
    return out


def random_cycle_vector(rng, model, degree, decomposable=False):
    """A random small-integer cycle of the model in the given degree."""
    if degree < 1 or degree > model.truncation:
        return model.algebra.zero(degree)
    cx = DglComplex(model)
    words = cx.labels(degree)
    if not words:
        return model.algebra.zero(degree)
    cols = cx.d_columns(degree)
    if decomposable:
        idx = [i for i, w in enumerate(words) if len(w) >= 2]
    else:
        idx = list(range(len(words)))
    kernel = linalg.rref([cols[i] for i in idx]).kernel
    out = model.algebra.zero(degree)
    for vec in kernel:
        c = rng.choice([-2, -1, 0, 0, 1, 1, 2])
        if c:
            lifted = {idx[i]: v for i, v in vec.items()}
            out = out + c * cx.from_vector(degree, lifted)
    return out


def random_model(seed, max_gens=3, truncation=8, min_degree=2, max_degree=4,
                 degree_one_budget=1, minimal=True):
    """A random model with d^2 = 0; minimal (decomposable d) unless told otherwise.

    With degrees of at least 2 up to 4 no decomposable cycle exists one degree
    below a generator, so by default one generator may have degree 1.
    """
    rng = random.Random(seed)
    degrees = random_degrees(rng, max_gens, min_degree, max_degree, degree_one_budget)
    gens = [(NAMES[i], d) for i, d in enumerate(degrees)]
    alg = FreeLieAlgebra(gens, truncation=truncation)
    diff = {}
    for name, d in gens:
        partial = DglModel(alg, diff)
        value = random_cycle_vector(rng, partial, d - 1, decomposable=minimal)
        if not value.is_zero():
            diff[name] = value
    return DglModel(alg, diff)


def random_upper_grading(seed, model, broken=0.1):
    """The model with a seeded upper grading on its generators.

    A generator with d = 0 gets upper degree 0, 1 or 2.  Any other gets one
    more than the upper degree of its differential when that is homogeneous,
    so that d lowers the upper degree by one.  With probability `broken`, or
    when the differential is not homogeneous, a generator gets a random upper
    degree instead, which usually breaks the bigrading.
    """
    rng = random.Random(seed)
    uppers = []
    for g in model.generators:  # sorted by degree, so d(g) has graded letters
        ups = {sum(uppers[i] for i in w) for w in model.diff_of(g.name).terms}
        if len(ups) > 1 or rng.random() < broken:
            uppers.append(rng.randint(0, 3))
        else:
            uppers.append(ups.pop() + 1 if ups else rng.randint(0, 2))
    gens = [(g.name, g.degree, u) for g, u in zip(model.generators, uppers)]
    alg = FreeLieAlgebra(gens, truncation=model.truncation)
    for v in model.diff.values():
        basis_element(alg, next(iter(v.terms)))  # builds the basis words of v's degree
    return DglModel(alg, {g: LieElement(alg, v.degree, v.terms) for g, v in model.diff.items()})


def extend_to_supermodel(seed, base, extra=1, max_degree=5):
    """A model containing the base's generators plus a few new ones."""
    rng = random.Random(seed)
    gens = [(g.name, g.degree) for g in base.generators]
    used = {g.name for g in base.generators}
    pool = [c for c in "uvwpqr" if c not in used]
    for i in range(extra):
        gens.append((pool[i], rng.randint(2, max_degree)))
    gens.sort(key=lambda t: t[1])
    alg = FreeLieAlgebra(gens, truncation=base.truncation)
    values = {g.name: alg.gen(g.name) for g in base.generators}
    bare = DglMorphism(base, DglModel(alg), values, check=False)
    diff = {}
    for name, d in gens:
        if name in used:
            value = bare.apply(base.diff_of(name))
            if not value.is_zero():
                diff[name] = value
            continue
        partial = DglModel(alg, diff)
        value = random_cycle_vector(rng, partial, d - 1, decomposable=True)
        if not value.is_zero():
            diff[name] = value
    model = DglModel(alg, diff)
    incl = DglMorphism(base, model, values, name="incl")
    return model, incl


def random_morphism(seed, src, dst):
    """A random chain map src -> dst, or None when the solves obstruct it."""
    rng = random.Random(seed)
    values = {}
    cx = DglComplex(dst)
    for g in sorted(src.generators, key=lambda g: g.degree):
        partial = DglMorphism(src, dst, {**values, **{
            h.name: dst.algebra.zero(h.degree)
            for h in src.generators if h.name not in values
        }}, check=False)
        rhs = partial.apply(src.diff_of(g.name))
        if g.degree > dst.truncation:
            return None
        target = cx.to_vector(g.degree - 1, rhs) if not rhs.is_zero() else {}
        sol = solve_columns(cx.d_columns(g.degree), target)
        if sol is None:
            return None
        value = cx.from_vector(g.degree, sol)
        value = value + random_cycle_vector(rng, dst, g.degree)
        values[g.name] = value
    return DglMorphism(src, dst, values)


def random_validated_morphism(seed, max_gens=3, truncation=8):
    """Draws from several shapes: endomorphism, inclusion, zero, general."""
    rng = random.Random(seed)
    kind = rng.choice(["endo", "inclusion", "zero", "general", "general"])
    src = random_model(rng.randint(0, 10**6), max_gens=max_gens, truncation=truncation)
    if kind == "inclusion":
        _, incl = extend_to_supermodel(rng.randint(0, 10**6), src, extra=rng.randint(1, 2))
        return incl
    if kind == "endo":
        dst = src
    elif kind == "zero":
        from dglcalc import zero_morphism

        dst = random_model(rng.randint(0, 10**6), max_gens=max_gens, truncation=truncation)
        return zero_morphism(src, dst)
    else:
        dst = random_model(rng.randint(0, 10**6), max_gens=max_gens, truncation=truncation)
    phi = random_morphism(rng.randint(0, 10**6), src, dst)
    if phi is None:
        from dglcalc import zero_morphism

        return zero_morphism(src, dst)
    return phi


def presentation(seed, M, pairs=1, twist=False):
    """(M', to, back): an isomorphic presentation M' of the model M with
    contractible pairs, to: M -> M' and back: M' -> M, with back o to = id.

    M' is M + L(u, v; d u = v) for each pair, in seeded degrees and at seeded
    places in the generator order.  With twist, a seeded unitriangular change
    of generators g -> g + x_g follows, x_g a combination of brackets and of
    the generators of g's degree before g; its inverse is read off by
    recursion in that order, and d becomes phi d phi^{-1}.  `to` is the
    inclusion followed by phi, `back` is phi^{-1} followed by the projection
    that kills the pairs; the constructor checks that both are chain maps.
    Upper degrees are dropped: the pairs carry none."""
    rng = random.Random(seed)
    gens = [Generator(g.name, g.degree) for g in M.generators]
    used = {g.name for g in gens}

    def fresh(name):
        while name in used:
            name += "'"
        used.add(name)
        return name

    couples = []
    for k in range(pairs):
        n = rng.randint(1, M.truncation - 1)
        couples.append((fresh(f"u{k}"), fresh(f"v{k}")))
        for name, d in zip(couples[-1], (n + 1, n)):
            gens.insert(rng.randint(0, len(gens)), Generator(name, d))
    alg = FreeLieAlgebra(gens, M.truncation)
    incl = DglMorphism(M, DglModel(alg), {g.name: alg.gen(g.name) for g in M.generators}, check=False)
    diff = {g: incl.apply(v) for g, v in M.diff.items()}
    diff.update((u, alg.gen(v)) for u, v in couples)
    plain = DglModel(alg, diff)
    images = {g.name: alg.gen(g.name) for g in gens}
    inverse = dict(images)
    if twist:
        inv = DglMorphism(plain, plain, inverse, check=False)
        order = sorted(range(len(gens)), key=lambda i: gens[i].degree)
        for k, i in enumerate(order):
            g = gens[i]
            terms = {(j,): rng.choice((-1, 1, 2)) for j in order[:k]
                     if gens[j].degree == g.degree and rng.random() < 0.5}
            terms.update((w, rng.choice((-2, -1, 1, 2))) for w in alg.words(g.degree)
                         if len(w) > 1 and rng.random() < 0.3)
            x = LieElement(alg, g.degree, terms)
            images[g.name] = images[g.name] + x
            inv.values[g.name] = alg.gen(g.name) - inv.apply(x)  # x reads earlier letters only
        phi = DglMorphism(plain, plain, images, check=False)
        target = DglModel(alg, {g.name: phi.apply(plain.d(inv.values[g.name])) for g in gens})
        phi, inverse = DglMorphism(plain, target, phi.values), inv.values
    else:
        target, phi = plain, DglMorphism.identity(plain)
    to = DglMorphism(M, target, {g.name: phi.apply(incl.apply(M.algebra.gen(g.name))) for g in M.generators})
    killed = {name for couple in couples for name in couple}
    proj = DglMorphism(plain, M, {g.name: M.algebra.zero(g.degree) if g.name in killed
                                  else M.algebra.gen(g.name) for g in gens})
    back = DglMorphism(target, M, {g.name: proj.apply(inverse[g.name]) for g in gens})
    return target, to, back


def with_contractible_pairs(seed, psi, pairs=1, twist=False):
    """psi followed by `to` of a presentation of its target K with
    contractible pairs (`presentation`)."""
    target, to, _ = presentation(seed, psi.target, pairs, twist)
    return DglMorphism(psi.source, target, {g: to.apply(v) for g, v in psi.values.items()})


def with_source_pairs(seed, psi, pairs=1, twist=False):
    """psi o back: psi read on a presentation of its source L with
    contractible pairs (`presentation`), a quasi-isomorphic source."""
    source, _, back = presentation(seed, psi.source, pairs, twist)
    return DglMorphism(source, psi.target, {g: psi.apply(v) for g, v in back.values.items()})


# the map commands whose reports are homotopy invariants of the map, and
# `gottlieb`, which `map_reports` runs on the map's target
INVARIANT_COMMANDS = ("gseq", "omega", "les", "evsub", "center", "grel", "gvp", "gottlieb")


def map_reports(psi, commands=("gseq", "omega", "les"), reduced=True) -> dict:
    """{command: JSON text of its report on psi}, as `dglcalc --format json`
    prints it at psi's truncation; `gottlieb` reports on psi's target.  With
    reduced=False the command runs on psi itself rather than on its target's
    minimal quotient."""
    from dglcalc import cli

    ws = Workspace(truncation=psi.target.truncation, models={"K": psi.target}, maps={"i": psi})
    original = cli.on_minimal_target
    if not reduced:
        cli.on_minimal_target = lambda phi: phi
    try:
        out = {}
        for cmd in commands:
            name = "K" if cmd == "gottlieb" else "i"
            args = cli.build_parser().parse_args([cmd, "map.dgl", name, "--max-degree", str(ws.truncation)])
            report, _ = cli.COMMANDS[cmd](ws, args)
            out[cmd] = json.dumps(report, indent=2, default=str)
        return out
    finally:
        cli.on_minimal_target = original


def invariant_differences(got: dict, want: dict, common=()) -> list:
    """The commands of `got` whose reports differ from those in `want`, once
    `inputs` and every `representatives` entry (classes written in one
    presentation's words; gvp prints its witnesses there) are dropped.

    A command in `common` may report a narrower window on one side: a
    generator above the top one narrows the derivations' window.  It is
    compared on the entries both sides hold, which must agree in every field
    unless exactly one of them is trusted; the untrusted one must then be the
    last degree of the narrower window, which truncation leaves untrusted."""
    out = []
    for cmd in got:
        views = [json.loads(reports[cmd]) for reports in (got, want)]
        for v in views:
            del v["inputs"]
            for entry in v["degrees"]:
                entry.pop("representatives", None)
                entry.pop("witness", None)
        if cmd not in common:
            if views[0] != views[1]:
                out.append(cmd)
            continue
        entries = [{(e["internal"], e.get("position")): e for e in v.pop("degrees")} for v in views]
        windows = [{n for n, _ in side} for side in entries]
        edge = [max(w, default=None) if len(w) < len(o) else None for w, o in zip(windows, windows[::-1])]
        for key in entries[0].keys() & entries[1].keys():
            a, b = entries[0][key], entries[1][key]
            if a["trusted"] == b["trusted"]:
                agree = a == b
            else:
                agree = key[0] == edge[0 if b["trusted"] else 1]
            if not agree:
                out.append(cmd)
                break
        else:
            if views[0] != views[1]:  # the fields outside the entries, as les's all_exact
                out.append(cmd)
    return out


def exp_automorphism(cyl, element, inverse=False):
    """exp of the cylinder's conjugation derivation, or of its negative, on an element."""
    theta = cyl.conjugation if not inverse else -1 * cyl.conjugation
    return _exp_apply(theta, element, cyl.exp_cap)
