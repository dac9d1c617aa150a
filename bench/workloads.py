"""Workloads of the dglcalc benchmark: seeded inputs, op streams, report checks.

Every op is one `dglcalc` command line, run in-process through
`dglcalc.cli.main`.  Nothing here imports dglcalc: the generated model files
are valid by construction (each differential is a combination of brackets of
cycles, each map is a sub-DGL inclusion), so the inputs cannot drift with the
code under test.  Each generated file has a digest in `expected.json`.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
FIXTURES = "fixtures"
WORK = ".bench_work"
INPUTS = f"{WORK}/inputs"
EMIT = f"{WORK}/emit"
EXPECTED = BENCH / "expected.json"

# Seeded coefficients are small nonzero integers, so a variant changes the
# numbers but neither the shape nor (much) the cost of its model: with
# fractional coefficients the variants' costs differed by about 10%.
COEFFS = ("1", "-1", "2", "-2", "3", "-3")
VARIANTS = 8


@dataclass(frozen=True)
class Slot:
    """A family of generated models: fixed generators and bracket words,
    seeded coefficients.  `source` names the sub-DGL that the map includes."""

    name: str
    gens: tuple  # (name, degree); generators without a differential are cycles
    diff: tuple  # (generator, ((bracket word of cycle generators), ...))
    truncation: int
    source: tuple = ()
    spheres: str = ""


# Bases of the product ops in `constructions` (N = 9).  The two spheres-2,2
# slots make the ops of about one second the largest block of a pass, so the
# median and the tail percentile fall inside one kind of op, not between two.
_P22 = ((("a", 3), ("b", 3), ("c", 7)), (("c", (("a", "a"), ("a", "b"), ("b", "b"))),))
PRODUCT_SLOTS = (
    Slot("P2", (("a", 2), ("b", 2), ("c", 5)), (("c", (("a", "b"),)),), 9, spheres="2"),
    Slot("P3", (("a", 2), ("b", 2), ("e", 2), ("c", 5)),
         (("c", (("a", "b"), ("a", "e"), ("b", "e"))),), 9, spheres="3"),
    Slot("P22a", *_P22, 9, spheres="2,2"),
    Slot("P22b", *_P22, 9, spheres="2,2"),
)

# Model/map files of `cmd-mix` (N = 8): target K, source L = a sub-DGL.
MAP_SLOTS = (
    Slot("G0", (("a", 2), ("b", 2), ("e", 3), ("c", 5)),
         (("c", (("a", "b"),)),), 8, source=("a", "b", "c")),
    Slot("G1", (("a", 3), ("b", 3), ("c", 7)),
         (("c", (("a", "a"), ("a", "b"), ("b", "b"))),), 8, source=("a", "b", "c")),
    Slot("G2", (("a", 2), ("b", 3), ("e", 4), ("c", 6)),
         (("c", (("a", "b"),)),), 8, source=("a", "b", "c")),
    Slot("G3", (("a", 2), ("b", 2), ("e", 2), ("c", 5)),
         (("c", (("a", "b"), ("a", "e"), ("b", "e"))),), 8, source=("a", "b")),
)

FIXTURE_FILES = (
    "contractible_pair.dgl",
    "cp2_to_s4.dgl",
    "homotopy_demo.dgl",
    "noncoformal.dgl",
    "one_cell_attachment.dgl",
    "s3_into_s3xs3.dgl",
    "spheres.dgl",
)
FIXTURE_MODELS = (
    ("contractible_pair.dgl", "X"), ("contractible_pair.dgl", "Y"),
    ("cp2_to_s4.dgl", "CP2"), ("cp2_to_s4.dgl", "S4"),
    ("homotopy_demo.dgl", "A"), ("homotopy_demo.dgl", "B"),
    ("noncoformal.dgl", "NC"),
    ("one_cell_attachment.dgl", "X"), ("one_cell_attachment.dgl", "Y"),
    ("s3_into_s3xs3.dgl", "S3"), ("s3_into_s3xs3.dgl", "S3xS3"),
    ("spheres.dgl", "S2"), ("spheres.dgl", "S3"),
)
FIXTURE_MAPS = (
    ("contractible_pair.dgl", "i"), ("cp2_to_s4.dgl", "f"),
    ("homotopy_demo.dgl", "start"), ("homotopy_demo.dgl", "end"),
    ("one_cell_attachment.dgl", "i"), ("s3_into_s3xs3.dgl", "j"),
)
MAP_COMMANDS = ("evsub", "center", "gvp", "grel", "gseq", "omega", "les")
# The default-window `gottlieb` runs of the issue; four of them exit 3 at the
# seed commit.  They stay in the mix unchanged and count as failures.
GOTTLIEB_DEFAULT = (
    ("cp2_to_s4.dgl", "CP2"), ("spheres.dgl", "S2"), ("spheres.dgl", "S3"),
    ("s3_into_s3xs3.dgl", "S3xS3"), ("noncoformal.dgl", "NC"),
)


# -- generated inputs -----------------------------------------------------------


def _bracket(word) -> str:
    out = word[0]
    for letter in word[1:]:
        out = f"[{out},{letter}]"
    return out


def _element(terms) -> str:
    text = ""
    for coeff, word in terms:
        negative = coeff.startswith("-")
        magnitude = coeff.lstrip("-")
        mono = ("" if magnitude == "1" else magnitude) + _bracket(word)
        if not text:
            text = ("-" if negative else "") + mono
        else:
            text += (" - " if negative else " + ") + mono
    return text


def slot_model(slot: Slot, variant: int):
    """Generators and seeded differential of one variant: (gens, {gen: terms})."""
    rng = random.Random(f"{slot.name}:{variant}")
    diff = {g: tuple((rng.choice(COEFFS), w) for w in words) for g, words in slot.diff}
    return slot.gens, diff


def _model_block(name, gens, diff) -> str:
    lines = [f"model {name} {{"]
    lines += [f"  gen {g} : deg {d};" for g, d in gens]
    lines += [f"  d {g} = {_element(terms)};" for g, terms in diff.items()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def slot_text(slot: Slot, variant: int) -> str:
    gens, diff = slot_model(slot, variant)
    header = f"# generated: slot {slot.name}, variant {variant}\n"
    if not slot.source:
        return header + _model_block("B", gens, diff)
    src = [(g, d) for g, d in gens if g in slot.source]
    src_diff = {g: t for g, t in diff.items() if g in slot.source}
    assign = "".join(f"  {g} -> {g};\n" for g, _ in src)
    return (
        header
        + _model_block("L", src, src_diff)
        + "\n"
        + _model_block("K", gens, diff)
        + f"\nmap i : L -> K {{\n{assign}}}\n"
    )


def input_path(slot: Slot, variant: int) -> str:
    return f"{INPUTS}/{slot.name}-{variant:02d}.dgl"


def emit_path(slot: Slot, variant: int) -> str:
    return f"{EMIT}/{slot.name}-{variant:02d}.dgl"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def all_inputs():
    """Every generated file of every slot and variant: {path: text}."""
    return {
        input_path(slot, v): slot_text(slot, v)
        for slot in PRODUCT_SLOTS + MAP_SLOTS
        for v in range(VARIANTS)
    }


def write_inputs(root: Path, paths) -> dict:
    """Write the generated files named in `paths`; returns {path: digest}."""
    texts = all_inputs()
    out = {}
    for p in paths:
        target = root / p
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(texts[p])
        out[p] = digest(texts[p])
    return out


def gottlieb_top(slot: Slot) -> int:
    """Largest topological degree whose Gottlieb group is computable at N.

    Der(K, K) in internal degree m needs target degrees up to max|g| + m.
    """
    return slot.truncation - max(d for _, d in slot.gens) + 1


# -- ops and workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str = "report"  # report | product | product-homology | cylinder
    slot: Optional[str] = None
    variant: Optional[int] = None
    emit: Optional[str] = None  # write the emitted model text here

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _json(*argv) -> tuple:
    return tuple(argv) + ("--format", "json")


def gseq_onecell_pass(variants: dict) -> list:
    f = f"{FIXTURES}/one_cell_attachment.dgl"
    return [Op(_json("gseq", f, "i", "--max-degree", str(n))) for n in (13, 14, 15)]


def product_ops(slot: Slot, v: int) -> list:
    emitted = emit_path(slot, v)
    return [
        Op(_json("product", input_path(slot, v), "B", "--spheres", slot.spheres,
                 "--max-degree", "9", "--emit"),
           kind="product", slot=slot.name, variant=v, emit=emitted),
        # homology of the emitted product in low degrees; checked for
        # additivity H(product) = H(wedge) + H(base)
        Op(_json("homology", emitted, "B_product", "--max-degree", "9", "--degrees", "2:6"),
           kind="product-homology", slot=slot.name, variant=v),
    ]


def constructions_pass(variants: dict) -> list:
    ops = [
        Op(_json("cylinder", f"{FIXTURES}/cp2_to_s4.dgl", "CP2", "--max-degree", "9"),
           kind="cylinder"),
        Op(_json("cylinder", f"{FIXTURES}/spheres.dgl", "S2", "--max-degree", "9"),
           kind="cylinder"),
    ]
    for slot in PRODUCT_SLOTS:
        ops += product_ops(slot, variants[slot.name])
    return ops


def fixture_ops() -> list:
    fx = FIXTURES
    ops = [Op(_json("validate", f"{fx}/{f}")) for f in FIXTURE_FILES]
    ops += [Op(_json("homology", f"{fx}/{f}", m)) for f, m in FIXTURE_MODELS]
    ops += [Op(_json("gottlieb", f"{fx}/{f}", m)) for f, m in GOTTLIEB_DEFAULT]
    ops += [Op(_json(c, f"{fx}/{f}", m)) for f, m in FIXTURE_MAPS for c in MAP_COMMANDS]
    # the paper's headline values, checked by make_expected.py
    pinch = f"{fx}/cp2_to_s4.dgl"
    ops += [Op(_json(c, pinch, "f", "--top-degree", "4", "--max-degree", "10"))
            for c in ("evsub", "center", "gvp")]
    ops += [Op(_json("omega", f"{fx}/{f}", "i", "--top-degree", "3"))
            for f in ("one_cell_attachment.dgl", "contractible_pair.dgl")]
    ops += [
        Op(_json("product", f"{fx}/cp2_to_s4.dgl", "S4", "--spheres", "2")),
        Op(_json("product", f"{fx}/s3_into_s3xs3.dgl", "S3", "--spheres", "2", "--emit")),
        Op(_json("product", f"{fx}/contractible_pair.dgl", "X", "--spheres", "3")),
        Op(_json("verify-homotopy", f"{fx}/homotopy_demo.dgl",
                 "--start", "start", "--end", "end", "--svalues", "h")),
    ]
    return ops


def generated_map_ops(slot: Slot, v: int) -> list:
    f = input_path(slot, v)
    n = ("--max-degree", str(slot.truncation))
    ops = [Op(_json("validate", f, *n))]
    ops += [Op(_json("homology", f, m, *n)) for m in ("L", "K")]
    ops.append(Op(_json("gottlieb", f, "K", "--degrees", f"2:{gottlieb_top(slot)}", *n)))
    ops += [Op(_json(c, f, "i", *n)) for c in MAP_COMMANDS]
    return ops


def cmd_mix_pass(variants: dict) -> list:
    ops = fixture_ops()
    for slot in MAP_SLOTS:
        ops += generated_map_ops(slot, variants[slot.name])
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # {slot name: variant} -> the ops of one pass
    slots: tuple  # generated-input slots whose variant the seed picks
    shuffle: bool  # a new seeded op order in every pass
    # Latency percentiles are read at a fixed percentile per workload, the
    # highest with ten samples beyond it in `min_passes` passes, and every run
    # makes at least that many passes.  A faster commit therefore runs more
    # passes but is read at the same percentile as its parent.
    min_passes: int
    setup_repeats: int
    setup_inputs: tuple  # (file, max-degree) pairs fixed for every seed

    def variants(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {slot.name: rng.randrange(VARIANTS) for slot in self.slots}

    def input_files(self, seed: int) -> list:
        chosen = self.variants(seed)
        return [input_path(s, chosen[s.name]) for s in self.slots]

    def setup_list(self, seed: int) -> list:
        chosen = self.variants(seed)
        gen = [(input_path(s, chosen[s.name]), s.truncation) for s in self.slots]
        return list(self.setup_inputs) + gen

    def pass_ops(self, seed: int, index: int) -> list:
        ops = self.build(self.variants(seed))
        if self.shuffle:
            random.Random(seed * 1_000_003 + index).shuffle(ops)
        return ops

    def all_ops(self) -> list:
        """Every distinct op that any seed can run."""
        ops = {}
        for v in range(VARIANTS):
            for op in self.build({s.name: v for s in self.slots}):
                ops.setdefault(op.key, op)
        return list(ops.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gseq-onecell", gseq_onecell_pass, (), False, min_passes=6, setup_repeats=3,
            setup_inputs=tuple((f"{FIXTURES}/one_cell_attachment.dgl", n) for n in (13, 14, 15)),
        ),
        Workload(
            "constructions", constructions_pass, PRODUCT_SLOTS, False,
            min_passes=3, setup_repeats=9,
            setup_inputs=((f"{FIXTURES}/cp2_to_s4.dgl", 9), (f"{FIXTURES}/spheres.dgl", 9)),
        ),
        Workload(
            "cmd-mix", cmd_mix_pass, MAP_SLOTS, True, min_passes=2, setup_repeats=9,
            setup_inputs=tuple((f"{FIXTURES}/{f}", 12) for f in FIXTURE_FILES)
            + ((f"{FIXTURES}/cp2_to_s4.dgl", 10),),
        ),
    )
}


# -- report checks -----------------------------------------------------------------

# Strings that ROADMAP item 3 (a new free-Lie basis) changes on purpose; they
# are digested, never compared.
_STRING_KEYS = ("representatives", "problems", "model_text", "mismatches")


def split_report(report: dict):
    """(invariant view, digest of the representative strings) of a JSON report."""
    strings = []

    def walk(obj):
        if isinstance(obj, dict):
            out = {}
            for k, v in obj.items():
                if k == "inputs":
                    continue
                if k in _STRING_KEYS:
                    strings.append(v)
                    if k == "mismatches":
                        out[k] = [m["generator"] for m in v]
                    elif k != "model_text":
                        out[k] = len(v)
                    continue
                out[k] = walk(v)
            return out
        if isinstance(obj, list):
            rows = [walk(v) for v in obj]
            if rows and all(isinstance(r, dict) and r.keys() == rows[0].keys() for r in rows):
                columns = sorted(rows[0])  # a table: one row per degree entry
                return {"columns": columns, "rows": [[r[c] for c in columns] for r in rows]}
            return rows
        return obj

    view = walk(report)
    return view, digest(json.dumps(strings, sort_keys=True))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())
