"""Command-line interface: parse model files, dispatch computations, report.

Subgroup commands take topological degrees by default (internal degree =
topological - 1) and echo both in their reports; --internal-degrees switches
the inputs to internal degrees and suppresses the topological field.  Reports
are deterministic: same input, byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 precondition
or truncation failure, 4 internal error (a failed consistency check, or the
stack or memory running out), reported on one line with no traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import DglComplex
from .constructions import cylinder, product_model, verify_homotopy
from .derivations import DerComplex, GenDerivation
from .errors import ParseError, PreconditionError, TruncationError, ValidationError
from .model import DglMorphism, on_minimal_target
from .modelfile import Workspace, parse_workspace, print_workspace
from .subgroups import EvaluationContext, gottlieb

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _rep_str(rep) -> str:
    if isinstance(rep, tuple):
        return "(" + ", ".join(_rep_str(r) for r in rep) + ")"
    if isinstance(rep, GenDerivation):
        parts = [f"{g} -> {v}" for g, v in rep.values.items()]
        return "{" + "; ".join(parts) + "}" if parts else "{0}"
    return str(rep)


def _degree_entry(args, topological, internal, dimension, representatives, trusted, **extra):
    entry = {
        "topological": None if args.internal_degrees else topological,
        "internal": internal,
        "dimension": dimension,
        "representatives": [_rep_str(r) for r in representatives],
        "trusted": trusted,
    }
    entry.update(extra)
    return entry


def _parse_degrees(args, default_tops):
    """Requested topological degrees (internal+1 when --internal-degrees)."""
    shift = 1 if args.internal_degrees else 0
    if getattr(args, "top_degree", None) is not None:
        return [args.top_degree + shift]
    ranged = getattr(args, "degrees", None)
    if ranged:
        lo, hi = _degree_range(ranged)
        lo, hi = lo + shift, hi + shift
        if lo > hi:
            raise PreconditionError(f"empty degree range {ranged!r}; A must not exceed B")
        return list(range(lo, hi + 1))
    return list(default_tops)


def _degree_range(text: str) -> tuple:
    """(A, B) of a degree range A:B; ValueError when malformed."""
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _sphere_dims(text: str) -> list:
    """The dimensions of a comma-separated list; ValueError when malformed."""
    return [int(s) for s in text.split(",")]


def _well_formed(parse, expected: str):
    """An argparse type: text that parse refuses is a usage error (exit 2).
    Accepted text is kept as given, so reports echo it."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed value {text!r}; expected {expected}") from None
        return text

    return check


def _subgroup_report(args, command, reports):
    return {
        "command": command,
        "inputs": _inputs(args),
        "degrees": [
            _degree_entry(
                args,
                r.topological,
                r.internal,
                r.dimension,
                r.representatives,
                r.trusted,
                ambient_dim=r.ambient_dim,
                low_degree_caveat=r.low_degree_caveat,
            )
            for r in reports
        ],
    }


def _inputs(args):
    out = {"file": args.file, "max_degree": args.max_degree}
    for key in ("name", "start", "end", "svalues", "spheres"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


# -- commands ------------------------------------------------------------------------


def cmd_validate(ws: Workspace, args):
    models = []
    ok = True
    names = [args.name] if args.name else list(ws.models)
    for name in names:
        model = ws.model(name)
        report = model.validate()
        ok = ok and report.ok
        models.append(
            {
                "model": name,
                "d_squared_ok": report.d_squared_ok,
                "minimal": report.minimal,
                "bigraded_ok": report.bigraded_ok,
                "problems": report.problems,
            }
        )
    out = {
        "command": "validate",
        "inputs": _inputs(args),
        "models": models,
        "maps": sorted(ws.maps),
        "ok": ok,
    }
    return out, EXIT_OK if ok else EXIT_VALIDATION


def cmd_homology(ws: Workspace, args):
    model = ws.model(args.name)
    default = range(2, model.truncation + 1)  # topological
    tops = _parse_degrees(args, default)
    cx = DglComplex(model)
    degrees = []
    for n in [t - 1 for t in tops if t >= 2]:
        h = cx.homology(n)
        degrees.append(
            _degree_entry(
                args,
                n + 1,
                n,
                h.dim,
                [cx.from_vector(n, r) for r in h.rep_rows],
                h.trusted,
                cycle_dim=h.cycles.rank,
                boundary_dim=h.boundaries.rank,
                low_degree_caveat=n <= 2,
            )
        )
    return {"command": "homology", "inputs": _inputs(args), "degrees": degrees}, EXIT_OK


def cmd_gottlieb(ws: Workspace, args):
    model = ws.model(args.name)
    der = DerComplex(DglMorphism.identity(model))
    default = [m + 1 for m in range(1, model.truncation) if der.computable(m)]
    tops = _parse_degrees(args, default)
    reports = gottlieb(model, tops)
    return _subgroup_report(args, "gottlieb", reports), EXIT_OK


def cmd_evsub(ws, args):
    ctx = EvaluationContext(ws.map(args.name))
    tops = _parse_degrees(args, ctx.computable_tops())
    reports = [ctx.evaluation_subgroup(t) for t in tops]
    return _subgroup_report(args, "evsub", reports), EXIT_OK


def cmd_center(ws, args):
    ctx = EvaluationContext(ws.map(args.name))
    tops = _parse_degrees(args, ctx.computable_tops())
    reports = [ctx.whitehead_center(t) for t in tops]
    out = _subgroup_report(args, "center", reports)
    for entry, r in zip(out["degrees"], reports):
        entry["checked_source_degrees"] = r.checked_source_degrees
    return out, EXIT_OK


def cmd_gvp(ws, args):
    ctx = EvaluationContext(ws.map(args.name))
    tops = _parse_degrees(args, ctx.computable_tops())
    degrees = []
    for t in tops:
        r = ctx.g_vs_p(t)
        degrees.append(
            _degree_entry(
                args,
                r.topological,
                r.internal,
                r.quotient_dim,
                r.witness,
                r.trusted,
                evaluation_dim=r.evaluation.dimension,
                center_dim=r.center.dimension,
                quotient_dim=r.quotient_dim,
            )
        )
    return {"command": "gvp", "inputs": _inputs(args), "degrees": degrees}, EXIT_OK


def cmd_grel(ws, args):
    ctx = EvaluationContext(ws.map(args.name))
    tops = _parse_degrees(args, ctx.computable_tops())
    reports = [ctx.rel_evaluation_subgroup(t) for t in tops]
    return _subgroup_report(args, "grel", reports), EXIT_OK


def cmd_gseq(ws, args):
    ctx = EvaluationContext(on_minimal_target(ws.map(args.name)))
    tops = _parse_degrees(args, ctx.computable_tops())
    degrees = []
    for t in ctx.g_sequence(tops).values():
        degrees.append(
            _degree_entry(
                args,
                t.topological,
                t.internal,
                t.omega_dim,
                t.omega_representatives,
                t.trusted,
                gottlieb_dim=t.gottlieb_dim,
                evaluation_dim=t.evaluation_dim,
                relative_dim=t.relative_dim,
                omega_dim=t.omega_dim,
                homology_at_evaluation=t.homology_at_evaluation,
                homology_at_relative=t.homology_at_relative,
                composites_zero=t.composites_zero,
                low_degree_caveat=t.low_degree_caveat,
            )
        )
    return {"command": "gseq", "inputs": _inputs(args), "degrees": degrees}, EXIT_OK


def cmd_omega(ws, args):
    out, code = cmd_gseq(ws, args)
    out["command"] = "omega"
    for entry in out["degrees"]:
        for key in (
            "gottlieb_dim",
            "evaluation_dim",
            "relative_dim",
            "homology_at_evaluation",
            "homology_at_relative",
        ):
            entry.pop(key, None)
    return out, code


def cmd_les(ws, args):
    ctx = EvaluationContext(on_minimal_target(ws.map(args.name)))
    tops = _parse_degrees(args, ctx.computable_tops())
    report = ctx.les([t - 1 for t in tops])
    degrees = []
    for node in report.nodes:
        degrees.append(
            {
                "topological": None if args.internal_degrees else node.degree + 1,
                "internal": node.degree,
                "position": node.position,
                "dimension": node.dim if node.trusted else None,
                "exact": node.exact,
                "trusted": node.trusted,
                "representatives": [],
            }
        )
    all_exact = report.all_exact
    return (
        {"command": "les", "inputs": _inputs(args), "degrees": degrees, "all_exact": all_exact},
        EXIT_OK,
    )


def cmd_product(ws, args):
    model = ws.model(args.name)
    pm = product_model(model, _sphere_dims(args.spheres))
    report = pm.model.validate()
    out = {
        "command": "product",
        "inputs": _inputs(args),
        "result": {
            "generators": [
                {"name": g.name, "degree": g.degree} for g in pm.model.generators
            ],
            "d_squared_ok": report.d_squared_ok,
            "minimal": report.minimal,
        },
    }
    if args.emit:
        emitted = Workspace(truncation=model.truncation)
        emitted.models[pm.model.name or "product"] = pm.model
        out["model_text"] = print_workspace(emitted)
    return out, EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_cylinder(ws, args):
    model = ws.model(args.name)
    cyl = cylinder(model)
    report = cyl.model.validate()
    checks = {
        "d_squared_ok": report.d_squared_ok,
        # both verified during construction
        "ends_retract": True,
        "far_end_chain_map": True,
        "cycle_generators_shift": all(
            cyl.far_end.values[g.name]
            == cyl.model.algebra.gen(g.name) + cyl.model.algebra.gen(cyl.hat_names[g.name])
            for g in model.generators
            if model.diff_of(g.name).is_zero()
        ),
    }
    out = {
        "command": "cylinder",
        "inputs": _inputs(args),
        "result": {
            "generators": [
                {"name": g.name, "degree": g.degree} for g in cyl.model.generators
            ],
            **checks,
        },
    }
    if args.emit:
        emitted = Workspace(truncation=model.truncation)
        emitted.models[cyl.model.name or "cylinder"] = cyl.model
        out["model_text"] = print_workspace(emitted)
    return out, EXIT_OK if checks["d_squared_ok"] else EXIT_VALIDATION


def cmd_verify_homotopy(ws, args):
    start = ws.map(args.start)
    end = ws.map(args.end)
    sdata = ws.smap(args.svalues)
    if sdata.source is not start.source or sdata.target is not start.target:
        raise PreconditionError("suspension data must share source and target with the start map")
    cyl = cylinder(start.source)
    report = verify_homotopy(cyl, start.target, start, sdata.values, end)
    out = {
        "command": "verify-homotopy",
        "inputs": _inputs(args),
        "holds": report.holds,
        "mismatches": [
            {"generator": g, "got": str(got), "want": str(want)}
            for g, got, want in report.mismatches
        ],
    }
    return out, EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "gottlieb": cmd_gottlieb,
    "evsub": cmd_evsub,
    "center": cmd_center,
    "gvp": cmd_gvp,
    "grel": cmd_grel,
    "gseq": cmd_gseq,
    "omega": cmd_omega,
    "les": cmd_les,
    "product": cmd_product,
    "cylinder": cmd_cylinder,
    "verify-homotopy": cmd_verify_homotopy,
}


def _render_text(out) -> str:
    inputs = ", ".join(f"{k}={v}" for k, v in out["inputs"].items())
    lines = [f"{out['command']}  ({inputs})"]
    if "models" in out:
        for m in out["models"]:
            status = "ok" if m["d_squared_ok"] else "FAILED d^2 = 0"
            extras = []
            extras.append("minimal" if m["minimal"] else "not minimal")
            if m["bigraded_ok"] is not None:
                extras.append("bigraded" if m["bigraded_ok"] else "bigrading broken")
            lines.append(f"  model {m['model']}: {status} ({', '.join(extras)})")
            for p in m["problems"]:
                lines.append(f"    ! {p}")
    for entry in out.get("degrees", []):
        top = entry.get("topological")
        internal = entry.get("internal")
        label = f"n={top} (internal {internal})" if top is not None else f"internal {internal}"
        if "position" in entry:
            verdict = {True: "exact", False: "NOT EXACT", None: "untrusted"}[entry["exact"]]
            lines.append(f"  {label} at H({entry['position']}): {verdict}")
            continue
        dim = entry.get("dimension")
        flags = []
        if not entry.get("trusted", True):
            flags.append("untrusted")
        if entry.get("low_degree_caveat"):
            flags.append("low-degree caveat")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        extra = ""
        if "quotient_dim" in entry:
            extra = f" (center {entry['center_dim']}, evaluation {entry['evaluation_dim']})"
        if "gottlieb_dim" in entry:
            extra = (
                f" (G {entry['gottlieb_dim']}, Gmap {entry['evaluation_dim']}, "
                f"Grel {entry['relative_dim']}, omega {entry['omega_dim']})"
            )
        lines.append(f"  {label}: dim {dim}{extra}{suffix}")
        for rep in entry.get("representatives", []):
            lines.append(f"    <{rep}>")
    for key in ("holds", "all_exact", "ok"):
        if key in out:
            lines.append(f"  {key}: {out[key]}")
    if "result" in out:
        for k, v in out["result"].items():
            if k == "generators":
                gens = ", ".join(f"{g['name']}:{g['degree']}" for g in v)
                lines.append(f"  generators: {gens}")
            else:
                lines.append(f"  {k}: {v}")
    if "mismatches" in out and out["mismatches"]:
        for m in out["mismatches"]:
            lines.append(f"  mismatch at {m['generator']}: got {m['got']}, want {m['want']}")
    if "model_text" in out:
        lines.append(out["model_text"])
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dglcalc",
        description="Rational homotopy invariants of differential graded Lie algebra models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="model file")
        if name == "verify-homotopy":
            p.add_argument("--start", required=True, help="map to start from")
            p.add_argument("--end", required=True, help="map to end at")
            p.add_argument("--svalues", required=True, help="smap with the suspension values")
        elif name == "validate":
            p.add_argument("name", nargs="?", help="model to validate (default: all)")
        else:
            p.add_argument("name", help="model or map to operate on")
        p.add_argument("--max-degree", type=int, default=12, help="truncation degree (default 12)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--internal-degrees",
            action="store_true",
            help="degree arguments and reports use internal degrees",
        )
        if name in ("homology", "gottlieb", "evsub", "center", "gvp", "grel", "gseq", "omega", "les"):
            degrees = p.add_mutually_exclusive_group()
            degrees.add_argument("--top-degree", type=int, help="single topological degree")
            degrees.add_argument(
                "--degrees", type=_well_formed(_degree_range, "A:B"), help="degree range A:B (topological)"
            )
        if name == "product":
            p.add_argument(
                "--spheres",
                required=True,
                type=_well_formed(_sphere_dims, "a comma-separated list of integers, e.g. 2,3"),
                help="comma-separated sphere dimensions",
            )
        if name in ("product", "cylinder"):
            p.add_argument("--emit", action="store_true", help="print the constructed model file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:  # e.g. InternalError, RecursionError, MemoryError
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def _main(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"precondition error: cannot read {args.file}: {reason}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UnicodeDecodeError as exc:
        print(f"parse error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.max_degree < 1:  # refused before the model file can be blamed
            raise PreconditionError(f"--max-degree must be at least 1, got {args.max_degree}")
        ws = parse_workspace(text, truncation=args.max_degree)
        if args.command != "validate":
            # every model must validate before any computation runs on it
            for name, model in ws.models.items():
                report = model.validate()
                if not report.ok:
                    problems = "; ".join(report.problems)
                    print(f"validation error: model {name}: {problems}", file=sys.stderr)
                    return EXIT_VALIDATION
        out, code = COMMANDS[args.command](ws, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PreconditionError, TruncationError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.format == "json":
        print(json.dumps(out, indent=2, default=str))
    else:
        print(_render_text(out), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
