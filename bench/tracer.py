"""Spans and counters at the layer boundaries of dglcalc, patched from outside.

The benchmark's traced run wraps the boundary functions of every module in
`src/dglcalc` (one module = one layer) before any op runs.  A wrapper records
a span (name, start, end, parent span, op id) and updates the layer's counters.
A layer's self time is its spans' time minus their child spans.  The time a
counter hook spends on its own bookkeeping is kept out of every span, so it
shows up only in `trace.unattributed_frac`.

A function that another module imported by name is replaced there too, and
`install` fails if any module still refers to an unwrapped original.
LieElement arithmetic is not wrapped (it is too hot); its time is charged to
the layer that called it.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

ALL = ("gseq-onecell", "constructions", "cmd-mix")
MAPS = ("gseq-onecell", "cmd-mix")
LAYERS = ("modelfile", "cli", "lie", "model", "derivations", "relative", "linalg",
          "complexes", "subgroups", "constructions")

# (layer, qualified name, workloads on which the boundary must fire)
BOUNDARIES = (
    ("cli", "main", ALL),
    ("modelfile", "parse_workspace", ALL),
    ("modelfile", "print_workspace", ("constructions", "cmd-mix")),
    ("lie", "FreeLieAlgebra._basis_data", ALL),
    ("lie", "FreeLieAlgebra.bracket", ALL),
    ("lie", "FreeLieAlgebra.monomial", ALL),
    ("lie", "FreeLieAlgebra.from_tensor", ALL),
    ("lie", "transport", ("constructions",)),
    ("model", "DglModel.validate", ALL),
    ("model", "DglModel.d", ALL),
    ("model", "DglModel._d_word", ALL),
    ("model", "DglMorphism.__init__", ALL),
    ("model", "DglMorphism.apply", ALL),
    ("model", "DglMorphism._apply_word", ALL),
    ("model", "DglMorphism.compose", ("constructions",)),
    ("complexes", "ChainComplex.homology", ALL),
    ("complexes", "HomologySlice.class_coords", MAPS),
    ("complexes", "induced_matrix", MAPS),
    ("complexes", "DglComplex.d_columns", ALL),
    ("complexes", "DglComplex.to_vector", ALL),
    ("complexes", "DglComplex.from_vector", ALL),
    ("derivations", "DerComplex.d_columns", MAPS),
    ("derivations", "DerComplex.labels", MAPS),
    ("derivations", "DerComplex.to_vector", MAPS),
    ("derivations", "DerComplex.from_vector", MAPS),
    ("derivations", "GenDerivation.apply", ALL),
    ("derivations", "GenDerivation._apply_word", ALL),
    ("derivations", "GenDerivation.differential", MAPS),
    ("derivations", "adjoint", MAPS),
    ("relative", "RelComplex.__init__", MAPS),
    ("relative", "RelComplex.d_columns", MAPS),
    ("relative", "RelComplex.to_vector", MAPS),
    ("relative", "RelComplex.from_vector", MAPS),
    ("relative", "assemble_les", ("cmd-mix",)),
    ("relative", "assemble_les_of_chain_map", ("cmd-mix",)),
    ("linalg", "rref", ALL),
    ("linalg", "Rref.reduce", ALL),
    ("linalg", "vec_add", ALL),
    ("linalg", "kernel_of_columns", ALL),
    ("linalg", "solve_columns", MAPS),
    ("linalg", "quotient_basis", MAPS),
    ("linalg", "intersect", ("cmd-mix",)),
    ("subgroups", "EvaluationContext.__init__", MAPS),
    ("subgroups", "EvaluationContext._kernel", MAPS),
    ("subgroups", "EvaluationContext.evaluation_subgroup", ("cmd-mix",)),
    ("subgroups", "EvaluationContext.rel_evaluation_subgroup", ("cmd-mix",)),
    ("subgroups", "EvaluationContext.whitehead_center", ("cmd-mix",)),
    ("subgroups", "EvaluationContext.g_vs_p", ("cmd-mix",)),
    ("subgroups", "EvaluationContext.g_sequence", MAPS),
    ("subgroups", "EvaluationContext.computable_tops", MAPS),
    ("subgroups", "EvaluationContext._restricted_map", MAPS),
    ("subgroups", "gottlieb", ("cmd-mix",)),
    ("subgroups", "_term_homology", MAPS),
    ("subgroups", "_composite_zero", MAPS),
    ("constructions", "product_model", ("constructions", "cmd-mix")),
    ("constructions", "cylinder", ("constructions", "cmd-mix")),
    ("constructions", "verify_homotopy", ("cmd-mix",)),
    ("constructions", "_exp_apply", ("constructions", "cmd-mix")),
)

# Recursive boundaries record only their outermost call.
COLLAPSE = {"DglModel._d_word", "DglMorphism._apply_word", "GenDerivation._apply_word"}

# Metrics that are plain call counts of one boundary.
CALL_METRICS = {
    "modelfile.parse_calls": "parse_workspace",
    "lie.bracket_calls": "FreeLieAlgebra.bracket",
    "model.validate_calls": "DglModel.validate",
    "derivations.d_columns_calls": "DerComplex.d_columns",
    "derivations.labels_calls": "DerComplex.labels",
    "derivations.apply_calls": "GenDerivation.apply",
    "relative.complexes_built": "RelComplex.__init__",
    "relative.d_columns_calls": "RelComplex.d_columns",
    "linalg.rref_calls": "rref",
    "complexes.homology_calls": "ChainComplex.homology",
    "complexes.induced_matrix_calls": "induced_matrix",
    "complexes.d_columns_calls": "DglComplex.d_columns",
    "subgroups.contexts_built": "EvaluationContext.__init__",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (span id, parent id, op id, boundary index, start, end)
        self.stack = []  # frames: [span id, child seconds, boundary index]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.op = -1
        self.op_seconds = 0.0
        self.next_id = 0
        self._rref_seen = set()
        self._originals = set()  # ids of the wrapped functions
        self.missing = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self._rref_seen = set()

    def end_op(self, seconds: float):
        self.op_seconds += seconds

    # -- patching -----------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        for index, (layer, qualname, _) in enumerate(BOUNDARIES):
            module = importlib.import_module(f"{self.package.__name__}.{layer}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:  # renamed or removed by a later change
                self.missing.append(f"{layer}.{qualname}")
                continue
            pre, post = hooks.get(qualname, (None, None))
            wrapper = self._wrap(index, layer, qualname in COLLAPSE, original, pre, post)
            self._originals.add(id(original))
            if owner_name:
                for key, value in list(owner.__dict__.items()):
                    if value is original:  # e.g. `__call__ = apply`
                        setattr(owner, key, wrapper)
            else:
                for mod in self._modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        stale = [
            f"{mod.__name__}.{key}"
            for mod in self._modules()
            for key, value in vars(mod).items()
            if id(value) in self._originals
        ]
        if stale:
            raise RuntimeError(f"unwrapped references remain: {stale}")

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if name == prefix or name.startswith(prefix + ".")]

    def _wrap(self, index, layer, collapse, fn, pre, post):
        clock = time.perf_counter
        stack, calls = self.stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collapse and stack and stack[-1][2] == index:
                return fn(*args, **kwargs)
            calls[index] += 1
            hook_start = clock()
            token = pre(*args) if pre else None
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                self._close(frame, parent, index, layer, start, end, end - hook_start)
                raise
            end = clock()
            if post:
                post(token, result, *args)
            self._close(frame, parent, index, layer, start, end, clock() - hook_start)
            return result

        return wrapper

    def _close(self, frame, parent, index, layer, start, end, covered):
        self.stack.pop()
        self.self_s[layer] += (end - start) - frame[1]
        if self.stack:
            self.stack[-1][1] += covered
        self.spans.append((frame[0], parent, self.op, index, start, end))

    # -- counter hooks --------------------------------------------------------

    def _hooks(self) -> dict:
        counts, maxima = self.counts, self.maxima

        def basis_pre(alg, degree):
            return degree not in getattr(alg, "_basis_cache", {})

        def basis_post(miss, data, alg, degree):
            if miss:
                counts["lie.basis_builds"] += 1
                counts["lie.basis_words"] += len(data.words)
                scanned = getattr(alg, "_words_cache", {}).get(degree)
                counts["lie.words_scanned"] += len(scanned or ())

        def validate_post(_, report, model):
            cache = getattr(model.algebra, "_basis_cache", {})
            counts["model.validate_words"] += sum(
                len(cache[n].words) for n in range(2, model.truncation + 1) if n in cache
            )

        def rref_pre(rows, *_):
            if not isinstance(rows, (list, tuple)):
                return None
            counts["linalg.rref_rows_in"] += len(rows)
            counts["linalg.rref_nnz_in"] += sum(len(r) for r in rows)
            maxima["linalg.rref_max_rows"] = max(maxima["linalg.rref_max_rows"], len(rows))
            key = hash(tuple(tuple(sorted(r.items())) for r in rows))
            if key in self._rref_seen:
                counts["linalg.rref_repeats"] += 1
            self._rref_seen.add(key)
            return None

        def rref_post(_, result, *args):
            counts["linalg.rref_rank_out"] += result.rank

        def homology_pre(cplx, n):
            return n not in getattr(cplx, "_homology_cache", {})

        def homology_post(miss, *_):
            if miss:
                counts["complexes.homology_builds"] += 1

        def kernel_pre(ctx, kind, m):
            return (kind, m) not in getattr(ctx, "_kernels", {})

        def kernel_post(miss, *_):
            if miss:
                counts["subgroups.kernel_builds"] += 1

        def columns_post(_, cols, *args):
            maxima["complexes.max_dim"] = max(maxima["complexes.max_dim"], len(cols))

        return {
            "FreeLieAlgebra._basis_data": (basis_pre, basis_post),
            "DglModel.validate": (None, validate_post),
            "rref": (rref_pre, rref_post),
            "ChainComplex.homology": (homology_pre, homology_post),
            "EvaluationContext._kernel": (kernel_pre, kernel_post),
            "DglComplex.d_columns": (None, columns_post),
            "DerComplex.d_columns": (None, columns_post),
            "RelComplex.d_columns": (None, columns_post),
        }

    # -- results ---------------------------------------------------------------

    def summary(self, workload: str) -> dict:
        """Totals of the traced run, plus the boundaries that stayed silent."""
        calls = {BOUNDARIES[i][1]: c for i, c in self.calls.items()}
        silent = [
            f"{layer}.{name}" for layer, name, mech in BOUNDARIES
            if workload in mech and not calls.get(name)
            and f"{layer}.{name}" not in self.missing
        ]
        counts = dict(self.counts)
        for metric, name in CALL_METRICS.items():
            counts[metric] = calls.get(name, 0)
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": counts,
            "maxima": dict(self.maxima),
            "op_seconds": self.op_seconds,
            "spans": len(self.spans),
            "silent_boundaries": silent,
            "missing_boundaries": list(self.missing),
        }

    def write_spans(self, path):
        """Gzipped CSV, one span a line: id, parent, op, boundary, start, end.

        The header line names the boundaries by index; times are seconds of
        `time.perf_counter`.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [f"{layer}.{name}" for layer, name, _ in BOUNDARIES]
        with gzip.open(path, "wt") as fh:
            fh.write("# boundaries: " + json.dumps(names) + "\n")
            fh.writelines(f"{s},{p},{o},{b},{t0:.6f},{t1:.6f}\n" for s, p, o, b, t0, t1 in self.spans)
