"""Outside-in per-layer tracing of pellred's public functions.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every
reference to it: module globals of every loaded ``pellred`` module (so names
imported with ``from .x import y`` and package re-exports are covered) and
class attributes (so aliases such as ``Poly.__rmul__ = __mul__`` are too).

A call records a span only inside an operation started with ``run_op``; the
benchmark's own checks run outside operations and are not counted.  Each span
is folded into its function's totals when it closes: its duration minus the
time its child spans covered is the function's self time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: (metric prefix, pellred module, attributes in that module) per layer function.
LAYERS = (
    ("polyring.mul", "polyring", ("Poly.__mul__",)),
    ("polyring.square", "polyring", ("Poly.square",)),
    ("polyring.add", "polyring", ("Poly.__add__",)),
    ("polyring.sub", "polyring", ("Poly.__sub__", "Poly.__rsub__")),
    ("polyring.divmod", "polyring", ("Poly.__divmod__",)),
    ("polyring.div_exact", "polyring", ("Poly.div_exact",)),
    ("polyring.pow", "polyring", ("Poly.__pow__",)),
    ("polyring.sqrt", "polyring", ("Poly.sqrt",)),
    ("polyring.parse_poly", "polyring", ("parse_poly",)),
    ("polyring.format_poly", "polyring", ("format_poly",)),
    ("polyring.to_json", "polyring", ("Poly.to_json",)),
    ("polymat.matmul", "polymat", ("PolyMatrix.__matmul__",)),
    ("polymat.pow", "polymat", ("PolyMatrix.pow",)),
    ("polymat.det_cofactor", "polymat", ("PolyMatrix.det_cofactor",)),
    ("polymat.det_bareiss", "polymat", ("PolyMatrix.det_bareiss",)),
    ("polymat.char_poly", "polymat", ("PolyMatrix.char_poly",)),
    ("polymat.build_circulant", "polymat", ("build_circulant",)),
    ("redei.redei_sequence", "redei", ("redei_sequence",)),
    ("redei.redei_recurrence", "redei", ("redei_recurrence",)),
    ("pell2.solve", "pell2", ("solve",)),
    ("pell2.solve_sequence", "pell2", ("solve_sequence",)),
    ("pell2.verify", "pell2", ("verify",)),
    ("pell2.descend", "pell2", ("descend",)),
    ("pell2.identify_solution", "pell2", ("identify_solution",)),
    ("pellm.gen_redei", "pellm", ("gen_redei",)),
    ("pellm.solve_m", "pellm", ("solve_m",)),
    ("pellm.verify_m", "pellm", ("verify_m",)),
    ("pellm.divisibility_probe", "pellm", ("divisibility_probe",)),
    ("cli.main", "cli", ("main",)),
)

#: polyring functions whose Poly results count towards frac_result_share.
POLY_RESULTS = {
    "polyring.mul", "polyring.square", "polyring.add", "polyring.sub", "polyring.divmod",
    "polyring.div_exact", "polyring.pow", "polyring.sqrt", "polyring.parse_poly",
}

#: Per-layer metrics measured outside the tracer: fresh-interpreter probes in
#: run.py, and the traced and untraced passes of worker.py.
RUN_METRICS = (
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
)

ROOT_SPAN = -1


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name, _, _ in LAYERS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("polyring.mul.max_deg", "degree", "lower"),
        ("polyring.mul.max_bits", "bits", "lower"),
        ("polyring.frac_result_share", "ratio", "lower"),
        ("redei.pairs_per_request", "ratio", "lower"),
        ("pell2.identify.hit_ratio", "ratio", "higher"),
    ]
    return spec + list(RUN_METRICS)


def _bits(c) -> int:
    if type(c) is int:
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    """Per-function call counts and self times, plus size and waste counters."""

    def __init__(self):
        self.index = {name: i for i, (name, _, _) in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.mul_max_deg = 0
        self.mul_max_bits = 0
        self.poly_results = 0
        self.frac_results = 0
        self.pairs_computed = 0
        self.pairs_used = 0
        self.identify_hits = 0
        self._stack = []
        self._undo = []
        self._poly = None

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind each reference to it."""
        wrappers = {}
        for name, modname, attrs in LAYERS:
            for attr in attrs:
                owner = importlib.import_module(f"pellred.{modname}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = vars(owner)[leaf]
                wrappers[id(fn)] = (fn, self._wrap(self.index[name], fn, self._hook(name)))
        self._poly = sys.modules["pellred.polyring"].Poly
        mods = [m for n, m in sys.modules.items() if n == "pellred" or n.startswith("pellred.")]
        replaced = {key: 0 for key in wrappers}
        seen_classes = set()
        for mod in mods:
            namespaces = [mod]
            for value in list(vars(mod).values()):
                if (
                    isinstance(value, type)
                    and value.__module__.startswith("pellred")
                    and id(value) not in seen_classes
                ):
                    seen_classes.add(id(value))
                    namespaces.append(value)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(ns, attr, entry[1])
                        self._undo.append((ns, attr, value))
                        replaced[id(value)] += 1
        missing = [wrappers[key][0].__qualname__ for key, n in replaced.items() if not n]
        if missing:
            self.uninstall()
            raise RuntimeError(f"no reference found to {missing}")

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    # -- recording ----------------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one operation as the root span that enables recording."""
        self._stack.append([0.0, ROOT_SPAN])
        try:
            return fn(*args)
        finally:
            self._stack.pop()

    def _wrap(self, idx, fn, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[idx] += 1
                self_s[idx] += dt - frame[0]
                stack[-1][0] += dt
            if hook is not None:
                # The hook's own time is kept out of the parent's self time.
                t1 = perf_counter()
                hook(args, result, stack[-1][1])
                stack[-1][0] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _hook(self, name):
        if name == "polyring.mul":
            return self._on_mul
        if name in POLY_RESULTS:
            return self._on_poly_result
        if name == "redei.redei_sequence":
            return self._on_sequence
        if name == "redei.redei_recurrence":
            return self._on_recurrence
        if name == "pell2.identify_solution":
            return self._on_identify
        return None

    def _on_mul(self, args, result, parent):
        for p in args:
            if isinstance(p, self._poly) and p.coeffs:
                self.mul_max_deg = max(self.mul_max_deg, p.degree)
                self.mul_max_bits = max(self.mul_max_bits, max(map(_bits, p.coeffs)))
        self._on_poly_result(args, result, parent)

    def _on_poly_result(self, args, result, parent):
        for p in result if isinstance(result, tuple) else (result,):
            if isinstance(p, self._poly):
                self.poly_results += 1
                self.frac_results += not p.is_integral()

    def _on_sequence(self, args, result, parent):
        self.pairs_computed += len(result)
        if parent != self.index["redei.redei_recurrence"]:
            self.pairs_used += len(result)

    def _on_recurrence(self, args, result, parent):
        self.pairs_used += 1

    def _on_identify(self, args, result, parent):
        self.identify_hits += result is not None

    # -- results --------------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.index[name]]

    def metrics(self) -> dict:
        out = {}
        for i, (name, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        identifies = self.count("pell2.identify_solution")
        out["polyring.mul.max_deg"] = self.mul_max_deg
        out["polyring.mul.max_bits"] = self.mul_max_bits
        out["polyring.frac_result_share"] = (
            self.frac_results / self.poly_results if self.poly_results else 0.0
        )
        out["redei.pairs_per_request"] = (
            self.pairs_computed / self.pairs_used if self.pairs_used else 0.0
        )
        out["pell2.identify.hit_ratio"] = self.identify_hits / identifies if identifies else 0.0
        return out
