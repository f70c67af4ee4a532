"""Per-layer tracing of hopftrees from outside the library.

``Tracer.install()`` replaces each probed function with a counting, timing
wrapper.  A function is rebound in every ``hopftrees`` module that holds it,
so a ``from .hopf_trees import cuts_of`` binding in another module is caught
as well as calls through the defining module's globals (which is how the
``HopfOps`` lambdas reach the structure maps).  Operators are probed by
patching the class attribute and its aliases such as ``__radd__``.

Spans (name, parent, start, end) are kept in flat in-memory arrays and are
reduced to metrics only when the pass is over, so the traced command does no
I/O of ours.  Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from math import comb

ALGEBRAS = ("kT", "H_K", "kP", "H_F", "Sym", "QSym", "NSym")

# (metric prefix, module, attribute, stats, flags).  Stats name the metrics:
#   calls         number of calls
#   s             self seconds (a span per call)
#   reuse         1 - distinct argument tuples / calls
#   yield         useful outcomes / attempts, see RATIO_BASES
#   terms_copied  for a ``+`` operator: summed term count of the left operand
# Flags: "outer" spans only the outermost call of a recursive function;
# "per_alg" names the span after the algebra (HopfOps) in the first argument;
# "cached" counts a yield once per distinct argument, as later calls only hit
# the function's lru_cache.
_MAPS = ("calls", "s", "reuse")
_ADDS = ("calls", "terms_copied")
PROBES = (
    ("scalar.poly_mul", "scalar", "Poly.__mul__", ("calls", "s"), ()),
    ("scalar.poly_add", "scalar", "Poly.__add__", ("calls", "s"), ()),
    ("scalar.binom_poly", "scalar", "binom_poly", ("calls", "reuse"), ()),
    (
        "trees.enumerate_rooted",
        "trees",
        "enumerate_rooted",
        ("s", "yield"),
        ("cached",),
    ),
    ("trees.bba_decode", "trees", "bba_decode", ("calls", "s"), ()),
    ("trees.canonicalize", "trees", "canonicalize", ("calls", "s"), ("outer",)),
    ("hopf_trees.cuts_of", "hopf_trees", "cuts_of", ("calls", "s", "yield"), ()),
    *(
        (f"hopf_trees.{fn}", "hopf_trees", fn, _MAPS, ())
        for fn in (
            "gl_product",
            "kp_product",
            "gl_coproduct",
            "kp_coproduct",
            "ck_coproduct",
            "hf_coproduct",
            "ck_antipode",
            "hf_antipode",
        )
    ),
    *(
        (f"symfun.{fn}", "symfun", fn, _MAPS, ())
        for fn in (
            "qsym_product_comp",
            "qsym_coproduct",
            "qsym_antipode",
            "sym_product_part",
            "sym_coproduct",
            "nsym_product",
            "nsym_coproduct",
        )
    ),
    ("freemodule.lincomb_add", "freemodule", "LinComb.__add__", _ADDS, ()),
    ("freemodule.tensor_add", "freemodule", "TensorElem.__add__", _ADDS, ()),
    (
        "freemodule.generic_antipode",
        "freemodule",
        "generic_antipode",
        _MAPS,
        ("outer",),
    ),
    ("freemodule.check_axioms", "freemodule", "check_axioms", ("s",), ("per_alg",)),
    ("morphisms.rho", "morphisms", "rho", ("calls", "s"), ()),
    ("special.lemma_check", "special", "lemma_check", ("s",), ()),
    ("special.proposition_check", "special", "proposition_check", ("s",), ()),
    ("special.growth_formulas_check", "special", "growth_formulas_check", ("s",), ()),
    ("special.n_count", "special", "n_count", ("calls", "s"), ()),
    ("special.m_count", "special", "m_count", ("calls", "s"), ()),
    ("dse.solve_recursive", "dse", "solve_recursive", ("s",), ()),
    ("dse.solve_closed", "dse", "solve_closed", ("s",), ()),
    ("dse.coproduct_theorem_check", "dse", "coproduct_theorem_check", ("s",), ()),
    ("dse.cp_coefficient", "dse", "cp_coefficient", ("calls", "s"), ()),
    ("cli.render_lincomb", "cli", "render_lincomb", ("calls", "s"), ()),
)


def _cuts_found(args, result) -> tuple:
    """Admissible cuts found, and the 2^(|t|-1) edge subsets walked."""
    return sum(c.admissible for c in result), 1 << (args[0].size - 1)


def _rooted_found(args, result) -> tuple:
    """Rooted trees returned, and the Catalan(n) planar trees canonicalised."""
    n = args[0]
    return len(result), comb(2 * n, n) // (n + 1)


# yield = numerator / denominator, each summed over the calls.
RATIO_BASES = {
    "hopf_trees.cuts_of": ("admissible", "walked", _cuts_found),
    "trees.enumerate_rooted": ("returned", "planar", _rooted_found),
}


def _layer_metrics() -> tuple:
    out = []
    for name, _module, _attr, stats, flags in PROBES:
        if "per_alg" in flags:
            out.extend(f"{name}.{alg}.{stat}" for alg in ALGEBRAS for stat in stats)
        else:
            out.extend(f"{name}.{stat}" for stat in stats)
    return tuple(out)


LAYER_METRICS = _layer_metrics()


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    return {"s": "s", "reuse": "ratio", "yield": "ratio"}.get(stat, "count")


def self_times(names, parents, starts, ends) -> dict:
    """Self seconds per span name: duration minus the union of the child
    spans' intervals, each clipped to its parent's interval.

    Spans are indexed in start order, as ``Tracer`` appends them, and
    ``parents[i]`` is the index of span i's parent or -1.
    """
    covered = [0.0] * len(starts)
    reach = list(starts)  # end of the covered prefix of each span so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out: dict = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
    return out


class Tracer:
    """Counters and spans of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.extra: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, stats=("calls",), flags=()):
        """A wrapper around ``fn`` recording ``stats`` under ``name``."""
        calls, extra = self.calls, self.extra
        calls[name] = 0
        keys = self.keys.setdefault(name, set()) if "reuse" in stats else None
        span = "s" in stats
        outer = "outer" in flags
        per_alg = "per_alg" in flags
        copied = name + ".terms_copied" if "terms_copied" in stats else None
        ratio = RATIO_BASES.get(name) if "yield" in stats else None
        if copied:
            extra[copied] = 0
        if ratio:
            num, den = f"{name}.{ratio[0]}", f"{name}.{ratio[1]}"
            extra[num] = extra[den] = 0
        cached = "cached" in flags
        seen: set = set()
        nid = self._id(name)
        sname, sparent = self.span_name, self.span_parent
        sstart, send, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
            if copied:
                extra[copied] += len(args[0].terms)
            if not span or (outer and depth[0]):
                return fn(*args, **kwargs)
            idx = len(sstart)
            sname.append(self._id(f"{name}.{args[0].name}") if per_alg else nid)
            sparent.append(stack[-1] if stack else -1)
            send.append(0.0)
            stack.append(idx)
            depth[0] += 1
            sstart.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                send[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if ratio and not (cached and args in seen):
                if cached:
                    seen.add(args)
                found, attempted = ratio[2](args, result)
                extra[num] += found
                extra[den] += attempted
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every probe in the already imported hopftrees modules."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hopftrees"]
        for name, module, attr, stats, flags in PROBES:
            owner = importlib.import_module(f"hopftrees.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[method]
                targets = [owner]
            else:
                original = getattr(owner, attr)
                targets = modules
            wrapper = self.wrap(name, original, stats, flags)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def metrics(self) -> dict:
        """Every metric of LAYER_METRICS for this pass."""
        selfs = self_times(
            [self.names[i] for i in self.span_name],
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        out = {}
        for metric in LAYER_METRICS:
            base, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = self.calls[base]
            elif stat == "s":
                out[metric] = selfs.get(base, 0.0)
            elif stat in ("reuse", "yield"):
                num, den = self.ratio_base(metric)
                if stat == "reuse":
                    out[metric] = 1 - num / den if den else 0.0
                else:
                    out[metric] = num / den if den else 0.0
            else:
                out[metric] = self.extra[metric]
        return out

    def bases(self) -> dict:
        """The counts behind each ratio and per-call metric, as text."""
        out = {}
        for metric in LAYER_METRICS:
            base, stat = metric.rsplit(".", 1)
            calls = self.calls.get(base)
            if stat == "reuse":
                out[metric] = f"1 - {len(self.keys[base])} distinct / {calls} calls"
            elif stat == "yield":
                out[metric] = "{} / {}".format(*self.ratio_base(metric))
            elif stat == "terms_copied":
                out[metric] = f"{self.extra[metric]} terms over {calls} calls"
        return out

    def ratio_base(self, metric: str) -> tuple:
        """(numerator, denominator) of a ``.reuse`` or ``.yield`` metric."""
        base, stat = metric.rsplit(".", 1)
        if stat == "reuse":
            return len(self.keys[base]), self.calls[base]
        num, den, _ = RATIO_BASES[base]
        return self.extra[f"{base}.{num}"], self.extra[f"{base}.{den}"]
