"""Per-layer spans, recorded from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each traced
function by a timing wrapper in every module that binds it, under whatever
name (``algebras._insert_row`` is ``_linalg.insert_echelon_row``, and
``holonomy_algebra`` is bound in ``connection``, ``catalog``, ``cli`` and the
package itself), and ``uninstall`` puts the originals back.  No file of the
package changes.

A call into a function, or into the scalar-op group, that is already open on
the stack is not a new span: recursion (the cofactor determinant) and
arithmetic built from other arithmetic (``a - b`` is ``a + (-b)``) count once,
at the outermost call.  Self time is a span's duration minus the time its
child spans cover.  Spans are kept in memory and written out by ``dump``;
scalar ops are too many for that and are only summed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# module -> traced public functions, in the order the metrics are listed
LAYERS: dict[str, tuple[str, ...]] = {
    "connection": ("torsion_form", "bismut_connection", "curvature", "nabla_matrices",
                   "holonomy_algebra"),
    "_linalg": ("insert_echelon_row", "fraction_nullspace", "scalar_matrix_determinant",
                "positive_definite"),
    "algebras": ("parse_equations", "check_jacobi", "ce_cohomology"),
    "exterior": ("wedge", "exterior_derivative", "apply_coframe_map", "span_rank"),
    "structures": ("validate_sun", "is_balanced_sun", "validate_su2", "is_balanced_su2",
                   "is_hypo"),
    "evolution": ("validate_family", "verify_balanced_evolution", "verify_hypo_evolution",
                  "suspend_family", "verify_orthonormal_coframe", "family_volume"),
    "catalog": ("run_entry",),
    "cli": ("main",),
}
# entry points: only their own time is reported, their callees have their own spans
SELF_ONLY = ("catalog.run_entry", "cli.main")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
              "rational_power", "diff")
SCALARS = "scalars.ops"
ECHELON = "linalg.insert_echelon_row"


def span_name(layer: str, func: str) -> str:
    """``module.function``; metric names start with a letter, so ``_linalg``
    is reported as ``linalg``."""
    return f"{layer.lstrip('_')}.{func}"


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, with its unit."""
    names = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            key = span_name(layer, func)
            if key not in SELF_ONLY:
                names.append((f"{key}.calls", "count"))
            names.append((f"{key}.self_ms", "ms"))
            if key == ECHELON:
                names.append((f"{key}.absorbed_ratio", "ratio"))
    return names + [(f"{SCALARS}.calls", "count"), (f"{SCALARS}.self_ms", "ms")]


def rebind(owners, wrappers: dict[int, tuple[object, object]]) -> list[tuple]:
    """Replace, in each owner's namespace, every value that is a key of
    ``wrappers`` (by identity) with its wrapper; return what to restore."""
    done = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                done.append((owner, attr, value))
    return done


def restore(done: list[tuple]) -> None:
    for owner, attr, value in reversed(done):
        setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        # (id, parent id or -1, root id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.rows_offered = 0
        self.rows_absorbed = 0
        self._stack: list[list[int]] = []  # [child ns, span id, root id]
        self._open: set[str] = set()
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, opened, clock = self._stack, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in opened:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0, span_id, parent[2] if parent else span_id]
            opened.add(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                opened.discard(name)
                self.calls[name] += 1
                self.self_ns[name] += (t1 - t0) - frame[0]
                if parent is not None:
                    parent[0] += t1 - t0
                self.spans.append((span_id, parent[1] if parent else -1, frame[2],
                                   name, t0, t1))
            if name == ECHELON:
                self.rows_offered += 1
                self.rows_absorbed += bool(result)
            return result
        return traced

    def _leaf(self, name: str, fn):
        """A summed-only span for scalar ops, which open no traced children."""
        stack, opened, clock = self._stack, self._open, time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in opened:
                return fn(*args, **kwargs)
            opened.add(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                opened.discard(name)
                calls[name] += 1
                self_ns[name] += dt
                if stack:
                    stack[-1][0] += dt
        return traced

    # -- install / uninstall -----------------------------------------------------

    def install(self, package, modules, scalar_cls) -> None:
        """Wrap every binding of a traced function in ``modules``."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, funcs in LAYERS.items():
            mod = getattr(package, layer)
            for func in funcs:
                fn = getattr(mod, func)
                wrappers[id(fn)] = (fn, self._span(span_name(layer, func), fn))
        for attr in SCALAR_OPS:
            fn = vars(scalar_cls)[attr]
            wrappers.setdefault(id(fn), (fn, self._leaf(SCALARS, fn)))
        self._restore = rebind([*modules, scalar_cls], wrappers)

    def uninstall(self) -> None:
        restore(self._restore)
        self._restore = []

    # -- results -----------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass over the workload's items."""
        out: dict[str, float] = {}
        for name, unit in metric_names():
            key, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[key] / passes
            elif stat == "self_ms":
                out[name] = self.self_ns[key] / 1e6 / passes
            else:
                out[name] = (self.rows_absorbed / self.rows_offered
                             if self.rows_offered else 0.0)
        return out

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, in the order they ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, root, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "root": root,
                                     "name": name, "start_ns": t0, "end_ns": t1}) + "\n")
