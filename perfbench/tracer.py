"""Span tracer that wraps ppvit's public functions from outside the package.

Tracing patches module attributes of the imported ``ppvit`` modules while a
``Tracer`` is installed and puts the originals back on ``uninstall``.  No
file under ``src/`` is touched, and untraced runs call the original
functions (``uninstall`` checks that none is left wrapped).

Every span records a name, a start, an end, its parent span and an
iteration id.  Spans stay in memory and ``write`` dumps them at the end.

Backward time is charged to the span that created each graph node: the op
wrapper replaces the node's ``backward_fn`` with a timed wrapper that
remembers the op class, the accountant scope and the layer spans that were
open when the node was made.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MIB = 1024.0 * 1024.0

# Leaf ops of ppvit.tensor and the class each is reported under.  conv2d is
# split into dense and depthwise by its ``groups`` argument.  Composite ops
# (linear, depthwise_conv2d) are not wrapped: their inner leaf ops are.
OP_CLASS = {
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "neg": "elementwise", "scale": "elementwise", "shift": "elementwise",
    "sum": "elementwise", "mean": "elementwise",
    "reshape": "layout", "transpose": "layout", "concat": "layout",
    "matmul": "matmul", "conv2d": None, "softmax_rows": "softmax",
    "layer_norm": "layer_norm", "hardswish": "act", "gelu": "act",
    "adaptive_avg_pool2d": "pool", "adaptive_max_pool2d": "pool",
    "cross_entropy_logits": "loss",
}
MAC_CLASSES = ("conv2d_dense", "conv2d_dw", "matmul")
OP_CLASSES = MAC_CLASSES + ("softmax", "layer_norm", "pool", "act",
                            "elementwise", "layout", "loss")

# (module, function) -> layer span name.
LAYER_SPANS = {
    ("layers", "patch_embed"): "layers.patch_embed",
    ("layers", "block_forward"): "layers.block",
    ("layers", "irb_forward"): "layers.irb",
    ("attention", "pmhsa_forward"): "attention.pmhsa",
    ("attention", "build_kv_sequence"): "attention.kv_sequence",
    ("attention", "multi_head_attention"): "attention.mha",
}
# Top-level spans: the data, forward, backward, optimizer and checkpoint
# steps an iteration is made of.
STEP_SPANS = {
    ("data", "load_batch"): "data.load_batch",
    ("tensor", "backward"): "tensor.backward",
    ("training", "adamw_step"): "training.adamw",
    ("model", "save_checkpoint"): "model.checkpoint_save",
}
SCOPES = ("stem", "stages.1", "stages.2", "stages.3", "stages.4", "head")


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run emits: (name, unit, better)."""
    out = []
    for cls in OP_CLASSES:
        out += [(f"tensor.{cls}.fwd_ms", "ms", "lower"),
                (f"tensor.{cls}.bwd_ms", "ms", "lower"),
                (f"tensor.{cls}.calls", "count", "lower"),
                (f"tensor.{cls}.out_mib", "MiB", "lower")]
        if cls in MAC_CLASSES:
            out += [(f"tensor.{cls}.gmacs", "GMAC", "lower"),
                    (f"tensor.{cls}.gmac_per_s", "GMAC/s", "higher")]
    out += [("tensor.nodes", "count", "lower"),
            ("tensor.fwd_glue_ms", "ms", "lower"),
            ("tensor.bwd_glue_ms", "ms", "lower"),
            ("tensor.backward_ms", "ms", "lower"),
            ("data.load_batch_ms", "ms", "lower"),
            ("data.load_batch_calls", "count", "lower"),
            ("training.adamw_ms", "ms", "lower"),
            ("training.non_build_dtype_params", "count", "lower"),
            ("model.forward_ms", "ms", "lower"),
            ("model.checkpoint_save_ms", "ms", "lower"),
            ("model.checkpoint_load_ms", "ms", "lower"),
            ("model.checkpoint_bytes", "bytes", "lower")]
    for name in sorted(set(LAYER_SPANS.values())):
        out += [(f"{name}.fwd_ms", "ms", "lower"), (f"{name}.bwd_ms", "ms", "lower")]
    for scope in SCOPES:
        out += [(f"scope.{scope}.fwd_ms", "ms", "lower"),
                (f"scope.{scope}.bwd_ms", "ms", "lower"),
                (f"scope.{scope}.counted_gmacs", "GMAC", "lower"),
                (f"scope.{scope}.analytic_gflop", "GFLOP", "lower"),
                (f"scope.{scope}.achieved_gflop_per_s", "GFLOP/s", "higher")]
    out += [("complexity.gflop_per_image", "GFLOP", "lower"),
            ("trace.overhead_pct", "%", "lower"),
            ("trace.coverage_pct", "%", "higher")]
    return out


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket it.

    A span is the list ``[name, start, end, parent, iteration, attrs]``;
    ``attrs`` is ``None`` or a dict of counts (op class, bytes, MACs, the
    scope and layer names a node was created under).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._layers: tuple[str, ...] = ()
        self._op_depth = 0
        self._forward: int | None = None
        self._scope: str | None = None
        self._scope_start = 0.0
        self._scope_of: dict[int, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.iteration, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def iteration_span(self, iteration: int):
        """One benchmark iteration: the root span its spans share an id with."""
        self.iteration = iteration
        idx = self._open("iteration")
        try:
            yield
        finally:
            self._close(idx)
            self.iteration = None

    def _switch_scope(self, scope: str | None) -> None:
        now = perf_counter()
        if self._scope is not None and self._forward is not None:
            self.spans.append([f"scope.{self._scope}", self._scope_start, now,
                               self._forward, self.iteration, None])
        self._scope, self._scope_start = scope, now

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, fn, name: str):
        def wrapped(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapped

    def _layer_wrapper(self, fn, name: str):
        # Patch embeds and blocks take their state as argument 1 and 3; the
        # state object names the accountant scope the layer belongs to.
        state_arg = {"layers.patch_embed": 1, "layers.block": 3}.get(name)

        def wrapped(*args, **kwargs):
            if state_arg is not None:
                state = args[state_arg] if len(args) > state_arg else kwargs.get("state")
                scope = self._scope_of.get(id(state))
                if scope is not None and scope != self._scope:
                    self._switch_scope(scope)
            outer = self._layers
            self._layers = outer + (name,)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._layers = outer
        return wrapped

    def _forward_classify_wrapper(self, fn):
        def wrapped(model, *args, **kwargs):
            self._scope_of = _scope_map(model)
            idx = self._open("model.forward")
            self._forward = idx
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._switch_scope(None)
                self._forward = None
                self._close(idx)
        return wrapped

    def _forward_features_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            self._switch_scope("stem")
            try:
                return fn(*args, **kwargs)
            finally:
                self._switch_scope("head")
        return wrapped

    def _op_wrapper(self, fn, opname: str):
        fixed_class = OP_CLASS[opname]

        def wrapped(*args, **kwargs):
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth += 1
            idx = self._open("op")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._op_depth -= 1
            cls, macs = fixed_class, 0
            if opname == "conv2d":
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                groups = args[5] if len(args) > 5 else kwargs.get("groups", 1)
                cls = "conv2d_dw" if groups > 1 else "conv2d_dense"
                macs = out.size * weight.shape[1] * weight.shape[2] * weight.shape[3]
            elif opname == "matmul":
                macs = out.size * args[0].shape[-1]
            span = self.spans[idx]
            span[0] = f"tensor.{cls}"
            span[5] = {"cls": cls, "bytes": out.data.nbytes, "macs": macs,
                       "scope": self._scope, "layers": self._layers,
                       "in_forward": self._forward is not None,
                       "node": out.creator is not None}
            if out.creator is not None:
                self._wrap_backward(out.creator, span[5])
            return out
        return wrapped

    def _wrap_backward(self, node, attrs: dict) -> None:
        original = node.backward_fn
        bwd_attrs = {"cls": attrs["cls"], "scope": attrs["scope"],
                     "layers": attrs["layers"], "bwd": True}

        def timed(g):
            idx = self._open(f"tensor.{bwd_attrs['cls']}.bwd", bwd_attrs)
            try:
                return original(g)
            finally:
                self._close(idx)
        node.backward_fn = timed

    # -- install / uninstall -----------------------------------------------
    def _targets(self) -> dict[int, object]:
        """id(original function) -> (original, wrapper)."""
        m = {name: sys.modules[f"ppvit.{name}"]
             for name in ("tensor", "attention", "layers", "model", "data", "training")}
        wrappers: dict[int, object] = {}

        def add(original, wrapper):
            wrappers[id(original)] = (original, wrapper)

        for opname in OP_CLASS:
            fn = getattr(m["tensor"], opname, None)
            if fn is not None:
                add(fn, self._op_wrapper(fn, opname))
        for (mod, attr), name in LAYER_SPANS.items():
            fn = getattr(m[mod], attr)
            add(fn, self._layer_wrapper(fn, name))
        for (mod, attr), name in STEP_SPANS.items():
            fn = getattr(m[mod], attr)
            add(fn, self._span_wrapper(fn, name))
        add(m["model"].forward_classify,
            self._forward_classify_wrapper(m["model"].forward_classify))
        add(m["model"].forward_features,
            self._forward_features_wrapper(m["model"].forward_features))
        return wrappers

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper.

        References live as ppvit module attributes and as values of
        module-level dicts (``layers._ACTS`` maps names to activations).
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = self._targets()
        for container, key, value in _references():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self._patched.append((container, key, value))
                _assign(container, key, hit[1])

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            _assign(container, key, original)
        self._patched = []
        leftover = find_wrappers()
        if leftover:
            raise AssertionError(f"still wrapped after uninstall: {leftover}")

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        """Dump spans as tab-separated lines (times in us from the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\titeration\tscope\n")
            for i, (name, start, end, parent, it, attrs) in enumerate(self.spans):
                scope = (attrs or {}).get("scope") or ""
                fh.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{'' if parent is None else parent}\t"
                         f"{'' if it is None else it}\t{scope}\n")

    def aggregate(self) -> tuple[dict[str, float], set[str]]:
        """Per-iteration sums, then the median over traced iterations.

        Returns the metrics and the set of scope names seen.
        """
        per_iter: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        scopes_seen: set[str] = set()
        for name, start, end, parent, it, attrs in self.spans:
            if it is None:
                continue
            acc = per_iter[it]
            ms = (end - start) * 1e3
            if attrs is not None and attrs.get("bwd"):
                acc[f"tensor.{attrs['cls']}.bwd_ms"] += ms
                acc["bwd_op_ms"] += ms
                for layer in set(attrs["layers"]):
                    acc[f"{layer}.bwd_ms"] += ms
                if attrs["scope"] is not None:
                    acc[f"scope.{attrs['scope']}.bwd_ms"] += ms
            elif attrs is not None:
                cls = attrs["cls"]
                acc[f"tensor.{cls}.fwd_ms"] += ms
                acc[f"tensor.{cls}.calls"] += 1
                acc[f"tensor.{cls}.out_mib"] += attrs["bytes"] / MIB
                acc[f"tensor.{cls}.gmacs"] += attrs["macs"] / 1e9
                acc["tensor.nodes"] += attrs["node"]
                if attrs["in_forward"]:
                    acc["fwd_op_ms"] += ms
                if attrs["scope"] is not None:
                    acc[f"scope.{attrs['scope']}.counted_gmacs"] += attrs["macs"] / 1e9
            elif name == "iteration":
                acc["iteration_ms"] += ms
            elif name.startswith("scope."):
                scopes_seen.add(name[len("scope."):])
                acc[f"{name}.fwd_ms"] += ms
            elif name == "tensor.backward":
                acc["tensor.backward_ms"] += ms
            elif name == "data.load_batch":
                acc["data.load_batch_ms"] += ms
                acc["data.load_batch_calls"] += 1
            elif name in ("training.adamw", "model.checkpoint_save", "model.forward"):
                acc[f"{name}_ms"] += ms
            else:
                acc[f"{name}.fwd_ms"] += ms
            if parent is not None and self.spans[parent][0] == "iteration":
                acc["covered_ms"] += ms
        for acc in per_iter.values():
            acc["tensor.fwd_glue_ms"] = acc["model.forward_ms"] - acc["fwd_op_ms"]
            acc["tensor.bwd_glue_ms"] = acc["tensor.backward_ms"] - acc["bwd_op_ms"]
            acc["trace.coverage_pct"] = 100.0 * acc["covered_ms"] / acc["iteration_ms"]
        keys = set().union(*per_iter.values()) if per_iter else set()
        out = {k: statistics.median(acc.get(k, 0.0) for acc in per_iter.values())
               for k in keys}
        for cls in MAC_CLASSES:
            fwd_s = out.get(f"tensor.{cls}.fwd_ms", 0.0) / 1e3
            out[f"tensor.{cls}.gmac_per_s"] = (
                out.get(f"tensor.{cls}.gmacs", 0.0) / fwd_s if fwd_s > 0 else 0.0)
        return out, scopes_seen


def _references():
    """(container, key, value) for every ppvit module attribute and every
    value of a module-level dict."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "ppvit" and not mod_name.startswith("ppvit."):
            continue
        for attr, value in list(vars(mod).items()):
            yield mod, attr, value
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    yield value, key, item


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def find_wrappers() -> list[str]:
    """Names of ppvit references that still point at a tracer wrapper."""
    return [f"{getattr(c, '__name__', 'dict')}.{k}" for c, k, v in _references()
            if getattr(getattr(v, "__code__", None), "co_filename", None) == __file__]


def _scope_map(model) -> dict[int, str]:
    """id(layer state) -> accountant scope, for the patch embeds and blocks."""
    scope_of = {id(model.stem): "stem"}
    for i, stage in enumerate(model.stages, start=1):
        if stage.embed is not None:
            scope_of[id(stage.embed)] = f"stages.{i}"
        for blk in stage.blocks:
            scope_of[id(blk)] = f"stages.{i}"
    return scope_of
