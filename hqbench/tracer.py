"""Span tracer for hadaquant's layers, installed from outside the package.

Every listed public function is rebound to a timing wrapper wherever it is
bound: the package namespace and every ``hadaquant.*`` module that imported
it by name (``vquant.apply_hd``, ``residual.apply_hd`` and
``transform.apply_hd`` are one function). Nothing under ``src/`` is edited.
Spans (name, start, end, parent) are kept in memory; self time is a
span's duration minus the part of it that its child spans cover.
"""

import contextlib
import functools
import sys
import time

# Layer (module) -> public functions that get a span.
LAYERS = {
    "transform": ("stream_rng", "sample_signs", "apply_hd", "apply_hd_inverse"),
    "codebook": ("build_codebook", "quantize_scalar"),
    "vquant": ("vector_quant", "vector_dequant", "derive_base_signs", "derive_dither"),
    "residual": ("residual_quant", "residual_dequant", "derive_residual_signs"),
    "twostage": (
        "quantize_two_stage",
        "dequantize_two_stage",
        "estimate_inner_product",
        "project_unit_ball",
    ),
    "bitstream": ("encode", "decode", "rate_report"),
    "cli": (
        "read_vectors",
        "write_vectors",
        "encode_vector",
        "decode_payload",
        "cmd_quantize",
        "cmd_dequantize",
    ),
    "bench": (
        "mse_suite",
        "unbiased_suite",
        "inner_product_suite",
        "rate_suite",
        "dither_average_error",
    ),
    "oracle": ("u_average",),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

PHASE_PREFIX = "phase."


class Tracer:
    """Collects nested spans while installed; restores every binding on exit.

    Spans are kept as four parallel lists (name, start, end, parent index)
    rather than one object per span, so a long trace adds no objects for
    the garbage collector to scan.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self._bindings = []

    def _open(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one phase of a round."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def installed(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hadaquant" or n.startswith("hadaquant."))
        ]
        try:
            for name in FUNCTIONS:
                layer, fn_name = name.split(".")
                original = getattr(sys.modules[f"hadaquant.{layer}"], fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._bindings):
                setattr(mod, attr, original)
            self._bindings.clear()

    def summarize(self):
        """Per-function calls and self seconds, split by the enclosing phase span.

        Returns ``{(function, phase): [calls, self_seconds]}``; ``phase`` is the
        name after ``phase.`` of the nearest enclosing phase span, or ``None``.
        Parents precede their children, so one pass suffices.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        phase_of = [None] * len(durations)
        out = {}
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name.startswith(PHASE_PREFIX):
                phase_of[i] = name[len(PHASE_PREFIX):]
                continue
            phase_of[i] = phase_of[parent] if parent >= 0 else None
            entry = out.setdefault((name, phase_of[i]), [0, 0.0])
            entry[0] += 1
            entry[1] += durations[i] - covered[i]
        return out

    def to_json(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents}
