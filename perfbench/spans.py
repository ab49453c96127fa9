"""Span tracing from outside the library, by wrapping module attributes.

``Tracer.install`` replaces each traced function, in every ``sympeq``
module namespace that holds it, with a wrapper that records a span (name,
start, end, parent span, op id) while an operation is open. Spans live in
flat in-memory arrays and are written out once, at the end of the run.
Outside an operation the wrappers call straight through, so the benchmark's
own checks are never traced.

A span's self time is its duration minus the durations of its direct child
spans. Kernels are spans of the ``linalg`` layer, so a function's self time
excludes the numpy/scipy calls it makes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# span name -> (defining module, attribute); the layer is the name's prefix
TRACED = {
    "cli.run": ("sympeq.cli", "run"),
    "io.load_document": ("sympeq.io", "load_document"),
    "io.dumps": ("sympeq.io", "dumps"),
    "canonical.decompose": ("sympeq.canonical", "decompose"),
    "canonical.block_diagonalize_skew_hamiltonian": (
        "sympeq.canonical",
        "block_diagonalize_skew_hamiltonian",
    ),
    "canonical.factor_two_symmetric": ("sympeq.canonical", "factor_two_symmetric"),
    "canonical.williamson": ("sympeq.canonical", "williamson"),
    "invariants.invariants": ("sympeq.invariants", "invariants"),
    "gaussian.condense_correlations": ("sympeq.gaussian", "condense_correlations"),
    "gaussian.normalize_channel": ("sympeq.gaussian", "normalize_channel"),
    "gaussian.state_validity": ("sympeq.gaussian", "state_validity"),
    "gaussian.channel_validity": ("sympeq.gaussian", "channel_validity"),
    "gaussian.squeezing_witness": ("sympeq.gaussian", "squeezing_witness"),
    "gaussian.transform_bipartite": ("sympeq.gaussian", "transform_bipartite"),
    "core.reciprocal_condition": ("sympeq.core", "reciprocal_condition"),
    "core.is_symplectic": ("sympeq.core", "is_symplectic"),
    "core.hermitian_min_eig": ("sympeq.core", "hermitian_min_eig"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.eig": ("numpy.linalg", "eig"),
    "linalg.eigvals": ("numpy.linalg", "eigvals"),
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.inv": ("numpy.linalg", "inv"),
    "linalg.solve": ("numpy.linalg", "solve"),
    "linalg.schur": ("scipy.linalg", "schur"),
}
EIG_FAMILY = ("linalg.eig", "linalg.eigvals", "linalg.eigh", "linalg.eigvalsh")
WORK, PROBE = "work", "probe"  # kinds of traced operation: the workload's, or the io probe's


def svd_bytes(a, full_matrices=True, compute_uv=True, *args, **kwargs) -> int:
    """Bytes of an SVD's input and outputs, computed from the shapes."""
    a = np.asarray(a)
    m, n = a.shape[-2:]
    k = min(m, n)
    batch = int(np.prod(a.shape[:-2]))
    elems = m * n
    if compute_uv:
        elems += (m * m + n * n) if full_matrices else (m * k + k * n)
    itemsize = np.result_type(a.dtype, np.float64).itemsize
    return batch * (elems * itemsize + k * 8)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(TRACED)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.op_kinds: list[str] = []
        self.svd_bytes: dict[int, int] = {}
        self.report_bytes: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- operation scope ---------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.current_op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def end_op(self) -> None:
        self.current_op = -1
        self.stack.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self.name_id[name]
        tracer = self
        svd = name == "linalg.svd"
        dumps = name == "io.dumps"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            # outside an op, or a recursive call (io.dumps) -> no new span
            if tracer.current_op < 0 or (stack and tracer.span_name[stack[-1]] == nid):
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
            if svd:
                op = tracer.current_op
                tracer.svd_bytes[op] = tracer.svd_bytes.get(op, 0) + svd_bytes(*args, **kwargs)
            elif dumps:
                op = tracer.current_op
                tracer.report_bytes[op] = tracer.report_bytes.get(op, 0) + len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded sympeq namespace that
        holds it, plus its defining module (numpy.linalg, scipy.linalg)."""
        spaces = [m for key, m in sorted(sys.modules.items())
                  if key == "sympeq" or key.startswith("sympeq.")]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrapper(name, original)
            for space in {id(s): s for s in spaces + [sys.modules[module]]}.values():
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patched.append((space, key, value))
                        setattr(space, key, wrapper)

    def uninstall(self) -> None:
        for space, key, value in reversed(self._patched):
            setattr(space, key, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.asarray(self.names),
            "span_name": np.array(self.span_name, dtype=np.uint16),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "op_kinds": np.asarray(self.op_kinds, dtype=str),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, per workload operation.

        Times are means over the workload's operations (ms per op, kind
        WORK); ``io.*`` are means over the ops that ran ``cli.run``, workload
        or probe.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e6
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ms = dur - child
        kinds = a["op_kinds"]
        work = kinds[a["op"]] == WORK
        n_work = max(int(np.sum(kinds == WORK)), 1)
        is_name = {name: a["span_name"] == i for i, name in enumerate(self.names)}

        def total(name, values=dur, mask=work):
            return float(np.sum(values[is_name[name] & mask]))

        def count(name, mask=work):
            return int(np.sum(is_name[name] & mask))

        layer = np.asarray([n.split(".")[0] for n in self.names])[a["span_name"]]
        work_ops = {i for i, k in enumerate(self.op_kinds) if k == WORK}
        cli_ops = sorted(set(a["op"][is_name["cli.run"]].tolist()))
        on_cli = np.isin(a["op"], cli_ops)
        n_cli = max(len(cli_ops), 1)
        linalg = layer == "linalg"
        return {
            "canonical.stage1.ms": total("canonical.block_diagonalize_skew_hamiltonian") / n_work,
            "canonical.stage2.ms": total("canonical.factor_two_symmetric") / n_work,
            "canonical.decompose.self_ms": total("canonical.decompose", self_ms) / n_work,
            "canonical.williamson.ms": total("canonical.williamson") / n_work,
            "invariants.invariants.ms": total("invariants.invariants") / n_work,
            "invariants.invariants.calls_per_op": count("invariants.invariants") / n_work,
            "gaussian.self_ms": float(np.sum(self_ms[(layer == "gaussian") & work])) / n_work,
            "core.reciprocal_condition.calls_per_op": count("core.reciprocal_condition") / n_work,
            "core.reciprocal_condition.ms": total("core.reciprocal_condition") / n_work,
            "core.is_symplectic.ms": total("core.is_symplectic") / n_work,
            "linalg.ms": float(np.sum(dur[linalg & work])) / n_work,
            "linalg.svd_calls_per_op": count("linalg.svd") / n_work,
            "linalg.eig_calls_per_op": sum(count(n) for n in EIG_FAMILY) / n_work,
            "linalg.svd_bytes_per_op":
                sum(v for op, v in self.svd_bytes.items() if op in work_ops) / n_work,
            "io.load_ms": total("io.load_document", mask=on_cli) / n_cli,
            "io.dumps_ms": total("io.dumps", mask=on_cli) / n_cli,
            "io.report_bytes": sum(self.report_bytes.get(op, 0) for op in cli_ops) / n_cli,
        }
