"""Dtype dataflow: find float64 creep in a float32 deployment.

The substrate deploys at ``float32`` (``set_default_dtype`` — half the
memory traffic of float64, which on a memory-bound numpy substrate is
close to half the wall-clock).  numpy's promotion rules silently undo
that the moment a strong float64 operand touches the stream: one
``np.float64`` scalar constant, one accumulator allocated with the
default dtype, and every downstream elementwise op moves twice the
bytes.  The runtime never complains — the result is merely slow.

Two analyses share this module:

* :func:`dtype_flow` — a forward lattice sweep over a traced
  :class:`~repro.ir.graph.Graph` (trace the model at float32; see
  :func:`repro.perf.report.trace_at`).  Every ``float64`` op node whose
  inputs include a narrower float is *widened traffic*; the pass walks
  back to the node that introduced the widening (a strong float64
  ``const``/``param``/``buffer``, or an op that promoted) and reports
  one ``REPRO301`` per origin call-site with the total downstream bytes
  it taints.  ``cast`` nodes that immediately undo a transient widening
  (f32 → f64 chain → f32) or cast to their own dtype are ``REPRO307``
  cast churn.
* :func:`audit_dtypes` — an AST audit of the float32 feature/training
  pipeline (``features/``, ``train/`` by default): explicit
  ``astype(np.float64)`` / ``dtype=np.float64`` is ``REPRO301``;
  ``np.zeros``/``np.ones``/``np.empty`` without a ``dtype=`` argument
  allocates float64 by default and is ``REPRO302``.

Both emit findings in the shared :class:`repro.lint.rules.LintDiagnostic`
format and honour ``# noqa`` on the flagged source line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from repro.ir.graph import Graph, Node
from repro.ir.passes import node_finding
from repro.lint.rules import LintDiagnostic, _noqa_lines

__all__ = ["dtype_flow", "audit_dtypes", "DTYPE_AUDIT_PACKAGES"]

# Packages that must stay float32 end-to-end: the feature extraction
# and dataset pipeline feeding the models.  Placement/routing math is
# float64 on purpose (coordinates, costs), so it is not audited here.
DTYPE_AUDIT_PACKAGES = ("features", "train")

_WIDE = np.dtype(np.float64)


def _is_float(dtype: np.dtype) -> bool:
    return dtype.kind == "f"


def _is_weak_scalar(node: Node) -> bool:
    """Exact python scalars promote weakly (NEP 50): never a widener."""
    return bool(node.meta.get("weak"))


def dtype_flow(graph: Graph, *, expected=np.float32) -> dict:
    """Flag float64 creep in a graph expected to run at ``expected``.

    Returns ``{"expected", "widened_ops", "widened_bytes", "origins",
    "findings"}`` where each origin carries the node that introduced the
    widening and the op bytes it taints downstream.
    """
    expected = np.dtype(expected)
    findings: list[LintDiagnostic] = []

    # -- forward sweep: which op nodes run wider than expected -----------------
    widened: list[Node] = [
        n
        for n in graph
        if n.kind == "op" and _is_float(n.dtype) and n.dtype.itemsize > expected.itemsize
    ]
    widened_ids = {n.id for n in widened}

    # -- origin attribution: walk each widened node back to the widener --------
    # A widener is (a) a strong float64 leaf (const/param/buffer) feeding
    # a float op, or (b) an op whose inputs are all <= expected width but
    # whose result is wider (a promotion the trace itself performed).
    origin_of: dict[int, int] = {}  # widened op id -> origin node id

    def classify(node: Node) -> int:
        if node.id in origin_of:
            return origin_of[node.id]
        wide_parents = [
            graph[i]
            for i in node.inputs
            if (graph[i].id in widened_ids)
            or (
                graph[i].kind != "op"
                and _is_float(graph[i].dtype)
                and graph[i].dtype.itemsize > expected.itemsize
                and not _is_weak_scalar(graph[i])
            )
        ]
        if not wide_parents:
            origin = node.id  # this op itself promoted
        else:
            parent = wide_parents[0]
            origin = classify(parent) if parent.kind == "op" else parent.id
        origin_of[node.id] = origin
        return origin

    tainted_bytes: dict[int, int] = {}
    tainted_ops: dict[int, int] = {}
    for node in widened:
        origin = classify(node)
        tainted_bytes[origin] = tainted_bytes.get(origin, 0) + node.bytes
        tainted_ops[origin] = tainted_ops.get(origin, 0) + 1

    origins = []
    for origin_id in sorted(tainted_bytes):
        origin = graph[origin_id]
        # Findings anchor at the first widened *op* for leaf origins —
        # a param/buffer/const has no useful call-site of its own.
        anchor = origin
        if origin.kind != "op" or not origin.src:
            anchor = next(
                n for n in widened if origin_of[n.id] == origin_id and n.src
            )
        wasted = tainted_bytes[origin_id] // 2  # float64 -> float32 halves
        origins.append(
            {
                "origin": origin_id,
                "origin_kind": origin.kind,
                "origin_op": origin.op,
                "origin_name": origin.name,
                "scope": anchor.scope,
                "src": anchor.src,
                "tainted_ops": tainted_ops[origin_id],
                "tainted_bytes": tainted_bytes[origin_id],
                "predicted_saving_bytes": wasted,
            }
        )
        what = (
            f"strong float64 {origin.kind} {origin.name or origin.op!r}"
            if origin.kind != "op"
            else f"promotion at {origin.op!r}"
        )
        findings.append(
            node_finding(
                anchor,
                "REPRO301",
                f"{what} widens {tainted_ops[origin_id]} downstream op(s) "
                f"to float64 ({tainted_bytes[origin_id]:,} bytes of "
                f"doubled traffic in a {expected.name} graph)",
            )
        )

    # -- cast churn ------------------------------------------------------------
    churn = []
    for node in graph:
        if node.kind != "op" or node.op != "cast":
            continue
        src_node = graph[node.inputs[0]]
        if node.dtype == src_node.dtype:
            churn.append(node)
            findings.append(
                node_finding(
                    node,
                    "REPRO307",
                    f"cast to its own dtype {node.dtype.name} copies "
                    f"{node.bytes:,} bytes for nothing",
                )
            )
        elif (
            node.dtype.itemsize < src_node.dtype.itemsize
            and src_node.id in widened_ids
        ):
            churn.append(node)
            findings.append(
                node_finding(
                    node,
                    "REPRO307",
                    f"cast back to {node.dtype.name} right after a transient "
                    f"{src_node.dtype.name} excursion — keep the chain in "
                    f"{node.dtype.name} instead",
                )
            )

    return {
        "expected": expected.name,
        "widened_ops": len(widened),
        "widened_bytes": sum(n.bytes for n in widened),
        "predicted_saving_bytes": sum(o["predicted_saving_bytes"] for o in origins),
        "cast_churn": len(churn),
        "origins": origins,
        "findings": findings,
    }


# -- AST audit of the float32 pipeline ----------------------------------------

# Allocators whose dtype defaults to float64 when the argument is omitted.
_DEFAULT_F64_ALLOCATORS = {"zeros", "ones", "empty"}


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _mentions_float64(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and sub.value in ("float64", ">f8", "f8"):
            return True
        if isinstance(sub, (ast.Attribute, ast.Name)) and _dotted(sub) in (
            "np.float64",
            "numpy.float64",
            "float64",
        ):
            return True
    return False


class _DtypeAuditor(ast.NodeVisitor):
    def __init__(self, path: str, suppressed: dict) -> None:
        self.path = path
        self.suppressed = suppressed
        self.findings: list[LintDiagnostic] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        codes = self.suppressed.get(line, ())
        if codes is None or (codes and code in codes):
            return
        self.findings.append(
            LintDiagnostic(
                self.path, line, getattr(node, "col_offset", 0), code, message
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        tail = name.rsplit(".", 1)[-1]
        kwargs = {kw.arg for kw in node.keywords if kw.arg}

        if tail == "astype" and node.args and _mentions_float64(node.args[0]):
            self._report(
                node,
                "REPRO301",
                "astype(float64) widens a float32-pipeline array; keep the "
                "pipeline float32 (or justify with # noqa: REPRO301)",
            )
        elif any(
            kw.arg == "dtype" and _mentions_float64(kw.value)
            for kw in node.keywords
        ):
            self._report(
                node,
                "REPRO301",
                "explicit dtype=float64 allocation in a float32 pipeline",
            )
        elif (
            tail in _DEFAULT_F64_ALLOCATORS
            and name.startswith(("np.", "numpy."))
            and name.count(".") == 1
            and "dtype" not in kwargs
            and len(node.args) < 2  # second positional arg is the dtype
        ):
            self._report(
                node,
                "REPRO302",
                f"np.{tail}() without dtype= allocates float64 by default; "
                "pass dtype=np.float32 in this pipeline",
            )
        self.generic_visit(node)


def audit_dtype_file(path: str | Path) -> list[LintDiagnostic]:
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintDiagnostic(
                str(path), exc.lineno or 0, exc.offset or 0, "REPRO000",
                f"syntax error: {exc.msg}",
            )
        ]
    auditor = _DtypeAuditor(str(path), _noqa_lines(source))
    auditor.visit(tree)
    return auditor.findings


def audit_dtypes(paths: list[str | Path] | None = None) -> dict:
    """AST dtype audit of the float32 pipeline (features + train)."""
    if paths is None:
        package_root = Path(__file__).resolve().parents[1]
        paths = [package_root / sub for sub in DTYPE_AUDIT_PACKAGES]
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    findings: list[LintDiagnostic] = []
    for f in files:
        findings.extend(audit_dtype_file(f))
    findings.sort(key=lambda d: (d.path, d.line, d.col))
    return {"audited_files": len(files), "findings": findings}
