"""Copy/alias dataflow: classify every allocation, flag the avoidable ones.

The IR already models aliasing precisely (views are zero-byte nodes
pointing at the buffer they borrow — :mod:`repro.ir.symbolic`), which is
exactly the information needed to decide whether a ``copy`` was *worth
an allocation*:

* **required** — the source buffer is read again after the copy, or the
  copy crosses into an output that must not alias caller state;
* **redundant** (``REPRO303``) — the copy is the last read of a source
  buffer that is itself a private intermediate: mutating the original in
  place (or simply using it) would have been free;
* **broadcast materialization** (``REPRO304``) — an elementwise op whose
  output buffer is ≥ 2× larger than every input buffer it reads: most of
  the written bytes are replicated broadcast data that a fused consumer
  would never materialize.

:func:`alias_analysis` runs over a traced :class:`~repro.ir.graph.Graph`.
:func:`audit_copies` is the AST companion for the un-traceable
placement/routing/netlist flow code, catching the two defensive-copy
shapes the graph pass proves safe in traced code:

1. ``arr[fancy_index].copy()`` — advanced indexing already returns a
   fresh array; the ``.copy()`` doubles the allocation.
2. ``x = x.copy()`` at the top of a function that can *return* ``x``
   (or values derived from it) before the first statement that mutates
   ``x`` — the no-op early-exit path pays for a copy it never needed;
   move the copy below the guard.

Findings use the shared diagnostic format and honour ``# noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.ir.graph import Graph
from repro.ir.passes import node_finding
from repro.lint.rules import LintDiagnostic, _noqa_lines

__all__ = ["alias_analysis", "audit_copies", "COPY_AUDIT_PACKAGES"]

COPY_AUDIT_PACKAGES = ("features", "train", "placement", "routing", "netlist")

_COPY_OPS = {"copy", "copy_reshape"}
_ELEMENTWISE = {
    "add", "subtract", "multiply", "divide", "negative", "exp", "log",
    "sqrt", "tanh", "abs", "power", "maximum", "minimum", "where",
}


def alias_analysis(graph: Graph, *, blowup_factor: float = 2.0) -> dict:
    """Classify allocations; return copy/broadcast findings and stats."""
    live_out = graph.live_through_end()
    findings: list[LintDiagnostic] = []

    # Last position at which each buffer is read (through any view).
    last_read: dict[int, int] = {}
    for node in graph:
        for input_id in node.inputs:
            buf = graph.buffer_of(input_id)
            last_read[buf] = node.id

    required = redundant = 0
    redundant_bytes = 0
    copies = []
    for node in graph:
        if node.kind != "op" or node.op not in _COPY_OPS:
            continue
        src_buf = graph.buffer_of(node.inputs[0])
        src = graph[src_buf]
        # A copy is redundant when it is the final read of a private
        # intermediate: nothing reads the source afterwards, the source
        # is not caller-visible (input/param/buffer/const) and does not
        # itself have to survive as an output.
        is_redundant = (
            src.kind == "op"
            and last_read.get(src_buf, node.id) == node.id
            and src_buf not in live_out
        )
        copies.append(
            {
                "node": node.id,
                "op": node.op,
                "bytes": node.bytes,
                "src": node.src,
                "scope": node.scope,
                "source_node": src_buf,
                "classification": "redundant" if is_redundant else "required",
            }
        )
        if is_redundant:
            redundant += 1
            redundant_bytes += node.bytes
            findings.append(
                node_finding(
                    node,
                    "REPRO303",
                    f"copy of %{src_buf} ({node.bytes:,} bytes) is its last "
                    "read and the source is a private intermediate — the "
                    "original buffer could be reused",
                )
            )
        else:
            required += 1

    # -- broadcast materialization blowup --------------------------------------
    blowups = []
    blowup_bytes = 0
    for node in graph:
        if node.kind != "op" or node.op not in _ELEMENTWISE or node.bytes == 0:
            continue
        input_bytes = []
        for input_id in node.inputs:
            buf = graph[graph.buffer_of(input_id)]
            size = int(buf.size) * buf.dtype.itemsize
            input_bytes.append(size)
        largest = max(input_bytes, default=0)
        if largest and node.bytes >= blowup_factor * largest:
            wasted = node.bytes - largest
            blowup_bytes += wasted
            blowups.append(
                {
                    "node": node.id,
                    "op": node.op,
                    "bytes": node.bytes,
                    "largest_input_bytes": largest,
                    "wasted_bytes": wasted,
                    "src": node.src,
                    "scope": node.scope,
                }
            )
            findings.append(
                node_finding(
                    node,
                    "REPRO304",
                    f"output ({node.bytes:,} bytes) is "
                    f"{node.bytes / largest:.1f}x its largest input buffer "
                    f"({largest:,} bytes): mostly materialized broadcast "
                    "data a fused consumer would not allocate",
                )
            )

    return {
        "copies": copies,
        "required_copies": required,
        "redundant_copies": redundant,
        "redundant_copy_bytes": redundant_bytes,
        "broadcast_blowups": len(blowups),
        "broadcast_blowup_bytes": blowup_bytes,
        "blowups": blowups,
        "findings": findings,
    }


# -- AST defensive-copy audit --------------------------------------------------


def _is_fancy_index(index: ast.AST) -> bool:
    """True when the subscript uses advanced (copying) indexing."""
    if isinstance(index, ast.Slice):
        return False
    if isinstance(index, ast.Tuple):
        return any(_is_fancy_index(e) for e in index.elts)
    if isinstance(index, ast.Constant):
        return False  # scalar index -> view of a row, not a copy
    # A bare Name/Call/comparison as index is an index *array*.
    return isinstance(index, (ast.Name, ast.Call, ast.Compare, ast.BinOp))


def _mutates_name(stmt: ast.stmt, name: str) -> bool:
    """Does ``stmt`` mutate array ``name`` in place (store/aug/ufunc.at)?"""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("at", "fill", "sort", "put", "resize")
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == name
            ):
                return True
    return False


def _returns_name(stmt: ast.stmt, name: str) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
    return False


class _CopyAuditor(ast.NodeVisitor):
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

    # Pattern 1: <subscript with advanced index>.copy()
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "copy"
            and not node.args
            and isinstance(func.value, ast.Subscript)
            and _is_fancy_index(func.value.slice)
        ):
            self._report(
                node,
                "REPRO303",
                "advanced indexing already returns a fresh array; the "
                ".copy() doubles the allocation",
            )
        # Pattern 3: astype to the spelled-out current dtype is covered by
        # the graph pass; here catch astype(..., copy=True) chained twice.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Attribute)
            and func.value.func.attr == "astype"
        ):
            self._report(
                node,
                "REPRO309",
                "chained astype().astype() materializes an intermediate "
                "copy; cast once to the final dtype",
            )
        self.generic_visit(node)

    # Pattern 2: x = x.copy() before an early return of x.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_guarded_copies(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_guarded_copies(self, fn: ast.FunctionDef) -> None:
        copy_stmts: dict[str, ast.stmt] = {}
        for stmt in fn.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "copy"
                and isinstance(stmt.value.func.value, ast.Name)
                and stmt.value.func.value.id == stmt.targets[0].id
            ):
                copy_stmts[stmt.targets[0].id] = stmt
        if not copy_stmts:
            return
        for name, copy_stmt in copy_stmts.items():
            seen_copy = False
            for stmt in fn.body:
                if stmt is copy_stmt:
                    seen_copy = True
                    continue
                if not seen_copy:
                    continue
                if _mutates_name(stmt, name):
                    break  # copy justified before any return
                if _returns_name(stmt, name):
                    self._report(
                        copy_stmt,
                        "REPRO303",
                        f"{name!r} is copied before an early exit that "
                        "returns it unchanged; move the copy below the "
                        "guard so the no-op path allocates nothing",
                    )
                    break


def audit_copy_file(path: str | Path) -> list[LintDiagnostic]:
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
    auditor = _CopyAuditor(str(path), _noqa_lines(source))
    auditor.visit(tree)
    return auditor.findings


def audit_copies(paths: list[str | Path] | None = None) -> dict:
    """AST defensive-copy audit of the flow packages."""
    if paths is None:
        package_root = Path(__file__).resolve().parents[1]
        paths = [package_root / sub for sub in COPY_AUDIT_PACKAGES]
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    findings: list[LintDiagnostic] = []
    for f in files:
        findings.extend(audit_copy_file(f))
    findings.sort(key=lambda d: (d.path, d.line, d.col))
    return {"audited_files": len(files), "findings": findings}
