"""Loop-shape audit: Python-level iteration where numpy should vectorize.

The IR sees only what was traced through a ``Module.forward``; the
placement flow, feature extraction and training loop are plain Python
over ndarrays, where the expensive anti-patterns live at the *statement*
level.  Three AST rules cover them:

* ``REPRO306`` — a ``for`` loop whose body indexes an array with the
  loop variable (``for i in range(n): acc += grid[i] * w[i]``).  Each
  such subscript is a full interpreter round-trip per element; the
  vectorized form is typically 100–1000× faster.  Reported once per
  loop (not per subscript) to keep the signal readable.
* ``REPRO308`` — an array allocation (``np.zeros``/``stack``/``copy``/
  ``concatenate``...) inside a loop body.  Allocation cost is paid per
  iteration; hoisting the buffer (or batching with one call after the
  loop) pays it once.
* ``REPRO312`` — ``np.<ufunc>.at(...)`` scatter.  ``ufunc.at`` takes an
  unbuffered per-element path that is orders of magnitude slower than
  ``np.bincount``-style accumulation for add-scatters (measured in
  :mod:`repro.perf.validate`).

Only advisory severities: loops can be cold, allocations can be tiny.
The report ranks by file and honours ``# noqa: REPROxxx``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.rules import LintDiagnostic, _noqa_lines

__all__ = ["audit_loops", "LOOP_AUDIT_PACKAGES"]

LOOP_AUDIT_PACKAGES = ("features", "train", "placement", "routing")

# Allocator calls that create a fresh ndarray each invocation.
_ALLOCATORS = {
    "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "array", "stack", "concatenate",
    "tile", "repeat", "copy", "arange", "linspace", "meshgrid",
}


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _loop_vars(target: ast.AST) -> set[str]:
    return {
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    }


class _LoopAuditor(ast.NodeVisitor):
    def __init__(self, path: str, suppressed: dict) -> None:
        self.path = path
        self.suppressed = suppressed
        self.findings: list[LintDiagnostic] = []
        self._loop_depth = 0

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

    def visit_For(self, node: ast.For) -> None:
        loop_vars = _loop_vars(node.target)
        # REPRO306: loop-variable-indexed subscript loads in the body.
        elementwise_reads = 0
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Subscript):
                continue
            index_names = {
                n.id for n in ast.walk(sub.slice) if isinstance(n, ast.Name)
            }
            if index_names & loop_vars:
                elementwise_reads += 1
        if elementwise_reads:
            self._report(
                node,
                "REPRO306",
                f"Python loop indexes arrays with its loop variable "
                f"({elementwise_reads} subscript(s)); a vectorized "
                "formulation avoids the per-element interpreter round-trip",
            )

        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        tail = name.rsplit(".", 1)[-1]
        # REPRO312: np.<ufunc>.at scatter, loop or not.
        if (
            tail == "at"
            and name.count(".") == 2
            and name.startswith(("np.", "numpy."))
        ):
            ufunc = name.split(".")[1]
            hint = (
                "np.bincount(idx, weights=...) is immune to the fallback"
                if ufunc == "add"
                else "keep the output and value dtypes equal"
            )
            self._report(
                node,
                "REPRO312",
                f"np.{ufunc}.at() drops to numpy's unbuffered per-element "
                f"fallback (~30x, measured) whenever operand dtypes "
                f"mismatch; {hint}",
            )
        # REPRO308: allocator inside a loop body.
        elif self._loop_depth > 0 and tail in _ALLOCATORS:
            is_np_call = name.startswith(("np.", "numpy.")) and name.count(".") == 1
            is_method_copy = tail == "copy" and "." in name and not node.args
            if is_np_call or is_method_copy:
                self._report(
                    node,
                    "REPRO308",
                    f"{tail}() allocates a fresh array every loop iteration; "
                    "hoist the buffer out of the loop or batch the call",
                )
        self.generic_visit(node)


def audit_loop_file(path: str | Path) -> list[LintDiagnostic]:
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
    auditor = _LoopAuditor(str(path), _noqa_lines(source))
    auditor.visit(tree)
    return auditor.findings


def audit_loops(paths: list[str | Path] | None = None) -> dict:
    """AST loop/allocation audit of the flow packages."""
    if paths is None:
        package_root = Path(__file__).resolve().parents[1]
        paths = [package_root / sub for sub in LOOP_AUDIT_PACKAGES]
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    findings: list[LintDiagnostic] = []
    for f in files:
        findings.extend(audit_loop_file(f))
    findings.sort(key=lambda d: (d.path, d.line, d.col))
    return {"audited_files": len(files), "findings": findings}
