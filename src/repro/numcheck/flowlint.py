"""Mixed-precision accumulation lint over the untraced flow code.

The tracer sees the model graphs; the placer/router/feature pipeline is
plain numpy the envelope cannot reach.  These AST rules cover the three
precision hazards that matter there:

* ``REPRO806`` (blocking) — a ``cumsum``/``bincount`` accumulation
  whose operand is explicitly marked float32 (``astype(np.float32)``,
  ``dtype=np.float32``): grid-sized running sums at 24-bit precision
  lose low-order mass exactly where the congestion integrals
  (:mod:`repro.features.grids`) need it.  Untyped accumulations are not
  flagged — numpy's default float64 is the safe case.
* ``REPRO807`` (advisory) — ``np.exp`` without a visible stabilizer:
  no max/min shift in the argument, no clip/negation bound, no
  log-domain pairing.  The flow's real ``exp`` sites (the wirelength
  LSE kernels, the Metropolis acceptance, the log-domain gamma) all
  carry one of these shapes and stay silent.
* ``REPRO808`` (advisory) — an ``allclose``/``isclose`` tolerance
  literal tighter than float32 unit roundoff (2^-24): a comparison no
  float32 pipeline can be expected to pass is a latent flaky test, not
  a precision guarantee.

Findings honour per-line ``# noqa: REPRO80x`` suppressions via the
shared lint machinery.
"""

from __future__ import annotations

import ast
import os

from ..lint.rules import LintDiagnostic, _noqa_lines

__all__ = ["FLOW_PACKAGES", "lint_flow", "lint_source"]

#: Same flow surface the scaling nest lint certifies.
FLOW_PACKAGES = ("placement", "routing", "features", "netlist")

#: Float32 unit roundoff — the floor below which no float32 result can
#: be meaningfully compared.
_U32 = 2.0 ** -24

_ACCUMULATORS = ("cumsum", "bincount")
_GUARD_FRAGMENTS = ("max", "min", "log", "shift", "clip")


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _names_in(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_float32_marked(node: ast.AST) -> bool:
    """Whether the expression subtree pins itself to float32."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "float32":
            return True
        if isinstance(sub, ast.Name) and sub.id.endswith("_f32"):
            return True
    return False


def _exp_is_guarded(arg: ast.AST) -> bool:
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        return True  # exp(-x): bounded above by 1 for x >= 0 idioms
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Div, ast.Mult)):
        # exp(-x / t) and exp(-x * s): the Metropolis-acceptance shape.
        if _exp_is_guarded(arg.left):
            return True
    for name in _names_in(arg):
        low = name.lower()
        if any(frag in low for frag in _GUARD_FRAGMENTS):
            return True
    return False


def _tolerance_literals(call: ast.Call):
    for kw in call.keywords:
        if kw.arg in ("atol", "rtol") and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, float):
                yield kw.arg, kw.value.value


class _FlowVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: list[LintDiagnostic] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            LintDiagnostic(
                self.path, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), code, message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in _ACCUMULATORS:
            operands = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            receiver = (
                [node.func.value]
                if isinstance(node.func, ast.Attribute)
                else []
            )
            if any(_is_float32_marked(o) for o in operands + receiver):
                self._report(
                    node, "REPRO806",
                    f"{name}() accumulates a float32-marked operand: "
                    "grid-sized running sums need float64 headroom "
                    "(accumulate first, demote after)",
                )
        elif name == "exp":
            if node.args and not _exp_is_guarded(node.args[0]):
                self._report(
                    node, "REPRO807",
                    "np.exp without a visible stabilizer (max-shift, "
                    "clip, negation bound or log-domain pairing); "
                    "unbounded arguments overflow float32 at ~88.7",
                )
        elif name in ("allclose", "isclose"):
            for arg, value in _tolerance_literals(node):
                if 0.0 < value < _U32:
                    self._report(
                        node, "REPRO808",
                        f"{name}({arg}={value:g}) is tighter than float32 "
                        f"unit roundoff ({_U32:.3g}); no float32 result "
                        "can certify to this tolerance",
                    )
        self.generic_visit(node)


def lint_source(source: str, path: str) -> list[LintDiagnostic]:
    """Lint one flow module's source text (exposed for fixtures/tests)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    visitor = _FlowVisitor(path)
    visitor.visit(tree)
    suppressed = _noqa_lines(source)
    kept = []
    for f in visitor.findings:
        codes = suppressed.get(f.line, ())
        if codes is None or (codes and f.code in codes):
            continue
        kept.append(f)
    return kept


def lint_flow(root: str | None = None) -> dict:
    """Lint every module of the flow packages under ``root``.

    ``root`` defaults to the installed ``repro`` package directory.
    Returns ``{"findings": [...], "audited_files": [...]}`` with
    repo-relative paths and a stable file order.
    """
    if root is None:
        # .../src/repro/numcheck/flowlint.py -> .../src
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    findings: list[LintDiagnostic] = []
    audited: list[str] = []
    for package in FLOW_PACKAGES:
        pkg_dir = os.path.join(root, "repro", package)
        for fname in sorted(os.listdir(pkg_dir)):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(pkg_dir, fname)
            rel = os.path.join("repro", package, fname)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            audited.append(rel)
            findings.extend(lint_source(source, rel))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return {"findings": findings, "audited_files": audited}
