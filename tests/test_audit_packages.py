"""Every package an AST audit names must exist.

The audits raise on a missing path instead of skipping it, so a
misspelled or deleted package fails here rather than auditing nothing.
"""

from pathlib import Path

import pytest

from repro.ir.determinism import DEFAULT_AUDIT_PACKAGES
from repro.numcheck.flowlint import FLOW_PACKAGES as NUMCHECK_FLOW_PACKAGES
from repro.perf.aliasing import COPY_AUDIT_PACKAGES
from repro.perf.dtypeflow import DTYPE_AUDIT_PACKAGES
from repro.perf.loops import LOOP_AUDIT_PACKAGES
from repro.scaling.nests import FLOW_PACKAGES as SCALING_FLOW_PACKAGES

_PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

_LISTS = {
    "ir.determinism.DEFAULT_AUDIT_PACKAGES": DEFAULT_AUDIT_PACKAGES,
    "numcheck.flowlint.FLOW_PACKAGES": NUMCHECK_FLOW_PACKAGES,
    "perf.aliasing.COPY_AUDIT_PACKAGES": COPY_AUDIT_PACKAGES,
    "perf.dtypeflow.DTYPE_AUDIT_PACKAGES": DTYPE_AUDIT_PACKAGES,
    "perf.loops.LOOP_AUDIT_PACKAGES": LOOP_AUDIT_PACKAGES,
    "scaling.nests.FLOW_PACKAGES": SCALING_FLOW_PACKAGES,
}


@pytest.mark.parametrize(
    "owner,package",
    [(owner, pkg) for owner, pkgs in _LISTS.items() for pkg in pkgs],
)
def test_audited_package_is_a_directory(owner, package):
    assert (_PACKAGE_ROOT / package).is_dir(), (
        f"{owner} names {package!r}, which is not a package under src/repro"
    )
