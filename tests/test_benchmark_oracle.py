"""The benchmark's own checks on the first jobs of each workload.

``benchmarks/run.py`` counts a job whose output its oracle rejects as
failed but still exits 0, so a hot-path change that breaks results on the
benchmark's inputs must fail here first.  ``workloads.py`` and
``oracle.py`` are loaded from their files and left as they are.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from blindqc import audit, circuits, lowering, protocol

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# the entry points the benchmark drives, as its harness passes them
PACKAGE = types.SimpleNamespace(circuits=circuits, lowering=lowering,
                                protocol=protocol, audit=audit)
# one cycle of the five wide and audit shapes
JOBS = 5


def _load(patch: pytest.MonkeyPatch, name: str):
    """``benchmarks/<name>.py`` imported under its bare name, as the
    benchmark's own modules import each other."""
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        _load(patch, "oracle")
        yield _load(patch, "workloads")


@pytest.mark.parametrize("name", ["run-narrow", "run-wide", "audit-exhaustive"])
def test_first_jobs_pass_the_benchmark_oracle(workloads, name):
    assert name in workloads.WORKLOADS
    wl = workloads.build(PACKAGE, name, 1)
    for job in wl.jobs[:JOBS]:
        out = wl.outputs(wl.run(job))
        assert wl.check(job, out) == [], f"{name} job {job.index}"
        for what, bad in wl.corruptions(out):
            assert wl.check(job, bad), f"{name} checks missed a {what}"
