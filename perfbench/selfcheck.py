"""Self-check of the benchmark's tracing: the wrappers come off cleanly.

::

    python3 perfbench/selfcheck.py

Captures every wrapped attribute, installs the wrappers, plans a small
spec traced (through a plan store, so the store layer is wrapped too),
uninstalls, and plans the same spec again untraced.  It checks that

1. every patched attribute is the original object again,
2. the traced plan recorded spans and the untraced one recorded none,
3. both plans are bit-identical.

Exits 0 when all hold, 1 otherwise.  Needs about two seconds.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from repro.api import PlanSpec, Planner  # noqa: E402
from repro.service import wire  # noqa: E402

SPEC = PlanSpec("bert-large", stages=2, microbatches=3, freq_stride=24)


def snapshot() -> dict:
    """Every attribute a full install patches, by identity."""
    return {(owner, name): owner.__dict__[name]
            for owner, name, _, _ in tracing.targets()}


def plan(store: str, tracer: tracing.Tracer):
    with tracer.request("m-check"):
        return Planner(cache=store).plan(SPEC)


def main() -> int:
    work = os.path.join(ROOT, ".perfbench-work", "selfcheck")
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    before = snapshot()

    tracer = tracing.Tracer(measured_prefix="m")
    installed = tracing.install(tracer)
    traced = plan(os.path.join(work, "a"), tracer)
    tracing.uninstall(installed)
    traced_spans = len(tracer.spans)
    plain = plan(os.path.join(work, "b"), tracer)

    after = snapshot()
    changed = [f"{owner.__name__}.{name}" for (owner, name), value
               in before.items() if after[(owner, name)] is not value]
    if changed or tracing.unpatched_targets():
        failures.append(f"attributes not restored: {changed}")
    if traced_spans == 0:
        failures.append("the traced plan recorded no spans")
    if len(tracer.spans) != traced_spans:
        failures.append("the untraced plan recorded spans")
    if not wire.reports_equal(traced, plain):
        failures.append("traced and untraced plans differ")
    shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"ok: {len(before)} wrapped attributes restored, "
              f"{traced_spans} spans traced, plans bit-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
