"""Line and function coverage of ``src/repro`` under a pytest run.

A stdlib-only reader: it installs a :func:`sys.settrace` tracer (and
:func:`threading.settrace` for threads started later), runs pytest
in-process, and then compares what ran with what could run:

* *executable lines* are every line number the compiled code objects
  of a module map instructions to (``co_lines``), nested functions,
  classes and comprehensions included;
* a *function* is a code object compiled with fresh locals (a ``def``
  or ``async def``; lambdas and comprehensions are left out), and it
  is *never called* if the tracer saw no call into it.

The reading prints one row per module (executable lines, executed
lines, percentage), the total, and every never-called function as
``module:qualname (line)``.  Work done in child processes (``repro``
CLI children, process pools, daemons in their own process) is not
traced, so a function only those reach shows as never called.

Tracing costs about four times the suite's untraced time.  It is not a
CI step; run it from the repository root when a coverage figure is
wanted::

    python benchmarks/coverage_reading.py                 # all of tests/
    python benchmarks/coverage_reading.py --json cov.json -- tests/test_fleet.py

Arguments after ``--`` go to pytest (default: ``tests``).  The exit
status is pytest's.
"""

from __future__ import annotations

import argparse
import dis
import inspect
import json
import os
import sys
import threading
import types
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: A ``def`` body: compiled with fresh, optimized locals.  Module and
#: class bodies lack these flags.
_FUNCTION_FLAGS = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS


def _code_lines(code: types.CodeType) -> Iterator[int]:
    if hasattr(code, "co_lines"):  # 3.10+
        for _start, _end, line in code.co_lines():
            if line is not None:
                yield line
    else:
        for _offset, line in dis.findlinestarts(code):
            yield line


def _walk(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk(const)


def _static(path: str) -> Tuple[Set[int], List[Tuple[int, str]]]:
    """Executable lines and ``(first line, qualname)`` of each function."""
    with open(path, encoding="utf-8") as fp:
        module = compile(fp.read(), path, "exec")
    lines: Set[int] = set()
    functions = []
    for code in _walk(module):
        lines.update(_code_lines(code))
        name = getattr(code, "co_qualname", code.co_name)
        if code.co_flags & _FUNCTION_FLAGS == _FUNCTION_FLAGS \
                and not code.co_name.startswith("<"):
            functions.append((code.co_firstlineno, name))
    return lines, functions


class _FileLines:
    """Local tracer for the frames of one file: records each line run.

    One instance per file, returning itself: a closure made per call
    would be a reference cycle per traced frame, which the suite's
    cyclic-garbage checks would count.
    """

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: Set[int] = set()

    def __call__(self, frame, event, _arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self


class Tracer:
    """Records executed lines and called functions under ``PACKAGE``."""

    def __init__(self) -> None:
        #: filename -> its line recorder (``None`` outside ``PACKAGE``).
        self.files: Dict[str, Optional[_FileLines]] = {}
        #: filename -> first lines of the code objects called.
        self.calls: Dict[str, Set[int]] = {}

    def __call__(self, frame, event, _arg):
        # The global tracer sees only "call" events: hand our frames
        # their file's line recorder and everyone else's nothing.
        code = frame.f_code
        filename = code.co_filename
        try:
            local = self.files[filename]
        except KeyError:
            ours = os.path.abspath(filename).startswith(PACKAGE + os.sep)
            local = self.files[filename] = _FileLines() if ours else None
            if ours:
                self.calls[filename] = set()
        if local is None:
            return None
        self.calls[filename].add(code.co_firstlineno)
        local.lines.add(frame.f_lineno)
        return local

    def lines(self, filename: str) -> Set[int]:
        local = self.files.get(filename)
        return local.lines if local is not None else set()

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def reading(tracer: Tracer) -> dict:
    """Per-module coverage and never-called functions, as a dict."""
    modules = []
    never_called = []
    for folder, _dirs, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            executable, functions = _static(path)
            ran = tracer.lines(path) & executable
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            modules.append({"module": module,
                            "executable": len(executable),
                            "executed": len(ran)})
            called = tracer.calls.get(path, set())
            never_called.extend(
                {"module": module, "function": qualname, "line": line}
                for line, qualname in functions if line not in called)
    executable = sum(m["executable"] for m in modules)
    executed = sum(m["executed"] for m in modules)
    return {"modules": modules, "executable": executable,
            "executed": executed,
            "percent": 100.0 * executed / executable if executable else 0.0,
            "never_called": never_called}


def print_reading(result: dict) -> None:
    width = max(len(m["module"]) for m in result["modules"])
    print(f"{'module':<{width}}  {'lines':>6}  {'run':>6}  {'cover':>6}")
    for m in result["modules"]:
        pct = 100.0 * m["executed"] / m["executable"] \
            if m["executable"] else 100.0
        print(f"{m['module']:<{width}}  {m['executable']:>6}  "
              f"{m['executed']:>6}  {pct:>5.1f}%")
    print(f"{'total':<{width}}  {result['executable']:>6}  "
          f"{result['executed']:>6}  {result['percent']:>5.1f}%")
    print(f"\nnever-called functions: {len(result['never_called'])}")
    for f in result["never_called"]:
        print(f"  {f['module']}:{f['function']} (line {f['line']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the reading as JSON")
    parser.add_argument("pytest_args", nargs="*", default=["tests"],
                        help="arguments for pytest (after --)")
    args = parser.parse_args(argv)

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    tracer = Tracer()
    tracer.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *args.pytest_args])
    finally:
        tracer.stop()
    result = reading(tracer)
    print_reading(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(result, fp, indent=2, sort_keys=True)
            fp.write("\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
