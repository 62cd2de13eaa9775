"""The reach gate: every function in ``src/dcprox`` is run by a ``dcprox``
command, and every dataclass field is read by one.

``src`` holds what a command runs; code that only a criterion or a unit test
reaches lives test-side, in ``tests/oracles.py``. This test runs a fixed
script of commands in-process under ``sys.setprofile``, records the code
object of every Python call, and fails on each function or lambda of the
package that was never called and is not on ``ALLOWLIST``. Every allowlist
entry states why it may stay unreached. Comprehensions and generator
expressions are not counted; they run inside their function.

Fields are gated the same way: while the script runs, each field of a
package dataclass is a descriptor on the class that defines it, which
records the first read made from the package's own code and then removes
itself, so later reads cost nothing. Reads by the dataclass machinery
(``dataclasses.replace``) or by code outside the package do not count. A
field that no command reads fails the test unless ``FIELD_ALLOWLIST``
gives a reason; it gives three, for 3 of the package's 59 fields.

The script: ``solve`` on every synthetic entry with each solver that
``CATALOGUE_ANSWERS`` in ``tests/oracles.py`` lists for it; on spca n=30
with the five two-term solvers, once more with ``--gamma 0.5/lmax`` and
once with dce-lbfgs at ``--tol 0``, whose linesearch then fails past the
rounding floor; on spca3 n=30 with three-prox. ``check`` on
every synthetic entry and on spca n=30; one ``bench --n-values 12 --seeds
1`` of all six solvers, in this process (``--jobs 1``); and inputs that
each command rejects, among them a stepsize past the fbs and the drs gate
and dca on a problem without a subproblem solver. It takes about a second.

Run as a script, this file prints the reach table: every function of the
package, its span in lines, and whether the script reached it or the
allowlist excuses it, with the reason; then, per module, the lines of
reached functions that the script never executed (dead branches, which the
gate's function-level count cannot see; the script traces line events for
this, under ``sys.settrace``, which the test does not pay for); then the
lines of each module of the package and their total, the size that ROADMAP
tracks:

    PYTHONPATH=src python3 tests/test_reach.py
"""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
import types

import dcprox
import dcprox.cli as cli
from dcprox.problems import synthetic_catalogue
from oracles import CATALOGUE_ANSWERS

PACKAGE = os.path.dirname(os.path.realpath(dcprox.__file__))

STUB = "abstract ProxFunction stub; every atom overrides it"

# "file:qualname" -> why no command needs to reach it
ALLOWLIST = {
    "cli.py:entrypoint": "the console-script target in pyproject.toml; the script calls main",
    "two_prox.py:sandwich_bounds": ("perfbench/workloads.py and "
                                    "scripts/envelope_slice.py import it"),
    "kernels.py:_extension": "runs at import, before the profile starts",
    "prox.py:ProxFunction.value": STUB,
    "prox.py:ProxFunction.prox": STUB,
    "prox.py:Quadratic.value_at_prox": (
        "perfbench's proxy test and test_envelope_at_prox_is_the_default_formula_exactly "
        "compare against it"),
    "prox.py:Quadratic.supports_diag": (
        "perfbench's proxy test asserts it; it goes with that assertion in the "
        "benchmark's change (ROADMAP items 6 and 13)"),
}

# "file:Class.field" -> why no command needs to read it
FIELD_ALLOWLIST = {
    "envelope.py:DcInstance.name": ("no package code sets it; perfbench/tracing.py copies "
                                    "it onto its traced instance, so it goes with the "
                                    "benchmark's change"),
    "reports.py:RunReport.gamma": "perfbench/workloads.py and perfbench/tracing.py read it",
    "reports.py:RunReport.message": ("cmd_solve prints it on a numerical error, which no "
                                     "command of the script ends with"),
}


def script(out):
    """The commands the gate runs: (argv, whether the command should accept it).

    An accepted command exits 0 or 2, a rejected one 1. Outputs go under ``out``.
    """
    runs = []

    def solve(doc, solver, *flags, ok=True):
        runs.append((["solve", json.dumps(doc), "--solver", solver, "--no-timing",
                      "--out", os.path.join(out, f"solve{len(runs)}"), *flags], ok))

    for entry in synthetic_catalogue():
        doc = {"kind": "synthetic", "name": entry.name}
        for solver in CATALOGUE_ANSWERS[entry.name].solvers:
            solve(doc, solver)
        runs.append((["check", json.dumps(doc)], entry.dc is not None))
    spca = {"kind": "spca", "n": 30}
    for solver in cli.SOLVERS:
        if solver != "three-prox":
            solve(spca, solver)
    solve(spca, "dce", "--gamma", "0.5/lmax")
    # past the rounding floor the linesearch fails and takes the plain step
    solve(spca, "dce-lbfgs", "--tol", "0", "--max-iter", "150")
    solve({"kind": "spca3", "n": 30}, "three-prox")
    runs.append((["check", json.dumps(spca)], True))
    runs.append((["bench", "--no-timing", "--n-values", "12", "--seeds", "1",
                  "--solvers", ",".join(cli.SOLVERS), "--out",
                  os.path.join(out, "bench")], True))
    # rejected: a document, a name, a solver for the kind, a tolerance, a
    # stepsize, the fbs and drs stepsize gates, dca without a subproblem
    # solver, a sample seed, a flag
    solve({"kind": "spca", "n": 1}, "dce", ok=False)
    solve({"kind": "synthetic", "name": "none"}, "dce", ok=False)
    solve(spca, "three-prox", ok=False)
    solve(spca, "dce", "--tol", "nan", ok=False)
    solve(spca, "dce", "--gamma", "abc", ok=False)
    solve(spca, "fbs", "--gamma", "1.1/lmax", ok=False)
    solve(spca, "drs", "--gamma", "1.1/lmax", ok=False)
    solve({"kind": "synthetic", "name": "abs-quad-1d"}, "dca", ok=False)
    runs.append((["check", json.dumps(spca), "--seed", "-1"], False))
    runs.append((["bench", "--n-values", "12,x"], False))
    return runs


def defined_functions():
    """(file, qualname, first line) -> span in lines, of every function and
    lambda defined in the package's modules."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                # class bodies have no locals of their own; comprehensions are named <...>
                if const.co_flags & inspect.CO_NEWLOCALS and (
                        const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                    last = max(line for _, _, line in const.co_lines() if line is not None)
                    found[name, const.co_qualname, const.co_firstlineno] = (
                        last - const.co_firstlineno + 1)
    return found


def module_lines():
    """Module file name -> its number of lines, for every module of the package."""
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                counts[name] = sum(1 for _ in fh)
    return counts


def in_package(code):
    return os.path.dirname(os.path.realpath(code.co_filename)) == PACKAGE


def defined_fields():
    """"file:Class.field" -> (class, field name), for every field of a
    dataclass of the package, keyed by the class that declares it."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        module = importlib.import_module(
            "dcprox" if name == "__init__.py" else f"dcprox.{name[:-3]}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                own = cls.__dict__.get("__annotations__", {})
                for field in dataclasses.fields(cls):
                    if field.name in own:
                        found[f"{name}:{cls.__qualname__}.{field.name}"] = (cls, field.name)
    return found


class FirstRead:
    """A data descriptor that stands in for one dataclass field, keeping its
    value in the instance's ``__dict__`` as the plain field does. The first
    read from the package's code adds ``key`` to ``read`` and puts the
    class attribute back, so the hook runs until then only."""

    def __init__(self, cls, name, key, read):
        self.cls, self.name, self.key, self.read = cls, name, key, read
        self.original = cls.__dict__.get(name, FirstRead)  # a default, or none
        setattr(cls, name, self)

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.original is FirstRead:
                raise AttributeError(self.name)
            return self.original
        value = obj.__dict__[self.name]
        if in_package(sys._getframe(1).f_code):
            self.read.add(self.key)
            self.restore()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value

    def restore(self):
        if self.cls.__dict__.get(self.name) is self:
            if self.original is FirstRead:
                delattr(self.cls, self.name)
            else:
                setattr(self.cls, self.name, self.original)


def run_script(out, lines=None):
    """Run ``script(out)`` under the profile: (code objects called, keys of
    the fields the package read, the commands whose exit status disagrees
    with the script).

    Given a set ``lines``, the script runs under ``sys.settrace`` instead,
    and the (code object, line) of every line executed in the package is
    added to it.
    """
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    def line_trace(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code, frame.f_lineno))
        return line_trace

    def trace(frame, event, arg):
        called.add(frame.f_code)  # settrace's global hook sees "call" events only
        return line_trace if in_package(frame.f_code) else None

    hook, previous = ((sys.setprofile, sys.getprofile()) if lines is None
                      else (sys.settrace, sys.gettrace()))
    wrong = []
    read = set()
    hooks = []
    try:
        for key, (cls, name) in defined_fields().items():
            hooks.append(FirstRead(cls, name, key, read))
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            for argv, ok in script(out):
                hook(profile if lines is None else trace)
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                finally:
                    hook(previous)
                if (code in (0, 2)) != ok or code not in (0, 1, 2):
                    wrong.append((argv, code))
    finally:
        for first_read in hooks:
            first_read.restore()
    return called, read, wrong


def reach_table(out, lines=None):
    """(rows, fields, wrong): one row per package function, (file, line,
    span, qualname, status), status "reached", "allowed" or "UNREACHED";
    the status of each dataclass field by its key, alike; and the script's
    commands whose exit status was not the expected one. ``lines`` is
    passed on to ``run_script``."""
    called, read, wrong = run_script(out, lines)
    hit = {(os.path.basename(co.co_filename), co.co_qualname, co.co_firstlineno)
           for co in called if in_package(co)}
    rows = []
    for (name, qualname, line), span in sorted(defined_functions().items(),
                                               key=lambda item: (item[0][0], item[0][2])):
        if (name, qualname, line) in hit:
            status = "reached"
        elif f"{name}:{qualname}" in ALLOWLIST:
            status = "allowed"
        else:
            status = "UNREACHED"
        rows.append((name, line, span, qualname, status))
    fields = {key: ("reached" if key in read else
                    "allowed" if key in FIELD_ALLOWLIST else "UNREACHED")
              for key in defined_fields()}
    return rows, fields, wrong


def test_every_src_function_is_reached_by_a_command(tmp_path):
    rows, fields, wrong = reach_table(str(tmp_path))
    assert not wrong, f"commands with an unexpected exit status: {wrong}"
    unreached = [f"{name}:{line} {qualname} ({span} lines)"
                 for name, line, span, qualname, status in rows if status == "UNREACHED"]
    assert not unreached, (
        "no dcprox command calls these functions; move them test-side "
        "(tests/oracles.py), delete them, or allowlist them with a reason: "
        + "; ".join(unreached))
    keys = {f"{name}:{qualname}": status for name, _, _, qualname, status in rows}
    stale = sorted(key for key in ALLOWLIST if keys.get(key) != "allowed")
    assert not stale, f"allowlisted but reached or no longer defined: {stale}"
    unread = sorted(key for key, status in fields.items() if status == "UNREACHED")
    assert not unread, (
        "no dcprox command reads these dataclass fields; delete them, or "
        "allowlist them with a reason: " + "; ".join(unread))
    stale = sorted(key for key in FIELD_ALLOWLIST if fields.get(key) != "allowed")
    assert not stale, f"field allowlisted but read or no longer defined: {stale}"


def unexecuted_lines(executed):
    """Module file name -> sorted lines that no traced command executed, of
    the package's reached functions; ``executed`` holds (code object, line)
    pairs from ``run_script``. A function's lines are those its code, and
    that of the comprehensions inside it, runs; its def line is left out."""
    reached = {code for code, _ in executed}
    done = {(code.co_filename, line) for code, line in executed}
    missed = {}
    for code in reached:
        if code.co_name.startswith("<") and code.co_name != "<lambda>":
            continue  # a comprehension; its function lists its lines
        stack, own = [code], set()
        while stack:
            co = stack.pop()
            own.update(line for _, _, line in co.co_lines() if line is not None)
            stack.extend(const for const in co.co_consts if isinstance(const, types.CodeType)
                         and const.co_name.startswith("<") and const.co_name != "<lambda>")
        own.discard(code.co_firstlineno)
        missed.setdefault(os.path.basename(code.co_filename), set()).update(
            line for line in own if (code.co_filename, line) not in done)
    return {name: sorted(lines) for name, lines in sorted(missed.items()) if lines}


def line_ranges(lines):
    """Sorted line numbers as "a-b" runs: [3, 4, 5, 9] -> "3-5, 9"."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


if __name__ == "__main__":
    executed = set()
    with tempfile.TemporaryDirectory() as out:
        rows, fields, wrong = reach_table(out, executed)
    for name, line, span, qualname, status in rows:
        reason = f"  ({ALLOWLIST[f'{name}:{qualname}']})" if status == "allowed" else ""
        print(f"{f'{name}:{line}':<18} {span:>4}  {status:<9}  {qualname}{reason}")
    for status in ("reached", "allowed", "UNREACHED"):
        picked = [row for row in rows if row[4] == status]
        print(f"{status}: {len(picked)} functions, {sum(row[2] for row in picked)} lines")
    print("dataclass fields that the script did not read:")
    for key, status in fields.items():
        if status != "reached":
            reason = f"  ({FIELD_ALLOWLIST[key]})" if status == "allowed" else ""
            print(f"  {status:<9}  {key}{reason}")
    print(f"fields read: {sum(s == 'reached' for s in fields.values())} of {len(fields)}")
    for argv, code in wrong:
        print(f"unexpected exit status {code}: dcprox {' '.join(argv)}")
    missed = unexecuted_lines(executed)
    print("lines of reached functions that no command executed:")
    for name, lines in missed.items():
        print(f"{name:<18} {len(lines):>5}  {line_ranges(lines)}")
    print(f"{'total':<18} {sum(map(len, missed.values())):>5}")
    lines = module_lines()
    for name, count in lines.items():
        print(f"{name:<18} {count:>5} lines")
    print(f"{'total':<18} {sum(lines.values()):>5} lines")
