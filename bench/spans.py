"""Spans and counters recorded from outside the graphgame package.

`Tracer.install` replaces every public function of the package, under the
name each package module imports it as (``graphgame.quantum.evaluate_payoff``,
``graphgame.cli.classical_value``, ...), with a wrapper that records a span.
Calls that go through module globals, including calls inside the package,
then become nested spans, so a span's self time is its duration minus the
durations of its direct children.  `Tracer.uninstall` puts the original
functions back, so the untraced run pays nothing.

Spans and counters stay in memory in flat arrays and are written out once,
by `Tracer.write`, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

SETUP, OP, CHECK = 0, 1, 2
PHASES = ("setup", "op", "check")


class Tracer:
    def __init__(self) -> None:
        self.sites: list[str] = []  # span name: module path the call went through
        self.homes: list[str] = []  # defining module and function name
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.counters: list[tuple[int, float, str, float]] = []  # (op id, time, name, value)
        self.op_id = -1
        self.current_phase = SETUP
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package: str = "graphgame") -> None:
        if self._patches:
            return
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for mod in modules:
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home_mod = getattr(fn, "__module__", "") or ""
                if home_mod != package and not home_mod.startswith(package + "."):
                    continue
                nid = len(self.sites)
                self.sites.append(f"{mod.__name__}.{attr}")
                self.homes.append(f"{home_mod}.{fn.__qualname__}")
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, nid))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, nid: int):
        start, end, name, parent, op, phase = (
            self.start, self.end, self.name, self.parent, self.op, self.phase
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            phase.append(tracer.current_phase)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.op_id, time.perf_counter(), name, float(value)))

    def write(self, path) -> None:
        """Write spans and counters as gzip'd tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# span\tid\tname\thome\n")
            for nid, (site, home) in enumerate(zip(self.sites, self.homes)):
                fh.write(f"name\t{nid}\t{site}\t{home}\n")
            fh.write("# span\tstart\tend\tname\tparent\top\tphase\n")
            for row in zip(self.start, self.end, self.name, self.parent, self.op, self.phase):
                fh.write("span\t%.9f\t%.9f\t%d\t%d\t%d\t%s\n" % (row[:5] + (PHASES[row[5]],)))
            fh.write("# counter\top\ttime\tname\tvalue\n")
            for op_id, t, cname, value in self.counters:
                fh.write(f"counter\t{op_id}\t{t:.9f}\t{cname}\t{value!r}\n")

    # -- aggregation -------------------------------------------------------

    def _index(self) -> tuple[list[float], dict[str, list[int]]]:
        """Per span, the time its direct children took; span ids per function."""
        child_time = [0.0] * len(self.name)
        by_home: dict[str, list[int]] = {}
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            by_home.setdefault(self.homes[nid], []).append(i)
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        return child_time, by_home

    def aggregate(self, groups: dict[str, tuple[str, frozenset[str], frozenset[int]]]) -> dict[str, float]:
        """Reduce spans to one number per metric.

        ``groups`` maps a metric to ``(mode, functions, phases)``: the
        defining names of the functions it covers, the phases counted, and
        the mode -- ``calls`` (outermost calls in the set), ``incl`` (time
        of outermost calls, so nested calls in the set are not counted
        twice) or ``self`` (each span's duration minus its children's).
        """
        child_time, by_home = self._index()
        homes, name, parent = self.homes, self.name, self.parent
        out: dict[str, float] = {}
        for metric, (mode, funcs, phases) in groups.items():
            total = 0.0
            for func in funcs:
                for i in by_home.get(func, ()):
                    if self.phase[i] not in phases:
                        continue
                    if mode == "self":
                        total += self.end[i] - self.start[i] - child_time[i]
                        continue
                    p = parent[i]
                    while p >= 0 and homes[name[p]] not in funcs:
                        p = parent[p]
                    if p >= 0:
                        continue  # nested inside another call of the same set
                    total += 1.0 if mode == "calls" else self.end[i] - self.start[i]
            out[metric] = total
        return out

    def self_time_under(self, module: str, root: str, phases: frozenset[int]) -> float:
        """Self time of ``module``'s functions inside calls of ``root``."""
        child_time, by_home = self._index()
        homes, name, parent = self.homes, self.name, self.parent
        total = 0.0
        for func, spans in by_home.items():
            if not func.startswith(module + "."):
                continue
            for i in spans:
                if self.phase[i] not in phases:
                    continue
                p = i
                while p >= 0 and homes[name[p]] != root:
                    p = parent[p]
                if p >= 0:
                    total += self.end[i] - self.start[i] - child_time[i]
        return total
