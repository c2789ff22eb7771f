"""Spans recorded from outside the program, around calls into its layers.

A probe replaces a function or method of the ``quadnmpc`` package with a
wrapper that records one span per call: its name, the span that was open
when it started (its parent), and its start and end in nanoseconds. A
function is replaced under every name a module of the package holds it
by, because callers import it into their own namespace
(``from .qp import expand``) and look it up there. A method is replaced
on its class. Spans stay in memory; nothing in the program is edited.

A target that no longer exists is recorded as absent, so a later change
that deletes or renames it leaves the benchmark running.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "quadnmpc"


class Recorder:
    """In-memory spans of one traced execution, with their parents."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.values: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._child_ns: list[int] | None = None

    # -- installation -------------------------------------------------------

    def install(self, targets, extract=None):
        """Wrap each ``"<module>.<function>"`` or ``"<module>.<Class>.<method>"``.

        ``extract`` maps a target to a function of the call's return value;
        what it returns is kept in ``values[target]``.
        """
        extract = extract or {}
        for target in targets:
            module_name, _, attr_path = target.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            *owners, attr = attr_path.split(".")
            owner = module
            for name in owners:
                owner = getattr(owner, name, None)
            if owner is None:
                self.absent.append(target)
                continue
            original = vars(owner).get(attr) if owners else getattr(owner, attr, None)
            if original is None or not callable(original):
                self.absent.append(target)
                continue
            holders = [(owner, attr)] if owners else [
                (mod, key)
                for mod in _package_modules()
                for key, value in vars(mod).items()
                if value is original
            ]
            wrapper = self._wrap(target, original, extract.get(target))
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def restore(self):
        """Put every original back, last patch first."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name, fn, extract):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter_ns
        values = self.values.setdefault(name, []) if extract else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if values is not None:
                values.append(extract(result))
            return result

        return wrapper

    # -- queries ------------------------------------------------------------

    def indices(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def durations_ns(self, name: str) -> list[int]:
        return [self.ends[i] - self.starts[i] for i in self.indices(name)]

    def self_ns(self, name: str) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Query only after recording has ended: the child sums are cached.
        """
        if self._child_ns is None:
            self._child_ns = [0] * len(self.names)
            for i, parent in enumerate(self.parents):
                if parent >= 0:
                    self._child_ns[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - self._child_ns[i] for i in self.indices(name)]

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
