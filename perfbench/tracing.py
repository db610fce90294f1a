"""Span recorder that wraps the public functions of the scqsim layers.

``install`` replaces every public module-level function of each layer, at
every ``scqsim.*`` module attribute bound to it (so ``experiments`` calling
its imported ``lindblad_evolve`` is seen too) and at every value of a
module-level dict bound to it (so ``cli.main`` dispatching through its
subcommand table is seen too), with a wrapper that records
one span per call: name, start, end, parent span and job id, on the
clock of ``calibrate`` that stops while an in-call probe runs.  Spans are
kept in memory; ``remove`` puts every original object back.  Calls made
while no job is active (the benchmark's own checks) are passed through
unrecorded.
"""

from __future__ import annotations

import functools
import json
import sys
import types

from calibrate import clock

LAYERS = ("qcore", "circuits", "coupling", "dynamics", "gates", "control",
          "surface_code", "experiments", "cli")


def _scqsim_modules() -> list:
    return sorted((name, mod) for name, mod in sys.modules.items()
                  if (name == "scqsim" or name.startswith("scqsim."))
                  and isinstance(mod, types.ModuleType))


def snapshot() -> dict:
    """Every attribute of every loaded scqsim module, and every value of
    its module-level dicts, by object."""
    out = {}
    for name, mod in _scqsim_modules():
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, dict):
                out.update(((name, attr, key), value) for key, value in obj.items())
    return out


def same_attributes(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        after[key] is obj for key, obj in before.items())


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, error]
        self.job = None          # id of the job being run, None = off
        self._stack = []
        self._patched = []       # (setter, original)

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        layer_of = {f"scqsim.{layer}": layer for layer in LAYERS}
        wrappers = {}

        def wrapped(obj):
            if not isinstance(obj, types.FunctionType):
                return None
            layer = layer_of.get(obj.__module__)
            if layer is None or obj.__name__.startswith("_"):
                return None
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(obj, layer)
            return wrappers[id(obj)]

        for _, mod in _scqsim_modules():
            for attr, obj in list(vars(mod).items()):
                slots = [(functools.partial(setattr, mod, attr), obj)]
                if isinstance(obj, dict):
                    slots += [(functools.partial(obj.__setitem__, key), value)
                              for key, value in obj.items()]
                for put, original in slots:
                    new = wrapped(original)
                    if new is not None:
                        self._patched.append((put, original))
                        put(new)

    def remove(self) -> None:
        for put, obj in reversed(self._patched):
            put(obj)
        self._patched.clear()

    def job_layer_totals(self) -> dict:
        """Per job and layer: [self time (s), calls, calls that raised]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, job, error), inner in zip(self.spans, child):
            entry = out.setdefault(job, {}).setdefault(name.split(".", 1)[0], [0.0, 0, 0])
            entry[0] += (end - start) - inner
            entry[1] += 1
            entry[2] += int(error)
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
