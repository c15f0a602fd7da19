"""Run one steinscope CLI command with timing wrappers around its layers.

Usage::

    python benchmarks/tracer.py SPANS_FILE CLI_ARG...

behaves like ``steinscope CLI_ARG...`` (same stdout, stderr and exit code)
and also writes SPANS_FILE: the time the import of ``steinscope.cli`` took,
and one span per call into a wrapped public function.  Wrappers are
installed from outside the program, on the defining module and on every
steinscope module that imported the name, so calls from ``cli`` and calls
between modules are both seen.  ``TargetDistribution.moment`` and
``.sample`` are wrapped on the class.  All stamps are ``time.monotonic()``,
the clock the parent process uses, so the parent can place a child's spans
inside the wall time it measured.

A span is ``[name, start, end, parent, extra]``; ``parent`` is the index of
the innermost span open on the calling thread or, for a Monte-Carlo worker
thread, on the main thread.
"""

import sys
import threading
import time

# (module, attribute, span name)
FUNCTIONS = (
    ("steinscope.operators", "catalog_get", "operators.catalog_get"),
    ("steinscope.operators", "psi_transform", "operators.psi_transform"),
    ("steinscope.asymptotics", "characterisation_verdict", "asymptotics.verdict"),
    ("steinscope.asymptotics", "indicial_roots", "asymptotics.indicial_roots"),
    ("steinscope.asymptotics", "dominant_balance", "asymptotics.dominant_balance"),
    ("steinscope.asymptotics", "power_correction", "asymptotics.power_correction"),
    ("steinscope.verification", "check_moment_recurrence", "verification.exact"),
    ("steinscope.verification", "mc_stein_residual", "verification.mc"),
    ("steinscope.discovery", "find_stein_operators", "discovery.find"),
    ("steinscope.malliavin", "check_gamma_characterisation", "malliavin.gamma"),
)
METHODS = (
    ("steinscope.distributions", "TargetDistribution", "moment", "distributions.moment"),
    ("steinscope.distributions", "TargetDistribution", "sample", "distributions.sample"),
)


def _mc_extra(args, kwargs, reports):
    return {"evals": sum(r.n for r in reports)}


def _find_extra(args, kwargs, ops):
    trail = args[0].dimension_trail
    return {"rows": sum(k for k, _ in trail), "rounds": len(trail) - 1, "nullity": len(ops)}


def _sample_extra(args, kwargs, values):
    return {"n": len(values)}


EXTRAS = {
    "verification.mc": _mc_extra,
    "discovery.find": _find_extra,
    "distributions.sample": _sample_extra,
}


class Tracer:
    """Records spans around wrapped callables; ``restore`` undoes ``install``."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        parents = stack or self._main_stack
        parent = parents[-1] if parents else None
        with self._lock:
            index = len(self.spans)
            span = [name, time.monotonic(), None, parent, None]
            self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            stack.pop()
        extra = EXTRAS.get(name)
        if extra is not None:
            span[4] = extra(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in loaded steinscope modules."""
        import importlib

        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("steinscope") and (
                    getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    start = time.monotonic()
    import steinscope.cli as cli

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, cli_args)
    finally:
        tracer.restore()
    sys.stdout.flush()
    end = time.monotonic()
    import json

    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "import_s": imported - start, "end": end,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
