"""Span tracing of one pgsynth CLI command, from outside the package.

Run as a child process in place of the console script:

    python3 perfbench/tracer.py SPANS_PREFIX -- synthesize --strata ...

It imports pgsynth, wraps every public function (each module's __all__)
and every public method of its public classes, rebinds the wrapper in
every pgsynth module that imported the name, then calls
pgsynth.cli.main(argv) inside one root span named cli.<command>. Nothing
under src/ changes. Each call becomes a span (name, start, end, parent)
held in compact in-memory arrays; when main returns they are written to
SPANS_PREFIX.npz, with names, counters and timestamps in
SPANS_PREFIX.json. Times come from time.perf_counter, which on Linux is
the system-wide monotonic clock, so the parent can subtract its own
spawn time from main_start to get interpreter plus import time.

Counters ride on the same boundaries: convolution sizes, bytes written,
rows read, calibration sweeps and audit enumeration sizes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
import types
from array import array

from measure import neighbor_pairs

MODULES = (
    "strata", "distributions", "calibration", "mechanism", "synthesizer",
    "utility", "audit", "fixtures", "cli",
)


class Tracer:
    """Append-only span store; spans nest per thread.

    A span opened in a worker thread with nothing open on that thread
    takes as parent the span open on the main thread, so its time is
    subtracted from that span's self time even though it ran in parallel.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_index(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.end.append(float("nan"))
            self.start.append(self.clock())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack().pop()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn recorded as span `name`; after(tracer, args, kwargs, result) may count."""
        name_id = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def dump(self, prefix: str, meta: dict) -> None:
        import numpy as np

        np.savez(
            prefix + ".npz",
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        doc = {"names": self.names, "counters": self.counters, **meta}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_convolve(tracer, args, kwargs, result):
    # np.convolve reads both inputs and writes len(w) + len(T) - 1 outputs
    lw = len(_arg(args, kwargs, 0, "weights").vals)
    lt = len(_arg(args, kwargs, 1, "table").vals)
    tracer.count("mechanism.convolve_mass.madds", lw * lt)
    tracer.count("mechanism.convolve_mass.bytes", 8 * (2 * (lw + lt) - 1))


def _after_write_replicates(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tracer.count("synthesizer.write_replicates_csv.bytes", os.path.getsize(path))


def _after_write_report(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 2, "path")
    tracer.count("calibration.write_report.bytes", os.path.getsize(path))


def _after_read_replicates(tracer, args, kwargs, result):
    tracer.count("synthesizer.read_replicates_csv.rows", int(result.size))


def _after_solve(tracer, args, kwargs, result):
    tracer.count("calibration.sweeps", int(result.iterations))


def _after_audit(tracer, args, kwargs, result):
    pairs = neighbor_pairs(*result.instance_size)
    tracer.count("audit.checked_datasets", result.checked_datasets)
    tracer.count("audit.checked_outputs", result.checked_outputs)
    tracer.count("audit.pair_output_evals", pairs * result.checked_outputs)


AFTER = {
    "mechanism.convolve_mass": _after_convolve,
    "synthesizer.write_replicates_csv": _after_write_replicates,
    "calibration.write_report": _after_write_report,
    "synthesizer.read_replicates_csv": _after_read_replicates,
    "calibration.solve_hyperparameters": _after_solve,
    "audit.audit": _after_audit,
}


def _module_copy(module, **overrides):
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


def install(tracer: Tracer) -> dict:
    """Wrap pgsynth's public callables; return the imported modules by short name.

    cli.main is left alone because the caller runs it as the root span.
    The synthesizer's per-replicate stream set-up goes through
    np.random.default_rng and np.random.SeedSequence; the synthesizer gets
    its own numpy binding whose random module wraps exactly those two, so
    the rest of the process keeps the real numpy.
    """
    import numpy as np

    mods = {short: importlib.import_module(f"pgsynth.{short}") for short in MODULES}
    replaced: dict[int, tuple] = {}
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if (short, attr) == ("cli", "main"):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = (obj, tracer.wrap(name, obj, AFTER.get(name)))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, short, obj)
    for mod in (importlib.import_module("pgsynth"), *mods.values()):
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    random = _module_copy(
        np.random,
        default_rng=tracer.wrap("synthesizer.stream_init", np.random.default_rng),
        SeedSequence=tracer.wrap("synthesizer.stream_seed", np.random.SeedSequence),
    )
    mods["synthesizer"].np = _module_copy(np, random=random)
    return mods


def _wrap_methods(tracer: Tracer, short: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{short}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw))


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_PREFIX -- <pgsynth arguments>", file=sys.stderr)
        return 2
    prefix, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    mods = install(tracer)
    root = tracer.name_index(f"cli.{cli_argv[0]}")
    main_start = time.perf_counter()
    idx = tracer.open(root)
    try:
        code = mods["cli"].main(cli_argv)
    finally:
        tracer.close(idx)
        main_end = time.perf_counter()
        tracer.dump(prefix, {"main_start": main_start, "main_end": main_end, "root": idx})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
