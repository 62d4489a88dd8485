"""Spans around the program's layer functions, recorded from outside.

``Tracer.install`` replaces each listed function at every binding site it
has in the ``clonelab`` package (``finite_core.preserves`` is also bound as
``clone_engine.preserves``, ``baker_pixley.preserves`` and
``structure_detect.preserves``) with a wrapper that records a span: name,
start, end, parent span and job. ``uninstall`` puts the original objects
back. Spans live in flat arrays while the run lasts and are written out at
the end; self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, function) pairs, as the per-layer metric names use them.
TRACED = (
    ("finite_core", "preserves"),
    ("finite_core", "preservation_witness"),
    ("finite_core", "superpose"),
    ("clone_engine", "generate"),
    ("clone_engine", "pol"),
    ("clone_engine", "inv"),
    ("clone_engine", "contains"),
    ("clone_engine", "fragment_from_json"),
    ("interpolation", "is_lambda_interpolable"),
    ("interpolation", "agreement_mask"),
    ("interpolation", "local_closure_fragment"),
    ("ultralocal", "search_dagger"),
    ("ultralocal", "verify_dagger_certificate"),
    ("ultralocal", "ultra_closure_fragment"),
    ("baker_pixley", "bp_interpolate"),
    ("baker_pixley", "nu_ultraclosure_check"),
    ("structure_detect", "goldstern_shelah_member"),
    ("structure_detect", "decompose_product"),
    ("symbolic_perms", "alt_cover_witness"),
    ("symbolic_perms", "verify_alt_cover"),
    ("simple_module", "random_instance"),
    ("simple_module", "recover"),
    ("simple_module", "rref"),
    ("simple_module", "all_vectors"),
    ("cli", "run"),
    ("cli", "check_certificate"),
    ("cli", "make_certificate"),
)
STRATEGIES = ("singletons", "equalizer_atoms", "exhaustive_partitions")
JOB_SPAN = "bench.job"
MODULES = tuple(dict.fromkeys(mod for mod, _ in TRACED))


def span_names() -> list:
    names = []
    for mod, fn in TRACED:
        if (mod, fn) == ("ultralocal", "search_dagger"):
            names += [f"{mod}.{fn}.{s}" for s in STRATEGIES]
        else:
            names.append(f"{mod}.{fn}")
    return names


def package_modules() -> dict:
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "clonelab" or name.startswith("clonelab."))
    }


class Tracer:
    def __init__(self):
        self.names = span_names() + [JOB_SPAN]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.job_ids: list = []
        self.stack = [-1]
        self.counts = {"members_built": 0, "searches": 0, "found": 0,
                       "interp_queries": 0, "interp_holds": 0}
        self._patched: list = []

    # --- binding ----------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for mod_name, fn_name in TRACED:
            original = getattr(modules[f"clonelab.{mod_name}"], fn_name)
            wrapper = self._wrapper(mod_name, fn_name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrapper(self, mod_name, fn_name, fn):
        name_of, start, end = self.name_of, self.start, self.end
        parent, job, stack = self.parent, self.job, self.stack
        clock = time.perf_counter
        counts = self.counts

        if fn_name == "search_dagger":
            ids = {s: self.index[f"{mod_name}.{fn_name}.{s}"] for s in STRATEGIES}

            def pick(args, kwargs):
                return ids[args[3] if len(args) > 3 else kwargs.get("strategy", STRATEGIES[2])]

            def post(result):
                counts["searches"] += 1
                counts["found"] += result.certificate is not None
        else:
            fixed = self.index[f"{mod_name}.{fn_name}"]
            pick = None
            post = None
            if fn_name == "generate":
                def post(result):
                    counts["members_built"] += result.member_count()
            elif fn_name == "is_lambda_interpolable":
                def post(result):
                    counts["interp_queries"] += 1
                    counts["interp_holds"] += result.holds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(fixed if pick is None else pick(args, kwargs))
            parent.append(stack[-1])
            job.append(len(self.job_ids) - 1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    # --- job spans ----------------------------------------------------------

    def begin_job(self, job_id: str) -> int:
        self.job_ids.append(job_id)
        sid = len(self.start)
        self.name_of.append(self.index[JOB_SPAN])
        self.parent.append(-1)
        self.job.append(len(self.job_ids) - 1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def end_job(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    # --- results ------------------------------------------------------------

    def totals(self) -> dict:
        """{span name: (calls, total_s, self_s)} for every name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the five arrays'
        raw bytes in header order."""
        header = {
            "names": self.names,
            "jobs": self.job_ids,
            "count": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                       ["parent", "q"], ["job", "q"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.start, self.end, self.parent, self.job):
                fh.write(arr.tobytes())


def read_spans(path: str) -> tuple:
    """(header, {array name: array}) as written by ``Tracer.write``."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            arrays[name] = arr
    return header, arrays
