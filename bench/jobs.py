"""Job records and the in-process job runner.

A job is either a CLI pipeline (argv lists run through ``clonelab.cli.run``
one after the other, stopping at the first nonzero exit) or one library
call for the questions the CLI has no subcommand for (``pol``, ``inv`` and
the closure sweeps). Library jobs print canonical JSON exactly as the CLI
would, and exit 2 when a resource cap fires.

Every call into the program goes through a module attribute looked up at
call time (``cli.run``, ``clone_engine.pol``), so the tracer's wrappers see
it.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field

CAPPED = 2


@dataclass
class Job:
    """One unit of closed-loop work.

    ``steps`` are argv lists for ``cli.run``; ``verify`` is one more argv
    list, run only when ``artifacts[0]`` (the certificate the steps write)
    exists afterwards. ``library`` names a function of ``LIBRARY_CALLS``.
    ``facts`` holds what the generator knows about the inputs; the checker
    reads them, the program never does.
    """

    id: str
    kind: str
    steps: list = field(default_factory=list)
    verify: list | None = None
    library: str | None = None
    inputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one attempt produced: (exit code, stdout) per step, the bytes of
    each artifact, and a traceback if the program raised."""

    steps: list
    artifacts: dict
    error: str | None = None

    def exit_code(self) -> int:
        return self.steps[-1][0] if self.steps else 1

    def digest_text(self) -> str:
        """Stable text of everything the job emitted, for golden digests."""
        parts = [f"{code}\n{out}" for code, out in self.steps]
        parts += [f"{name}\n{data}" for name, data in sorted(self.artifacts.items())]
        return "\x00".join(parts)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def prepare(job: Job) -> None:
    """Remove artifacts of an earlier attempt, so a stale certificate is
    never verified or checked."""
    for path in job.artifacts:
        if os.path.exists(path):
            os.remove(path)


def execute(job: Job) -> list:
    """Run the job; returns [(exit code, stdout), ...]. Exceptions from the
    program propagate to the caller, which records them as failures."""
    if job.library is not None:
        return [LIBRARY_CALLS[job.library](job)]
    from clonelab import cli

    results = []
    for argv in job.steps:
        buf = io.StringIO()
        code = cli.run(argv, out=buf)
        results.append((code, buf.getvalue()))
        if code != 0:
            return results
    if job.verify is not None and os.path.exists(job.artifacts[0]):
        buf = io.StringIO()
        code = cli.run(job.verify, out=buf)
        results.append((code, buf.getvalue()))
    return results


def collect_artifacts(job: Job) -> dict:
    out = {}
    for path in job.artifacts:
        if os.path.exists(path):
            with open(path) as fh:
                out[os.path.basename(path)] = fh.read()
    return out


# --- library jobs ---------------------------------------------------------


def _capped(exc) -> tuple:
    return CAPPED, canonical_json(
        {"error": {"type": "resource_cap", "message": str(exc)}}
    ) + "\n"


def _ok(obj) -> tuple:
    return 0, canonical_json(obj) + "\n"


def _load_fragment(path):
    from clonelab import clone_engine

    return clone_engine.fragment_from_json(load_json(path))


def _lib_pol(job):
    from clonelab import clone_engine, finite_core

    rels = [finite_core.relation_from_json(d) for d in load_json(job.inputs["relations"])]
    try:
        frag = clone_engine.pol(rels, job.inputs["bound"])
    except finite_core.ResourceCapExceeded as exc:
        return _capped(exc)
    return _ok(clone_engine.fragment_to_json(frag))


def _lib_inv(job):
    from clonelab import clone_engine, finite_core

    frag = _load_fragment(job.inputs["fragment"])
    try:
        rels = clone_engine.inv(frag, job.inputs["max_arity"])
    except finite_core.ResourceCapExceeded as exc:
        return _capped(exc)
    return _ok([finite_core.relation_to_json(r) for r in rels])


def _lib_local_closure(job):
    from clonelab import clone_engine, finite_core, interpolation

    frag = _load_fragment(job.inputs["fragment"])
    try:
        closure = interpolation.local_closure_fragment(
            frag, job.inputs["kappa"], job.inputs["bound"]
        )
    except finite_core.ResourceCapExceeded as exc:
        return _capped(exc)
    return _ok(clone_engine.fragment_to_json(closure))


def _lib_nu_check(job):
    from clonelab import baker_pixley, finite_core

    frag = _load_fragment(job.inputs["fragment"])
    try:
        report = baker_pixley.nu_ultraclosure_check(frag, job.inputs["bound"])
    except finite_core.ResourceCapExceeded as exc:
        return _capped(exc)
    return _ok(
        {
            "holds": report.holds,
            "nu_op": finite_core.operation_to_json(report.nu_op),
            "extras": [finite_core.operation_to_json(op) for op in report.extras],
            "checked": report.checked,
        }
    )


LIBRARY_CALLS = {
    "pol": _lib_pol,
    "inv": _lib_inv,
    "local_closure": _lib_local_closure,
    "nu_check": _lib_nu_check,
}
