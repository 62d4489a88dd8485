"""Unified command-line front end with JSON input and output.

Verdict-producing subcommands always exit 0, including negative verdicts;
exit 1 means malformed input, exit 2 a resource cap. `run` is the one
error boundary: every ValueError a subcommand raises (CliInputError is
one) becomes the exit-1 error object, and ResourceCapExceeded the exit-2
one. Output is canonical JSON (sorted keys, no whitespace), so identical
inputs give byte-identical output.

Subcommands that produce checkable objects can write a certificate file;
`clonelab verify` rechecks any certificate against the original inputs.
A certificate envelope carries the kind, the payload, a content hash of
the input files, and a hash of the envelope itself, so any byte-level
tampering is detected even when the altered payload would still be
mathematically consistent. This module owns the envelope and the
CERTIFICATES registry, one entry per kind. Each kind's payload encoder,
decoder and recheck live with the types it serializes: dagger in
ultralocal, bp_tree in baker_pixley, product_decomp in structure_detect,
alt_cover in symbolic_perms, module_recovery in simple_module, and
preservation_witness in finite_core.

`run(argv, out=...)` is the in-process entry point: it writes the same
stdout and returns the same exit code as the `clonelab` command. It parses
with one parser per process, built on the first call and only read after
that, so a long run of queries pays for the argument tree once. Likewise
each operation, fragment and instance file is decoded once per process:
the decoded record is kept for the 32 latest (decoder, file text) pairs.
The key is the content, so a rewritten file is read afresh, and a repeated
query skips the JSON parse and the table checks. Records are shared
between calls, so nothing here changes one (a fragment's `members` dict
included); caps are read by the computations, never by a decoder.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys

from . import baker_pixley, clone_engine, finite_core, simple_module, structure_detect
from . import symbolic_perms, ultralocal
from .finite_core import ResourceCapExceeded
from .interpolation import InterpolationQuery, is_lambda_interpolable

# What reading a malformed JSON object raises.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, IndexError)


class CliInputError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_files(paths) -> str:
    blobs = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        except OSError as exc:
            raise CliInputError(f"cannot read input file {path}: {exc}")
    return _sha256_hex(b"\x00".join(blobs))


def make_certificate(kind: str, payload: dict, input_paths) -> dict:
    inputs_digest = digest_files(input_paths)
    body = {"kind": kind, "payload": payload, "inputs_digest": inputs_digest}
    payload_digest = _sha256_hex(canonical_json(body).encode())
    return {**body, "payload_digest": payload_digest}


class _MalformedJSON(Exception):
    """Text that json.loads refuses; the message says where and why."""


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _MalformedJSON(f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise _MalformedJSON("nested too deeply")


@functools.lru_cache(maxsize=32)
def _decode_text(decode, text: str):
    """decode(the JSON in text), kept for the 32 latest (decoder, text)
    pairs. The key is the content, so a rewritten file is decoded afresh;
    a call that raises keeps nothing."""
    return decode(_parse(text))


def _load(path: str, decode, what: str | None):
    """decode(the JSON in path), the record an earlier call made from the
    same text when the cache still holds it; with decode None, the JSON
    itself, parsed afresh. A decoding error becomes an input error whose
    message starts with what, or propagates as raised when what is None."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: not valid UTF-8: {exc}")
    try:
        return _parse(text) if decode is None else _decode_text(decode, text)
    except _MalformedJSON as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}")
    except _DECODE_ERRORS as exc:
        if what is None:
            raise
        raise CliInputError(f"{what}: {exc}")


def load_json(path: str):
    """The JSON in path, parsed on each call, so the caller may change it."""
    return _load(path, None, None)


def _load_operation(path: str) -> finite_core.Operation:
    return _load(path, finite_core.operation_from_json, f"bad operation file {path}: field error")


def _load_fragment(path: str) -> clone_engine.CloneFragment:
    return _load(path, clone_engine.fragment_from_json, f"bad fragment file {path}: field error")


def _query_operation_from_json(data) -> tuple[finite_core.Operation, bool]:
    return finite_core.operation_from_json(data), "universe" in data


def _load_query_operation(path: str) -> tuple[finite_core.Operation, bool]:
    """The operation in path, and whether the file names its own universe."""
    return _load(path, _query_operation_from_json, f"bad operation file {path}: field error")


def _on_fragment_universe(
    loaded: tuple[finite_core.Operation, bool], fragment: clone_engine.CloneFragment
) -> finite_core.Operation:
    """An operation file without its own "universe" object is read on the
    universe of the fragment it is asked about, labels included; one that
    names its universe is compared as it stands."""
    op, own_universe = loaded
    if own_universe or op.universe.size != fragment.universe.size:
        return op
    return finite_core.Operation(fragment.universe, op.arity, op.table)


def _load_query(op_path: str, fragment_path: str):
    """(operation, fragment) for a question about the operation in
    op_path relative to the fragment in fragment_path."""
    loaded = _load_query_operation(op_path)
    fragment = _load_fragment(fragment_path)
    return _on_fragment_universe(loaded, fragment), fragment


def _load_bp_instance(path: str) -> baker_pixley.BPInstance:
    return _load(path, baker_pixley.instance_from_json, f"bad interpolation instance {path}")


def _load_module_instance(path: str) -> simple_module.SubspaceCoverInstance:
    """The instance in path; a field error propagates unprefixed, and
    check_certificate reports it as the recheck's failure."""
    return _load(path, simple_module.instance_from_json, None)


def _load_generators(path: str):
    """(generators, universe or None) from a list of operations or an
    object {"universe": ..., "operations": [...]}."""
    data = load_json(path)
    if not isinstance(data, (list, dict)):
        raise CliInputError(f"bad generators file {path}: expected a list or an object")
    try:
        if isinstance(data, list):
            ops_json, universe = data, None
        else:
            ops_json = data.get("operations", [])
            universe = (finite_core.universe_from_json(data["universe"])
                        if "universe" in data else None)
        return [finite_core.operation_from_json(o, universe) for o in ops_json], universe
    except _DECODE_ERRORS as exc:
        raise CliInputError(f"bad generators file {path}: field error: {exc}")


def _load_permutation(path: str) -> symbolic_perms.FinSuppPermutation:
    """The permutation whose integer map is under the "moved" key of path;
    a missing key is the identity. A map that is not a bijection of its
    keys is malformed input."""
    data = load_json(path)
    moved = data.get("moved", {}) if isinstance(data, dict) else None
    if not isinstance(moved, dict):
        raise CliInputError(f"bad map file {path}: expected an object with a \"moved\" map")
    try:
        moved = symbolic_perms.moved_map_from_json(moved)
    except ValueError as exc:
        raise CliInputError(f"bad map file {path}: field error: {exc}")
    try:
        return symbolic_perms.FinSuppPermutation(moved)
    except ValueError as exc:
        raise CliInputError(f"bad permutation file {path}: {exc}")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        _emit(fh, obj)


def _input_paths(kind: str, args) -> list[str]:
    """The files a kind's certificate digests: the values of the
    subcommand options its CERTIFICATES row names, in that order."""
    return [getattr(args, name) for name, _ in CERTIFICATES[kind][0]]


def _write_certificate(args, kind: str, payload: dict) -> None:
    """Write the certificate of payload to --cert, when one was given."""
    if args.cert:
        _write_json(args.cert, make_certificate(kind, payload, _input_paths(kind, args)))


def _emit(out, obj) -> None:
    out.write(canonical_json(obj) + "\n")


# --- subcommand handlers -----------------------------------------------------

def _cmd_gen(args, out) -> int:
    generators, universe = _load_generators(args.generators)
    fragment = clone_engine.generate(
        generators,
        args.arity_bound,
        universe=universe,
        member_cap=args.member_cap,
    )
    result = clone_engine.fragment_to_json(fragment)
    if args.out:
        _write_json(args.out, result)
    _emit(out, result)
    return 0


def _cmd_member(args, out) -> int:
    op, fragment = _load_query(args.op, args.fragment)
    result = clone_engine.contains(fragment, op)
    _emit(out, {"result": result})
    return 0


def _cmd_interp(args, out) -> int:
    target, fragment = _load_query(args.target, args.fragment)
    verdict = is_lambda_interpolable(
        InterpolationQuery(target, fragment, args.lam)
    )
    result: dict = {"result": verdict.holds}
    if verdict.witness is not None:
        result["witness"] = {"S": [list(p) for p in verdict.witness]}
    _emit(out, result)
    return 0


def _cmd_ultra(args, out) -> int:
    strategy = (
        "exhaustive_partitions" if args.strategy == "exhaustive" else args.strategy
    )
    if args.max_blocks is not None and strategy != "exhaustive_partitions":
        raise CliInputError(f"--max-blocks does not apply to the {strategy} strategy")
    target, fragment = _load_query(args.target, args.fragment)
    outcome = ultralocal.search_dagger(
        target, fragment, args.lam, strategy, args.max_blocks
    )
    result: dict = {"result": outcome.certificate is not None, "disproof": outcome.disproof}
    if outcome.certificate is not None:
        payload = ultralocal.dagger_to_json(outcome.certificate)
        # The certificate is printed too, so it is made without --cert.
        cert = make_certificate("dagger", payload, _input_paths("dagger", args))
        result["certificate"] = cert
        if args.cert:
            _write_json(args.cert, cert)
    _emit(out, result)
    return 0


def _cmd_bp(args, out) -> int:
    inst = _load_bp_instance(args.instance)
    result_obj = baker_pixley.bp_interpolate(inst)
    payload = baker_pixley.bp_tree_to_json(result_obj)
    _write_certificate(args, "bp_tree", payload)
    _emit(out, payload)
    return 0


def _cmd_detect(args, out) -> int:
    if args.what == "ess-unary":
        op = _load_operation(args.op)
        rel = finite_core.rho3(op.universe)
        witness = finite_core.preservation_witness(op, rel)
        result: dict = {"essentially_unary": witness is None}
        if witness is not None:
            payload = finite_core.preservation_witness_to_json(op, rel, witness)
            result["witness"] = finite_core.witness_to_json(witness)
            _write_certificate(args, "preservation_witness", payload)
        _emit(out, result)
        return 0

    if args.what == "product":
        op = _load_operation(args.op)
        _require(args, "left-size", "right-size")
        pu = structure_detect.ProductUniverse(
            finite_core.Universe(args.left_size), finite_core.Universe(args.right_size)
        )
        if op.universe.size != pu.paired.size:
            raise CliInputError("operation universe does not match the product sizes")
        split = structure_detect.decompose_product(pu, op)
        result = {"product": bool(split)}
        if split:
            payload = structure_detect.product_decomp_to_json(pu, split)
            result["factor_left"] = payload["factor_left"]
            result["factor_right"] = payload["factor_right"]
            _write_certificate(args, "product_decomp", payload)
        else:
            result["witness"] = finite_core.witness_to_json(split.witness)
        _emit(out, result)
        return 0

    if args.what == "module":
        op = _load_operation(args.op)
        _require(args, "group")
        group = _load(args.group, structure_detect.group_from_json,
                      f"bad group file {args.group}")
        result = {"compatible": structure_detect.module_compatible(op, group)}
        _emit(out, result)
        return 0

    # gs, the last of the parser's choices
    op = _load_operation(args.op)
    _require(args, "ideal")
    result = {"member": structure_detect.goldstern_shelah_member(op, args.ideal)}
    _emit(out, result)
    return 0


def _parse_point_list(text: str) -> list[int]:
    """Comma-separated points, each spelled as plain ASCII digits (as
    finite_core.int_from_json_key reads a key); empty items are skipped."""
    try:
        return [finite_core.int_from_json_key(x, "point") for x in text.split(",") if x != ""]
    except ValueError:
        raise CliInputError(f"expected comma-separated nonnegative integers, got {text!r}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise CliInputError(f"missing required option --{name}")


def _cmd_perm(args, out) -> int:
    if args.what == "parity":
        _require(args, "perm")
        p = _load_permutation(args.perm)
        _emit(out, {"parity": symbolic_perms.parity(p)})
        return 0

    if args.what == "cover-witness":
        _require(args, "k", "a", "b", "window")
        witness = symbolic_perms.alt_cover_witness(args.k, args.a, args.b, args.window)
        payload = symbolic_perms.alt_cover_to_json(witness)
        _write_certificate(args, "alt_cover", payload)
        _emit(out, payload)
        return 0

    # alt and altb-check, the last of the parser's choices. altb-check asks
    # whether the map lies in the local closure of Alt_B: B is finite, so
    # Alt_B is a finite group, its own local closure, and in_alt_B answers.
    if args.what == "altb-check":
        if args.window is not None:
            raise CliInputError("--window does not apply to perm altb-check")
        _require(args, "map", "support")
        path = args.map
    else:
        _require(args, "perm")
        path = args.perm
    p = _load_permutation(path)
    if args.support is not None:
        members = symbolic_perms.in_alt_B(p, _parse_point_list(args.support))
    else:
        members = symbolic_perms.in_alt(p)
    _emit(out, {"member": members})
    return 0


def _cmd_module(args, out) -> int:
    if args.what == "recover":
        _require(args, "instance")
        inst = _load(args.instance, simple_module.instance_from_json,
                     f"bad module instance {args.instance}")
        try:
            result = simple_module.recover(inst)
        except simple_module.PipelineError as exc:
            _emit(out, {"result": False, "stage": exc.stage, "message": str(exc)})
            return 0
        payload = simple_module.module_recovery_to_json(inst, result)
        _write_certificate(args, "module_recovery", payload)
        _emit(out, {"result": True, **payload})
        return 0

    # demo, the last of the parser's choices
    F = simple_module.field_of_order(args.field)
    inst = simple_module.random_instance(F, args.dim, random.Random(args.seed))
    result = simple_module.instance_to_json(inst)
    if args.out:
        _write_json(args.out, result)
    _emit(out, result)
    return 0


# --- certificate verification ---------------------------------------------------

# kind -> (inputs, decode, recheck). inputs holds an (option, loader) pair
# per --inputs file, the option naming the file when the certificate is
# made (usage text: option.json); decode(payload, *loaded) raises on a
# payload it cannot read; recheck(decoded, *loaded) says why the
# certificate fails, or returns None.
CERTIFICATES = {
    "dagger": (
        (("target", _load_query_operation), ("fragment", _load_fragment)),
        lambda payload, target, fragment: ultralocal.dagger_from_json(
            payload, _on_fragment_universe(target, fragment)
        ),
        lambda cert, target, fragment: ultralocal.recheck_dagger(
            cert, _on_fragment_universe(target, fragment), fragment
        ),
    ),
    "bp_tree": (
        (("instance", _load_bp_instance),),
        lambda payload, _: baker_pixley.bp_tree_from_json(payload),
        baker_pixley.recheck_bp_tree,
    ),
    "product_decomp": (
        (("op", _load_operation),),
        lambda payload, _: structure_detect.product_decomp_from_json(payload),
        structure_detect.recheck_product_decomp,
    ),
    "alt_cover": ((), symbolic_perms.alt_cover_from_json, symbolic_perms.recheck_alt_cover),
    "module_recovery": (
        (("instance", _load_module_instance),),
        simple_module.module_recovery_from_json,
        simple_module.recheck_module_recovery,
    ),
    "preservation_witness": (
        (("op", _load_operation),),
        finite_core.preservation_witness_from_json,
        finite_core.recheck_preservation_witness,
    ),
}


def check_certificate(cert: dict, input_paths) -> tuple[bool, str]:
    """Structural, digest, and mathematical recheck of a certificate."""
    if not isinstance(cert, dict):
        return False, "certificate is not an object"
    if set(cert.keys()) != {"kind", "payload", "inputs_digest", "payload_digest"}:
        return False, "unexpected certificate fields"
    kind = cert["kind"]
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        return False, f"unknown certificate kind {kind!r}"
    body = {key: cert[key] for key in ("kind", "payload", "inputs_digest")}
    if _sha256_hex(canonical_json(body).encode()) != cert["payload_digest"]:
        return False, "payload digest mismatch"
    inputs, decode, recheck = CERTIFICATES[kind]
    if len(input_paths) != len(inputs):
        if not inputs:
            return False, f"{kind} certificates take no inputs"
        names = " ".join(f"{name}.json" for name, _ in inputs)
        return False, f"{kind} verification needs --inputs {names}"
    if digest_files(input_paths) != cert["inputs_digest"]:
        return False, "input digest mismatch"
    try:
        loaded = [load(path) for (_, load), path in zip(inputs, input_paths)]
        try:
            decoded = decode(cert["payload"], *loaded)
        except _DECODE_ERRORS as exc:
            return False, f"unusable payload: {exc}"
        reason = recheck(decoded, *loaded)
    except _DECODE_ERRORS as exc:
        return False, f"recheck failed: {exc}"
    return reason is None, reason or ""


def _cmd_verify(args, out) -> int:
    cert = load_json(args.certificate)
    valid, reason = check_certificate(cert, args.inputs or [])
    result: dict = {"valid": valid}
    if not valid:
        result["reason"] = reason
    _emit(out, result)
    return 0


# --- schemas and entry point ------------------------------------------------------

SCHEMAS = {
    "universe": {"size": "int >= 1", "labels": "optional list of distinct strings"},
    "operation": {
        "arity": "int >= 1",
        "table": "list of int, length size^arity, lexicographic order, "
                 "last argument fastest",
        "universe": "optional universe object (otherwise the universe of the fragment "
                    "the operation is asked about, when the sizes match, or inferred from "
                    "table length)",
    },
    "relation": {"arity": "int >= 1", "tuples": "list of int lists"},
    "fragment": {
        "universe": "universe object",
        "arity_bound": "int >= 1",
        "members": "map arity -> list of tables",
        "generators": "optional list of operations",
    },
    "group": {
        "universe": "universe object",
        "add": "binary operation",
        "neg": "unary operation",
        "zero": "int",
    },
    "permutation": {"moved": "map point -> point, a finite-support bijection"},
    "bp_instance": {
        "universe": "universe object",
        "f": "operation",
        "h": "near-unanimity operation",
        "cover": "list of blocks, each a list of domain point indices",
        "base_interpolants": "map 'i,j,...' (block indices) -> table",
    },
    "module_instance": {
        "field": "prime power 2..9",
        "dim": "int >= 1",
        "f": "row-major matrix",
        "interpolants": "list of matrices",
        "blocks": "list of bases (lists of vectors)",
        "ring_span": "optional list of matrices (defaults to the full matrix ring); "
                     "verify rechecks that u is the certified combination of it",
    },
    "certificate": {
        "kind": f"one of {list(CERTIFICATES)}",
        "payload": "kind-specific object",
        "inputs_digest": "sha256 of the input files",
        "payload_digest": "sha256 of the canonical envelope",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonelab",
        description="Desk-scale workbench for clones of finitary operations",
    )
    parser.add_argument(
        "--schema", action="store_true", help="dump all JSON schemas and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate an arity-bounded clone fragment")
    p.add_argument("--generators", required=True)
    p.add_argument("--arity-bound", type=int, required=True)
    p.add_argument("--member-cap", type=int, default=clone_engine.DEFAULT_MEMBER_CAP)
    p.add_argument("--out")

    p = sub.add_parser("member", help="table membership in a fragment")
    p.add_argument("--op", required=True)
    p.add_argument("--fragment", required=True)

    p = sub.add_parser("interp", help="pointwise interpolability")
    p.add_argument("--target", required=True)
    p.add_argument("--fragment", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)

    p = sub.add_parser("ultra", help="cover-condition certificate search")
    p.add_argument("--target", required=True)
    p.add_argument("--fragment", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument(
        "--strategy",
        default="exhaustive_partitions",
        choices=["singletons", "equalizer_atoms", "exhaustive_partitions", "exhaustive"],
    )
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--cert")

    p = sub.add_parser("bp", help="near-unanimity interpolant construction")
    p.add_argument("--instance", required=True)
    p.add_argument("--cert")

    p = sub.add_parser("detect", help="structural detectors")
    p.add_argument("what", choices=["ess-unary", "product", "module", "gs"])
    p.add_argument("--op", required=True)
    p.add_argument("--left-size", type=int)
    p.add_argument("--right-size", type=int)
    p.add_argument("--group")
    p.add_argument("--ideal", type=int)
    p.add_argument("--cert")

    p = sub.add_parser("perm", help="finite-support permutations")
    p.add_argument(
        "what", choices=["parity", "alt", "cover-witness", "altb-check"]
    )
    p.add_argument("--perm")
    p.add_argument("--support")
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--map")
    p.add_argument("--cert")

    p = sub.add_parser("module", help="finite-field recovery pipeline")
    p.add_argument("what", choices=["recover", "demo"])
    p.add_argument("--instance")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--cert")

    p = sub.add_parser("verify", help="recheck an emitted certificate")
    p.add_argument("certificate")
    p.add_argument("--inputs", nargs="*")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "member": _cmd_member,
    "interp": _cmd_interp,
    "ultra": _cmd_ultra,
    "bp": _cmd_bp,
    "detect": _cmd_detect,
    "perm": _cmd_perm,
    "module": _cmd_module,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses, built once per process. Parsing leaves it
    unchanged: every call gets a fresh namespace, and no default is mutable."""
    return build_parser()


def run(argv, out=None) -> int:
    """Entry point suitable for in-process use; prints canonical JSON to
    `out` (default: stdout) and returns the exit code."""
    out = out or sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.schema:
        _emit(out, SCHEMAS)
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args, out)
    except ValueError as exc:
        _emit(out, {"error": {"type": "input", "message": str(exc)}})
        return 1
    except ResourceCapExceeded as exc:
        _emit(out, {"error": {"type": "resource_cap", "message": str(exc)}})
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
