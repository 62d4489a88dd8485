"""Unified command-line front end with JSON input and output.

Verdict-producing subcommands always exit 0, including negative verdicts;
exit 1 means malformed input, exit 2 a resource cap. Output is canonical
JSON (sorted keys, no whitespace), so identical inputs give byte-identical
output.

Subcommands that produce checkable objects can write a certificate file;
`clonelab verify` rechecks any certificate against the original inputs.
A certificate envelope carries the kind, the payload, a content hash of
the input files, and a hash of the envelope itself, so any byte-level
tampering is detected even when the altered payload would still be
mathematically consistent.

`run(argv, out=...)` is the in-process entry point: it writes the same
stdout and returns the same exit code as the `clonelab` command. It parses
with one parser per process, built on the first call and only read after
that, so a long run of queries pays for the argument tree once.
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
from .finite_core import ResourceCapExceeded, int_from_json, table_from_json
from .interpolation import InterpolationQuery, is_lambda_interpolable

CERT_KINDS = (
    "dagger",
    "bp_tree",
    "product_decomp",
    "alt_cover",
    "module_recovery",
    "preservation_witness",
)


class CliInputError(Exception):
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


def load_json(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: not valid UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def _load_operation(path: str) -> finite_core.Operation:
    data = load_json(path)
    try:
        return finite_core.operation_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"bad operation file {path}: field error: {exc}")


def _load_fragment(path: str) -> clone_engine.CloneFragment:
    data = load_json(path)
    try:
        return clone_engine.fragment_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"bad fragment file {path}: field error: {exc}")


def _load_generators(path: str):
    """(generators, universe or None) from a list of operations or an
    object {"universe": ..., "operations": [...]}. Value errors in the
    operations propagate as ValueError."""
    data = load_json(path)
    if not isinstance(data, (list, dict)):
        raise CliInputError(f"bad generators file {path}: expected a list or an object")
    try:
        if isinstance(data, list):
            ops_json, universe = data, None
        else:
            ops_json = data.get("operations", [])
            universe = (
                finite_core.universe_from_json(data["universe"])
                if "universe" in data
                else None
            )
        return [finite_core.operation_from_json(o, universe) for o in ops_json], universe
    except (KeyError, TypeError) as exc:
        raise CliInputError(f"bad generators file {path}: field error: {exc}")


def _load_moved_map(path: str) -> dict[int, int]:
    """The integer map under the "moved" key of a permutation-shaped file;
    a missing key is the empty map."""
    data = load_json(path)
    moved = data.get("moved", {}) if isinstance(data, dict) else None
    if not isinstance(moved, dict):
        raise CliInputError(f"bad map file {path}: expected an object with a \"moved\" map")
    try:
        return {int(k): int(v) for k, v in moved.items()}
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"bad map file {path}: field error: {exc}")


def _load_permutation(path: str) -> symbolic_perms.FinSuppPermutation:
    try:
        return symbolic_perms.FinSuppPermutation(_load_moved_map(path))
    except ValueError as exc:
        raise CliInputError(f"bad permutation file {path}: {exc}")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(obj) + "\n")


def _emit(out, obj) -> None:
    out.write(canonical_json(obj) + "\n")


# --- subcommand handlers -----------------------------------------------------

def _cmd_gen(args, out) -> int:
    try:
        generators, universe = _load_generators(args.generators)
        fragment = clone_engine.generate(
            generators,
            args.arity_bound,
            universe=universe,
            member_cap=args.member_cap,
        )
    except ValueError as exc:
        raise CliInputError(str(exc))
    result = clone_engine.fragment_to_json(fragment)
    if args.out:
        _write_json(args.out, result)
    _emit(out, result)
    return 0


def _cmd_member(args, out) -> int:
    op = _load_operation(args.op)
    fragment = _load_fragment(args.fragment)
    try:
        result = clone_engine.contains(fragment, op)
    except ValueError as exc:
        raise CliInputError(str(exc))
    _emit(out, {"result": result})
    return 0


def _cmd_interp(args, out) -> int:
    target = _load_operation(args.target)
    fragment = _load_fragment(args.fragment)
    try:
        verdict = is_lambda_interpolable(
            InterpolationQuery(target, fragment, args.lam)
        )
    except ValueError as exc:
        raise CliInputError(str(exc))
    result: dict = {"result": verdict.holds}
    if verdict.witness is not None:
        result["witness"] = {"S": [list(p) for p in verdict.witness]}
    _emit(out, result)
    return 0


def _cmd_ultra(args, out) -> int:
    target = _load_operation(args.target)
    fragment = _load_fragment(args.fragment)
    strategy = (
        "exhaustive_partitions" if args.strategy == "exhaustive" else args.strategy
    )
    try:
        outcome = ultralocal.search_dagger(
            target, fragment, args.lam, strategy, args.max_blocks
        )
    except ValueError as exc:
        raise CliInputError(str(exc))
    result: dict = {"result": outcome.certificate is not None, "disproof": outcome.disproof}
    if outcome.certificate is not None:
        payload = ultralocal.dagger_to_json(outcome.certificate)
        cert = make_certificate("dagger", payload, [args.target, args.fragment])
        result["certificate"] = cert
        if args.cert:
            _write_json(args.cert, cert)
    _emit(out, result)
    return 0


def _load_bp_instance(path: str) -> baker_pixley.BPInstance:
    data = load_json(path)
    try:
        universe = finite_core.universe_from_json(data["universe"])
        f = finite_core.operation_from_json(data["f"], universe)
        h = finite_core.operation_from_json(data["h"], universe)
        cover = ultralocal.cover_from_json(universe, f.arity, data["cover"])
        base = {
            ultralocal.parse_subset_key(key): finite_core.Operation(
                universe, f.arity, table_from_json(table)
            )
            for key, table in finite_core.object_from_json(
                data["base_interpolants"], "base_interpolants"
            ).items()
        }
        return baker_pixley.BPInstance(f, h, cover, base)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliInputError(f"bad interpolation instance {path}: {exc}")


def _cmd_bp(args, out) -> int:
    inst = _load_bp_instance(args.instance)
    result_obj = baker_pixley.bp_interpolate(inst)
    payload = {
        "table": list(result_obj.operation.table),
        "tree": result_obj.tree.to_json(),
    }
    if args.cert:
        _write_json(args.cert, make_certificate("bp_tree", payload, [args.instance]))
    _emit(out, payload)
    return 0


def _cmd_detect(args, out) -> int:
    if args.what == "ess-unary":
        op = _load_operation(args.op)
        witness = finite_core.preservation_witness(op, finite_core.rho3(op.universe))
        result: dict = {"essentially_unary": witness is None}
        if witness is not None:
            payload = {
                "operation": finite_core.operation_to_json(op),
                "relation": finite_core.relation_to_json(finite_core.rho3(op.universe)),
                "rows": [list(r) for r in witness.rows],
                "image": list(witness.image),
            }
            result["witness"] = {"rows": payload["rows"], "image": payload["image"]}
            if args.cert:
                _write_json(
                    args.cert,
                    make_certificate("preservation_witness", payload, [args.op]),
                )
        _emit(out, result)
        return 0

    if args.what == "product":
        op = _load_operation(args.op)
        if args.left_size is None or args.right_size is None:
            raise CliInputError("product detection needs --left-size and --right-size")
        try:
            pu = structure_detect.ProductUniverse(
                finite_core.Universe(args.left_size), finite_core.Universe(args.right_size)
            )
        except ValueError as exc:
            raise CliInputError(str(exc))
        if op.universe.size != pu.paired.size:
            raise CliInputError("operation universe does not match the product sizes")
        split = structure_detect.decompose_product(pu, op)
        result = {"product": bool(split)}
        if split:
            result["factor_left"] = list(split.factor_left.table)
            result["factor_right"] = list(split.factor_right.table)
            if args.cert:
                payload = {
                    "left_size": args.left_size,
                    "right_size": args.right_size,
                    "arity": op.arity,
                    "factor_left": list(split.factor_left.table),
                    "factor_right": list(split.factor_right.table),
                }
                _write_json(
                    args.cert, make_certificate("product_decomp", payload, [args.op])
                )
        else:
            result["witness"] = {
                "rows": [list(r) for r in split.witness.rows],
                "image": list(split.witness.image),
            }
        _emit(out, result)
        return 0

    if args.what == "module":
        op = _load_operation(args.op)
        _require(args, "group")
        gdata = load_json(args.group)
        try:
            universe = finite_core.universe_from_json(gdata["universe"])
            group = structure_detect.AbelianGroup(
                universe,
                finite_core.operation_from_json(gdata["add"], universe),
                finite_core.operation_from_json(gdata["neg"], universe),
                int(gdata["zero"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"bad group file {args.group}: {exc}")
        result = {"compatible": structure_detect.module_compatible(op, group)}
        _emit(out, result)
        return 0

    if args.what == "gs":
        op = _load_operation(args.op)
        if args.ideal is None:
            raise CliInputError("gs detection needs --ideal")
        try:
            result = {"member": structure_detect.goldstern_shelah_member(op, args.ideal)}
        except ValueError as exc:
            raise CliInputError(str(exc))
        _emit(out, result)
        return 0

    raise CliInputError(f"unknown detector {args.what!r}")


def _parse_point_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise CliInputError(f"expected comma-separated integers, got {text!r}")


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

    if args.what == "alt":
        _require(args, "perm")
        p = _load_permutation(args.perm)
        if args.support is not None:
            members = symbolic_perms.in_alt_B(p, _parse_point_list(args.support))
        else:
            members = symbolic_perms.in_alt(p)
        _emit(out, {"member": members})
        return 0

    if args.what == "cover-witness":
        _require(args, "k", "a", "b", "window")
        try:
            witness = symbolic_perms.alt_cover_witness(
                args.k, args.a, args.b, args.window
            )
        except ValueError as exc:
            raise CliInputError(str(exc))
        payload = _alt_cover_payload(witness)
        if args.cert:
            _write_json(args.cert, make_certificate("alt_cover", payload, []))
        _emit(out, payload)
        return 0

    if args.what == "altb-check":
        _require(args, "map", "support", "window")
        moved = _load_moved_map(args.map)
        support = _parse_point_list(args.support)
        probes = [x for x in range(args.window) if x not in set(support)]
        member = symbolic_perms.alt_B_locally_closed_check(moved, support, probes)
        _emit(out, {"member": member})
        return 0

    raise CliInputError(f"unknown permutation command {args.what!r}")


def _alt_cover_payload(witness) -> dict:
    return {
        "k": witness.k,
        "a": witness.a,
        "b": witness.b,
        "window": witness.cover.window,
        "blocks": [sorted(block) for block in witness.cover.blocks],
        "interpolants": {
            ultralocal.subset_key(key): {str(k): v for k, v in sorted(p.moved.items())}
            for key, p in witness.interpolants.items()
        },
    }


def _cmd_module(args, out) -> int:
    if args.what == "recover":
        _require(args, "instance")
        data = load_json(args.instance)
        try:
            inst = simple_module.instance_from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"bad module instance {args.instance}: {exc}")
        span = None
        if "ring_span" in data:
            span = [
                simple_module.matrix_from_json(inst.field, m) for m in data["ring_span"]
            ]
        try:
            result = simple_module.recover(inst, span)
        except simple_module.PipelineError as exc:
            _emit(out, {"result": False, "stage": exc.stage, "message": str(exc)})
            return 0
        payload = {
            "field": inst.field.order,
            "dim": inst.dim,
            "r0": simple_module.matrix_to_json(result.r0),
            "t": simple_module.matrix_to_json(result.t),
            "u": simple_module.matrix_to_json(result.u),
            "u_coefficients": list(result.u_coefficients),
            "recovered": simple_module.matrix_to_json(result.recovered),
        }
        if args.cert:
            _write_json(
                args.cert, make_certificate("module_recovery", payload, [args.instance])
            )
        _emit(out, {"result": True, **payload})
        return 0

    if args.what == "demo":
        try:
            F = simple_module.field_of_order(args.field)
            inst = simple_module.random_instance(F, args.dim, random.Random(args.seed))
        except ValueError as exc:
            raise CliInputError(str(exc))
        result = simple_module.instance_to_json(inst)
        if args.out:
            _write_json(args.out, result)
        _emit(out, result)
        return 0

    raise CliInputError(f"unknown module command {args.what!r}")


# --- certificate verification ---------------------------------------------------

def _recheck_dagger(payload, inputs) -> tuple[bool, str]:
    if len(inputs) != 2:
        return False, "dagger verification needs --inputs target.json fragment.json"
    target = _load_operation(inputs[0])
    fragment = _load_fragment(inputs[1])
    try:
        cert = ultralocal.dagger_from_json(payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"unusable payload: {exc}"
    if ultralocal.verify_dagger_certificate(cert, target, fragment):
        return True, ""
    return False, "certificate fails recheck"


def _recheck_bp_tree(payload, inputs) -> tuple[bool, str]:
    if len(inputs) != 1:
        return False, "bp_tree verification needs --inputs instance.json"
    inst = _load_bp_instance(inputs[0])
    d = inst.h.arity
    nblocks = len(inst.cover.blocks)

    def rebuild(node) -> finite_core.Operation | None:
        blocks = tuple(int(b) for b in node.get("blocks", ()))
        if sorted(blocks) != list(blocks) or any(
            not 0 <= b < nblocks for b in blocks
        ):
            return None
        key = frozenset(blocks)
        if node.get("base"):
            return inst.base_interpolants.get(key)
        children = node.get("children", [])
        if len(children) != d:
            return None
        ordered = sorted(key)
        child_ops = []
        for i, child in enumerate(children):
            expected = key - {ordered[i]}
            if frozenset(int(b) for b in child.get("blocks", ())) != expected:
                return None
            op = rebuild(child)
            if op is None:
                return None
            child_ops.append(op)
        return finite_core.superpose(inst.h, child_ops)

    root = payload.get("tree", {})
    if frozenset(int(b) for b in root.get("blocks", ())) != frozenset(range(nblocks)):
        return False, "tree root does not cover all blocks"
    op = rebuild(root)
    if op is None:
        return False, "tree structure is inconsistent with the instance"
    if list(op.table) != payload.get("table"):
        return False, "recomputed table differs from the certified table"
    if op.table != inst.f.table:
        return False, "certified table does not equal the target"
    return True, ""


def _recheck_product(payload, inputs) -> tuple[bool, str]:
    if len(inputs) != 1:
        return False, "product_decomp verification needs --inputs op.json"
    op = _load_operation(inputs[0])
    try:
        pu = structure_detect.ProductUniverse(
            finite_core.Universe(int_from_json(payload["left_size"], "left_size")),
            finite_core.Universe(int_from_json(payload["right_size"], "right_size")),
        )
        arity = int_from_json(payload["arity"], "arity")
        f_a = finite_core.Operation(pu.left, arity, table_from_json(payload["factor_left"]))
        f_b = finite_core.Operation(pu.right, arity, table_from_json(payload["factor_right"]))
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unusable payload: {exc}"
    if op.arity != arity or op.universe.size != pu.paired.size:
        return False, "payload shapes do not match the operation"
    if structure_detect.product_operation(pu, f_a, f_b).table != op.table:
        return False, "factors do not recompose to the operation"
    return True, ""


def _recheck_alt_cover(payload, inputs) -> tuple[bool, str]:
    if inputs:
        return False, "alt_cover certificates take no inputs"
    try:
        cover = symbolic_perms.SymbolicCover(
            int(payload["window"]),
            tuple(frozenset(int(x) for x in block) for block in payload["blocks"]),
        )
        interpolants = {
            ultralocal.parse_subset_key(key): symbolic_perms.FinSuppPermutation(
                {
                    int(k): int(v)
                    for k, v in finite_core.object_from_json(moved, "moved map").items()
                }
            )
            for key, moved in finite_core.object_from_json(
                payload["interpolants"], "interpolants"
            ).items()
        }
        witness = symbolic_perms.AltCoverWitness(
            int(payload["k"]), int(payload["a"]), int(payload["b"]), cover, interpolants
        )
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unusable payload: {exc}"
    if symbolic_perms.verify_alt_cover(witness):
        return True, ""
    return False, "cover witness fails recheck"


def _recheck_module_recovery(payload, inputs) -> tuple[bool, str]:
    if len(inputs) != 1:
        return False, "module_recovery verification needs --inputs instance.json"
    inst = simple_module.instance_from_json(load_json(inputs[0]))
    F = inst.field
    try:
        r0 = simple_module.matrix_from_json(F, payload["r0"])
        t = simple_module.matrix_from_json(F, payload["t"])
        u = simple_module.matrix_from_json(F, payload["u"])
        recovered = simple_module.matrix_from_json(F, payload["recovered"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unusable payload: {exc}"
    if int(payload.get("field", -1)) != F.order or int(payload.get("dim", -1)) != inst.dim:
        return False, "payload shape does not match the instance"
    if r0.rows != inst.interpolants[0].rows:
        return False, "certified r0 differs from the instance"
    if (u.compose(t) + r0).rows != recovered.rows:
        return False, "u t + r0 does not reassemble the certified map"
    if recovered.rows != inst.f.rows:
        return False, "recovered map differs from the target"
    for v in simple_module.kernel_basis(t):
        if (inst.f - r0).apply(v) != simple_module.zero_vector(inst.dim):
            return False, "kernel containment fails"
    return True, ""


def _recheck_preservation(payload, inputs) -> tuple[bool, str]:
    if len(inputs) != 1:
        return False, "preservation_witness verification needs --inputs op.json"
    op = _load_operation(inputs[0])
    try:
        rel = finite_core.relation_from_json(payload["relation"], op.universe)
        rows = [table_from_json(r, "witness row") for r in payload["rows"]]
        image = table_from_json(payload["image"], "witness image")
        cert_op = finite_core.operation_from_json(payload["operation"], op.universe)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unusable payload: {exc}"
    if cert_op.table != op.table or len(rows) != op.arity:
        return False, "payload operation does not match the input"
    if any(r not in rel.tuples for r in rows):
        return False, "witness rows are not relation tuples"
    computed = tuple(
        op.table[op.index_of(tuple(row[j] for row in rows))] for j in range(rel.arity)
    )
    if computed != image:
        return False, "witness image is not the row-wise application"
    if image in rel.tuples:
        return False, "witness image lies in the relation"
    return True, ""


_RECHECKERS = {
    "dagger": _recheck_dagger,
    "bp_tree": _recheck_bp_tree,
    "product_decomp": _recheck_product,
    "alt_cover": _recheck_alt_cover,
    "module_recovery": _recheck_module_recovery,
    "preservation_witness": _recheck_preservation,
}


def check_certificate(cert: dict, input_paths) -> tuple[bool, str]:
    """Structural, digest, and mathematical recheck of a certificate."""
    if not isinstance(cert, dict):
        return False, "certificate is not an object"
    if set(cert.keys()) != {"kind", "payload", "inputs_digest", "payload_digest"}:
        return False, "unexpected certificate fields"
    kind = cert["kind"]
    if kind not in CERT_KINDS:
        return False, f"unknown certificate kind {kind!r}"
    body = {
        "kind": kind,
        "payload": cert["payload"],
        "inputs_digest": cert["inputs_digest"],
    }
    if _sha256_hex(canonical_json(body).encode()) != cert["payload_digest"]:
        return False, "payload digest mismatch"
    if digest_files(input_paths) != cert["inputs_digest"]:
        return False, "input digest mismatch"
    try:
        return _RECHECKERS[kind](cert["payload"], list(input_paths))
    except (CliInputError, KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"recheck failed: {exc}"


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
        "universe": "optional universe object (inferred from table length otherwise)",
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
        "ring_span": "optional list of matrices (defaults to the full matrix ring)",
    },
    "certificate": {
        "kind": f"one of {list(CERT_KINDS)}",
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
    except CliInputError as exc:
        _emit(out, {"error": {"type": "input", "message": str(exc)}})
        return 1
    except ResourceCapExceeded as exc:
        _emit(out, {"error": {"type": "resource_cap", "message": str(exc)}})
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
