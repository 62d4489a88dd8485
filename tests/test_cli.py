import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import clonelab
import corpus
from clonelab import baker_pixley, cli, clone_engine, finite_core, interpolation
from clonelab import simple_module, symbolic_perms, ultralocal
from clonelab.cli import check_certificate, run


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    text = buf.getvalue()
    payload = json.loads(text) if text.strip() else None
    return code, payload, text


@pytest.fixture()
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    files = {
        "not": write("not.json", {"arity": 1, "table": [1, 0]}),
        "and": write("and.json", {"arity": 2, "table": [0, 0, 0, 1]}),
        "not_gens": write(
            "not_gens.json",
            {"universe": {"size": 2}, "operations": [{"arity": 1, "table": [1, 0]}]},
        ),
        "empty_gens": write(
            "empty_gens.json", {"universe": {"size": 2}, "operations": []}
        ),
        "nand_gens": write(
            "nand_gens.json",
            {"universe": {"size": 2}, "operations": [{"arity": 2, "table": [1, 1, 1, 0]}]},
        ),
    }
    for key, gens, bound in [
        ("proj1", "empty_gens", 1),
        ("notfrag", "not_gens", 1),
        ("nandfrag", "nand_gens", 2),
    ]:
        out = str(tmp_path / f"{key}.json")
        code, _, _ = invoke(
            ["gen", "--generators", files[gens], "--arity-bound", str(bound), "--out", out]
        )
        assert code == 0
        files[key] = out
    files["dir"] = tmp_path
    return files


def test_gen_and_member(workdir):
    code, result, _ = invoke(
        ["member", "--op", workdir["not"], "--fragment", workdir["notfrag"]]
    )
    assert code == 0 and result == {"result": True}
    code, result, _ = invoke(
        ["member", "--op", workdir["not"], "--fragment", workdir["proj1"]]
    )
    assert code == 0 and result == {"result": False}


def test_interp_witness_shape(workdir):
    code, result, _ = invoke(
        [
            "interp",
            "--target", workdir["not"],
            "--fragment", workdir["proj1"],
            "--lambda", "1",
        ]
    )
    assert code == 0
    assert result == {"result": False, "witness": {"S": [[0]]}}


def test_exit_codes(workdir):
    bad = workdir["dir"] / "bad.json"
    bad.write_text("{不 json")
    code, result, _ = invoke(["member", "--op", str(bad), "--fragment", workdir["proj1"]])
    assert code == 1
    assert result["error"]["type"] == "input"
    assert "line" in result["error"]["message"]

    # a negative verdict still exits 0 (tested above); resource caps exit 2
    code, result, _ = invoke(
        [
            "gen",
            "--generators", workdir["nand_gens"],
            "--arity-bound", "2",
            "--member-cap", "3",
        ]
    )
    assert code == 2
    assert result["error"]["type"] == "resource_cap"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_member_cap_below_1_is_an_input_error(workdir, cap):
    code, result, _ = invoke(
        ["gen", "--generators", workdir["nand_gens"], "--arity-bound", "2", "--member-cap", cap]
    )
    assert code == 1
    assert result == {"error": {"type": "input", "message": "member cap must be >= 1"}}


def test_ultra_and_interp_reject_a_negative_lambda_alike(workdir):
    for command in ("interp", "ultra"):
        code, result, _ = invoke(
            [command, "--target", workdir["not"], "--fragment", workdir["notfrag"],
             "--lambda", "-1"]
        )
        assert code == 1
        assert result == {"error": {"type": "input", "message": "subset size must be >= 0"}}


def test_determinism(workdir):
    argv = [
        "ultra",
        "--target", workdir["not"],
        "--fragment", workdir["nandfrag"],
        "--lambda", "2",
    ]
    _, _, first = invoke(argv)
    _, _, second = invoke(argv)
    assert first == second


def test_ultra_certificate_round_trip(workdir):
    cert_path = str(workdir["dir"] / "dagger.json")
    code, result, _ = invoke(
        [
            "ultra",
            "--target", workdir["not"],
            "--fragment", workdir["nandfrag"],
            "--lambda", "2",
            "--cert", cert_path,
        ]
    )
    assert code == 0 and result["result"] is True
    code, verdict, _ = invoke(
        ["verify", cert_path, "--inputs", workdir["not"], workdir["nandfrag"]]
    )
    assert code == 0 and verdict == {"valid": True}
    # wrong inputs are caught by the digest
    code, verdict, _ = invoke(
        ["verify", cert_path, "--inputs", workdir["and"], workdir["nandfrag"]]
    )
    assert code == 0 and verdict["valid"] is False


def test_ultra_negative_verdict_is_disproof(workdir):
    code, result, _ = invoke(
        [
            "ultra",
            "--target", workdir["not"],
            "--fragment", workdir["proj1"],
            "--lambda", "1",
        ]
    )
    assert code == 0
    assert result == {"result": False, "disproof": True}


def test_detect_ess_unary_with_witness_certificate(workdir):
    cert_path = str(workdir["dir"] / "pw.json")
    code, result, _ = invoke(
        ["detect", "ess-unary", "--op", workdir["and"], "--cert", cert_path]
    )
    assert code == 0 and result["essentially_unary"] is False
    assert "witness" in result
    code, verdict, _ = invoke(["verify", cert_path, "--inputs", workdir["and"]])
    assert code == 0 and verdict == {"valid": True}


def test_detect_product(workdir):
    star = {"arity": 2, "table": [0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3]}
    path = workdir["dir"] / "star.json"
    path.write_text(json.dumps(star))
    cert_path = str(workdir["dir"] / "prod.json")
    code, result, _ = invoke(
        [
            "detect", "product",
            "--op", str(path),
            "--left-size", "2",
            "--right-size", "2",
            "--cert", cert_path,
        ]
    )
    assert code == 0 and result["product"] is True
    code, verdict, _ = invoke(["verify", cert_path, "--inputs", str(path)])
    assert code == 0 and verdict == {"valid": True}


def test_detect_module_and_gs(workdir):
    group = {
        "universe": {"size": 2},
        "add": {"arity": 2, "table": [0, 1, 1, 0]},
        "neg": {"arity": 1, "table": [0, 1]},
        "zero": 0,
    }
    gpath = workdir["dir"] / "z2.json"
    gpath.write_text(json.dumps(group))
    code, result, _ = invoke(
        ["detect", "module", "--op", workdir["and"], "--group", str(gpath)]
    )
    assert code == 0 and result == {"compatible": False}

    code, result, _ = invoke(["detect", "gs", "--op", workdir["not"], "--ideal", "0"])
    assert code == 0 and result == {"member": False}


def test_perm_commands(workdir):
    ppath = workdir["dir"] / "t01.json"
    ppath.write_text(json.dumps({"moved": {"0": 1, "1": 0}}))
    code, result, _ = invoke(["perm", "parity", "--perm", str(ppath)])
    assert code == 0 and result == {"parity": "odd"}
    code, result, _ = invoke(["perm", "alt", "--perm", str(ppath)])
    assert code == 0 and result == {"member": False}

    cert_path = str(workdir["dir"] / "alt.json")
    code, result, _ = invoke(
        [
            "perm", "cover-witness",
            "--k", "2", "--a", "0", "--b", "1", "--window", "6",
            "--cert", cert_path,
        ]
    )
    assert code == 0
    assert result["blocks"] == [[0, 1], [2, 3], [4, 5]]
    code, verdict, _ = invoke(["verify", cert_path])
    assert code == 0 and verdict == {"valid": True}

    code, result, _ = invoke(
        [
            "perm", "altb-check",
            "--map", str(ppath),
            "--support", "0,1,2,3",
        ]
    )
    assert code == 0 and result == {"member": False}


def test_module_demo_and_recover(workdir):
    inst_path = str(workdir["dir"] / "inst.json")
    code, _, _ = invoke(
        ["module", "demo", "--field", "3", "--dim", "4", "--seed", "5", "--out", inst_path]
    )
    assert code == 0
    cert_path = str(workdir["dir"] / "mod.json")
    code, result, _ = invoke(
        ["module", "recover", "--instance", inst_path, "--cert", cert_path]
    )
    assert code == 0 and result["result"] is True
    code, verdict, _ = invoke(["verify", cert_path, "--inputs", inst_path])
    assert code == 0 and verdict == {"valid": True}


def test_bp_certificate(workdir):
    instance = {
        "universe": {"size": 2},
        "f": {"arity": 1, "table": [1, 0]},
        "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
        "cover": [[0], [1]],
        "base_interpolants": {
            "": [0, 1],
            "0": [1, 1],
            "1": [0, 0],
            "0,1": [1, 0],
        },
    }
    ipath = workdir["dir"] / "bpinst.json"
    ipath.write_text(json.dumps(instance))
    cert_path = str(workdir["dir"] / "bp.json")
    code, result, _ = invoke(["bp", "--instance", str(ipath), "--cert", cert_path])
    assert code == 0
    assert result["table"] == [1, 0]
    code, verdict, _ = invoke(["verify", cert_path, "--inputs", str(ipath)])
    assert code == 0 and verdict == {"valid": True}


def test_verify_rejects_tampering(workdir):
    cert_path = str(workdir["dir"] / "c.json")
    invoke(
        [
            "ultra",
            "--target", workdir["not"],
            "--fragment", workdir["nandfrag"],
            "--lambda", "1",
            "--cert", cert_path,
        ]
    )
    cert = json.loads(open(cert_path).read())
    cert["payload"]["lambda"] = 0
    tampered = workdir["dir"] / "tampered.json"
    tampered.write_text(json.dumps(cert))
    code, verdict, _ = invoke(
        ["verify", str(tampered), "--inputs", workdir["not"], workdir["nandfrag"]]
    )
    assert code == 0 and verdict["valid"] is False
    assert "digest" in verdict["reason"]

    valid, reason = check_certificate({"kind": "dagger"}, [])
    assert not valid


def test_missing_suboptions_are_input_errors():
    for argv in (
        ["perm", "parity"],
        ["perm", "cover-witness", "--k", "1"],
        ["module", "recover"],
    ):
        code, result, _ = invoke(argv)
        assert code == 1
        assert result["error"]["type"] == "input"


def test_ultra_strategy_alias(workdir):
    base = [
        "ultra",
        "--target", workdir["not"],
        "--fragment", workdir["nandfrag"],
        "--lambda", "1",
    ]
    _, _, spelled_out = invoke(base + ["--strategy", "exhaustive_partitions"])
    _, _, alias = invoke(base + ["--strategy", "exhaustive"])
    assert spelled_out == alias


def test_schema_dump():
    code, schemas, _ = invoke(["--schema"])
    assert code == 0
    assert "certificate" in schemas and "operation" in schemas


def test_no_command_is_usage_error():
    code, payload, _ = invoke([])
    assert code == 1 and payload is None


@pytest.mark.parametrize(
    "generators",
    [
        "nand",
        [1, 2],
        {"universe": {"size": 2}, "operations": [{"arity": 2}]},
        [{"arity": 0, "table": [1]}],
    ],
    ids=["top-level-string", "list-of-ints", "operation-without-table", "arity-zero"],
)
def test_gen_malformed_generators_are_input_errors(tmp_path, generators):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(generators))
    code, result, _ = invoke(["gen", "--generators", str(path), "--arity-bound", "2"])
    assert code == 1
    assert result["error"]["type"] == "input"


@pytest.mark.parametrize(
    "argv, files",
    [
        (["perm", "parity", "--perm", "{p}"], {"p": {"moved": {"0": 1, "1": 2}}}),
        (["perm", "parity", "--perm", "{p}"], {"p": [[0, 1], [1, 0]]}),
        (["module", "demo", "--field", "6"], {}),
        (
            ["detect", "product", "--op", "{op}", "--left-size", "0", "--right-size", "2"],
            {"op": {"arity": 1, "table": [1, 0]}},
        ),
        (
            ["perm", "altb-check", "--map", "{m}", "--support", "0,1"],
            {"m": {"moved": {"0": "one", "1": 0}}},
        ),
        (["perm", "cover-witness", "--k", "-1", "--a", "0", "--b", "1", "--window", "6"], {}),
    ],
    ids=[
        "parity-non-bijective",
        "parity-json-list",
        "module-demo-field-6",
        "product-left-size-0",
        "altb-check-non-integer",
        "cover-witness-negative-k",
    ],
)
def test_malformed_arguments_are_input_errors(tmp_path, argv, files):
    paths = {}
    for key, obj in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(obj))
    code, result, _ = invoke([arg.format(**paths) for arg in argv])
    assert code == 1
    assert result["error"]["type"] == "input"


def test_run_builds_the_parser_once(workdir, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(10):
        code, _, _ = invoke(
            ["member", "--op", workdir["not"], "--fragment", workdir["notfrag"]]
        )
        assert code == 0
    assert len(builds) <= 1


def test_failed_calls_leave_the_next_call_unchanged(workdir):
    interp = ["interp", "--target", workdir["not"], "--fragment", workdir["nandfrag"]]
    first = invoke(interp + ["--lambda", "2"])
    assert first[0] == 0
    assert invoke(interp + ["--lambda", "x"])[0] == 1
    missing = str(workdir["dir"] / "missing.json")
    assert invoke(["interp", "--target", missing, "--fragment", workdir["nandfrag"],
                   "--lambda", "2"])[0] == 1
    capped = invoke(["gen", "--generators", workdir["nand_gens"], "--arity-bound", "2",
                     "--member-cap", "3"])
    assert capped[0] == 2 and capped[1]["error"]["type"] == "resource_cap"
    assert invoke(interp + ["--lambda", "2"]) == first


def test_a_rewritten_fragment_file_is_read_afresh(workdir):
    fragment = workdir["dir"] / "rewritten.json"
    member = ["member", "--op", workdir["not"], "--fragment", str(fragment)]
    fragment.write_text(Path(workdir["notfrag"]).read_text())
    assert invoke(member)[:2] == (0, {"result": True})
    fragment.write_text(Path(workdir["proj1"]).read_text())
    assert invoke(member)[:2] == (0, {"result": False})


@pytest.mark.parametrize("text, message", [
    ('{"universe": {"size": 2}', "malformed JSON in {path}: line 1 column 25: "
                                 "Expecting ',' delimiter"),
    ('{"universe": {"size": 2}, "arity_bound": 1}', "bad fragment file {path}: field error: "
                                                    "'members'"),
], ids=["truncated", "no-members"])
def test_a_malformed_fragment_fails_alike_until_it_is_fixed(workdir, text, message):
    fragment = workdir["dir"] / "broken.json"
    fragment.write_text(text)
    member = ["member", "--op", workdir["not"], "--fragment", str(fragment)]
    expected = {"error": {"type": "input", "message": message.format(path=fragment)}}
    assert invoke(member)[:2] == (1, expected)
    assert invoke(member)[:2] == (1, expected)
    fragment.write_text(Path(workdir["notfrag"]).read_text())
    assert invoke(member)[:2] == (0, {"result": True})


def test_a_cap_lowered_after_a_first_run_still_fires(tmp_path, monkeypatch):
    inst = str(tmp_path / "inst.json")
    assert invoke(["module", "demo", "--field", "2", "--dim", "4", "--out", inst])[0] == 0
    recover = ["module", "recover", "--instance", inst]
    assert invoke(recover)[1]["result"] is True
    monkeypatch.setattr(simple_module, "VECTOR_CAP", 8)
    assert invoke(recover)[:2] == (2, {"error": {"type": "resource_cap",
                                                 "message": "16 vectors exceed cap 8"}})

    # Four singleton blocks under the majority operation: a tree of 13 nodes.
    f = [0, 1, 1, 0]
    bp = ["bp", "--instance", write_json(tmp_path, "bp.json", {
        "universe": {"size": 2}, "f": {"arity": 2, "table": f},
        "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
        "cover": [[0], [1], [2], [3]],
        "base_interpolants": {",".join(map(str, key)): f for size in range(3)
                              for key in itertools.combinations(range(4), size)}})]
    assert invoke(bp)[1]["table"] == f
    monkeypatch.setattr(baker_pixley, "TREE_CAP", 12)
    assert invoke(bp)[:2] == (2, {"error": {"type": "resource_cap", "message": (
        "interpolant tree for 4 blocks under a 3-ary near-unanimity operation "
        "exceeds cap 12 nodes")}})


def test_repeated_queries_decode_a_fragment_once(workdir, monkeypatch):
    decodes = []
    fragment_from_json = clone_engine.fragment_from_json

    def counting_fragment_from_json(data):
        decodes.append(1)
        return fragment_from_json(data)

    monkeypatch.setattr(clone_engine, "fragment_from_json", counting_fragment_from_json)
    path = workdir["nandfrag"]
    cert = str(workdir["dir"] / "cert.json")
    query = ["--target", workdir["and"], "--fragment", path, "--lambda", "2"]
    calls = [["interp", *query] for _ in range(4)]
    calls += [["ultra", *query, "--strategy", strategy]
              for strategy in ("singletons", "equalizer_atoms", "exhaustive")]
    calls += [["ultra", *query, "--cert", cert], ["verify", cert, "--inputs", workdir["and"],
                                                  path]]
    calls += [["interp", *query]]
    assert len(calls) == 10
    results = [invoke(argv)[:2] for argv in calls]
    assert all(code == 0 for code, _ in results) and results[8][1] == {"valid": True}
    assert len(decodes) == 1
    assert cli._load_fragment(path) == fragment_from_json(json.loads(Path(path).read_text()))
    assert len(decodes) == 1


def test_max_blocks_applies_only_to_the_exhaustive_strategy(workdir):
    ultra = ["ultra", "--target", workdir["and"], "--fragment", workdir["nandfrag"],
             "--lambda", "1"]
    for strategy in ("singletons", "equalizer_atoms"):
        code, result, _ = invoke(ultra + ["--strategy", strategy, "--max-blocks", "-3"])
        assert (code, result) == (1, {"error": {"type": "input", "message": (
            f"--max-blocks does not apply to the {strategy} strategy")}})
    for strategy in ("exhaustive", "exhaustive_partitions"):
        assert invoke(ultra + ["--strategy", strategy, "--max-blocks", "2"])[0] == 0


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_python_dash_m_matches_in_process_run(workdir):
    argv = ["gen", "--generators", workdir["nand_gens"], "--arity-bound", "2"]
    src = str(Path(clonelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "clonelab", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, _, text = invoke(argv)
    assert (proc.returncode, proc.stdout) == (code, text)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("command", ["member", "interp", "ultra"])
def test_fragment_with_members_list_is_input_error(workdir, command):
    fragment = json.loads(Path(workdir["notfrag"]).read_text())
    fragment["members"] = list(fragment["members"].values())
    bad = write_json(workdir["dir"], "members_list.json", fragment)
    argv = {
        "member": ["member", "--op", workdir["not"], "--fragment", bad],
        "interp": ["interp", "--target", workdir["not"], "--fragment", bad, "--lambda", "1"],
        "ultra": ["ultra", "--target", workdir["not"], "--fragment", bad, "--lambda", "1"],
    }[command]
    code, result, _ = invoke(argv)
    assert code == 1
    assert result["error"]["type"] == "input"
    assert "members must be an object" in result["error"]["message"]


def test_bp_instance_with_base_interpolants_list_is_input_error(tmp_path):
    instance = {
        "universe": {"size": 2},
        "f": {"arity": 1, "table": [1, 0]},
        "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
        "cover": [[0], [1]],
        "base_interpolants": [[0, 1], [1, 1], [0, 0], [1, 0]],
    }
    path = write_json(tmp_path, "bp_list.json", instance)
    code, result, _ = invoke(["bp", "--instance", path])
    assert code == 1
    assert result["error"]["type"] == "input"
    assert "base_interpolants must be an object" in result["error"]["message"]


def test_verify_dagger_with_interpolants_list_is_invalid(workdir):
    cert_path = str(workdir["dir"] / "dagger.json")
    code, _, _ = invoke(
        ["ultra", "--target", workdir["not"], "--fragment", workdir["nandfrag"],
         "--lambda", "2", "--cert", cert_path]
    )
    assert code == 0
    payload = json.loads(Path(cert_path).read_text())["payload"]
    payload["interpolants"] = list(payload["interpolants"].values())
    inputs = [workdir["not"], workdir["nandfrag"]]
    forged = write_json(
        workdir["dir"], "forged.json", cli.make_certificate("dagger", payload, inputs)
    )
    code, verdict, _ = invoke(["verify", forged, "--inputs", *inputs])
    assert code == 0 and verdict["valid"] is False
    assert "interpolants must be an object" in verdict["reason"]


@pytest.mark.parametrize("shape", ["interpolants-list", "moved-map-list"])
def test_verify_alt_cover_with_list_shapes_is_invalid(tmp_path, shape):
    cert_path = str(tmp_path / "alt.json")
    code, _, _ = invoke(
        ["perm", "cover-witness", "--k", "2", "--a", "0", "--b", "1", "--window", "6",
         "--cert", cert_path]
    )
    assert code == 0
    payload = json.loads(Path(cert_path).read_text())["payload"]
    if shape == "interpolants-list":
        payload["interpolants"] = list(payload["interpolants"].values())
        expected = "interpolants must be an object"
    else:
        key = next(iter(payload["interpolants"]))
        payload["interpolants"][key] = [[0, 1], [1, 0]]
        expected = "moved map must be an object"
    forged = write_json(tmp_path, "forged.json", cli.make_certificate("alt_cover", payload, []))
    code, verdict, _ = invoke(["verify", forged])
    assert code == 0 and verdict["valid"] is False
    assert expected in verdict["reason"]


@pytest.mark.parametrize("entry", [1.5, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("loader", ["operation", "fragment", "generators"])
def test_non_integer_table_entries_are_input_errors(workdir, loader, entry):
    table = [entry, 0, 0, 1]
    if loader == "operation":
        bad = write_json(workdir["dir"], "op.json", {"arity": 2, "table": table})
        argv = ["member", "--op", bad, "--fragment", workdir["nandfrag"]]
    elif loader == "fragment":
        fragment = json.loads(Path(workdir["nandfrag"]).read_text())
        fragment["members"]["2"][-1] = table
        bad = write_json(workdir["dir"], "frag.json", fragment)
        argv = ["member", "--op", workdir["and"], "--fragment", bad]
    else:
        bad = write_json(workdir["dir"], "gens.json", [{"arity": 2, "table": table}])
        argv = ["gen", "--generators", bad, "--arity-bound", "2"]
    code, result, _ = invoke(argv)
    assert code == 1
    assert result["error"]["type"] == "input"
    assert "is not an integer" in result["error"]["message"]


def test_interp_level_zero_needs_a_member_of_the_layer(workdir):
    empty = write_json(workdir["dir"], "empty.json",
                       {"universe": {"size": 2}, "arity_bound": 1, "members": {"1": []}})
    interp = ["interp", "--target", workdir["not"], "--fragment", empty, "--lambda"]
    assert invoke(interp + ["0"])[:2] == (0, {"result": False, "witness": {"S": []}})
    assert invoke(interp + ["1"])[:2] == (0, {"result": False, "witness": {"S": [[0]]}})
    ultra = ["ultra", "--target", workdir["not"], "--fragment", empty, "--lambda", "0"]
    assert invoke(ultra)[:2] == (0, {"result": False, "disproof": True})


def test_gen_with_fractional_arity_is_input_error(tmp_path):
    bad = write_json(tmp_path, "gens.json", [{"arity": 2.7, "table": [1, 1, 1, 0]}])
    code, result, _ = invoke(["gen", "--generators", bad, "--arity-bound", "2"])
    assert code == 1
    assert "arity 2.7 is not an integer" in result["error"]["message"]


def _rename_key(obj, old, new):
    obj[new] = obj.pop(old)


@pytest.mark.parametrize("edit", [
    lambda f: f["universe"].update(size=2.9),
    lambda f: f.update(arity_bound=2.0),
    lambda f: f["generators"][0].update(arity=2.0),
    lambda f: _rename_key(f["members"], "1", " 1"),
    lambda f: _rename_key(f["members"], "1", "+1"),
], ids=["size", "arity-bound", "generator-arity", "key-space", "key-plus"])
def test_fragment_integers_are_read_strictly(workdir, edit):
    fragment = json.loads(Path(workdir["nandfrag"]).read_text())
    edit(fragment)
    bad = write_json(workdir["dir"], "frag.json", fragment)
    code, result, _ = invoke(["member", "--op", workdir["and"], "--fragment", bad])
    assert code == 1 and result["error"]["type"] == "input"


def _forge(directory, cert_path, inputs, edit):
    """A certificate file with an edited payload and recomputed digests."""
    cert = json.loads(Path(cert_path).read_text())
    edit(cert["payload"])
    return write_json(directory, "forged.json",
                      cli.make_certificate(cert["kind"], cert["payload"], inputs))


@pytest.mark.parametrize("edit", [
    lambda p: p.update({"lambda": 2.0}),
    lambda p: p.update(universe_size=2.0),
    lambda p: p.update(arity=1.0),
    lambda p: p["cover"][0].__setitem__(0, 0.0),
    lambda p: p["interpolants"][""].__setitem__(0, 1.0),
    lambda p: _rename_key(p["interpolants"], "0", " 0"),
], ids=["lambda", "universe-size", "arity", "cover-index", "table-entry", "subset-key"])
def test_verify_dagger_reads_integers_strictly(workdir, edit):
    cert_path = str(workdir["dir"] / "dagger.json")
    inputs = [workdir["not"], workdir["nandfrag"]]
    invoke(["ultra", "--target", inputs[0], "--fragment", inputs[1], "--lambda", "2",
            "--strategy", "singletons", "--cert", cert_path])
    assert invoke(["verify", cert_path, "--inputs", *inputs])[1] == {"valid": True}
    forged = _forge(workdir["dir"], cert_path, inputs, edit)
    code, verdict, _ = invoke(["verify", forged, "--inputs", *inputs])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("edit", [
    lambda i: i["base_interpolants"].update({"": [0.5, 1], "0,1": [1.9, 0]}),
    lambda i: _rename_key(i["base_interpolants"], "1", "+1"),
    lambda i: i["cover"][1].__setitem__(0, 1.0),
    lambda i: i["cover"][1].__setitem__(0, -1),
], ids=["tables", "subset-key", "cover-index", "cover-index-negative"])
def test_bp_instance_integers_are_read_strictly(tmp_path, edit):
    instance = {
        "universe": {"size": 2},
        "f": {"arity": 1, "table": [1, 0]},
        "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
        "cover": [[0], [1]],
        "base_interpolants": {"": [0, 1], "0": [1, 1], "1": [0, 0], "0,1": [1, 0]},
    }
    edit(instance)
    code, result, _ = invoke(["bp", "--instance", write_json(tmp_path, "bp.json", instance)])
    assert code == 1 and result["error"]["type"] == "input"


@pytest.mark.parametrize("edit", [
    lambda p: p.update(left_size=2.0),
    lambda p: p.update(arity=2.0),
    lambda p: p["factor_left"].__setitem__(0, 0.0),
], ids=["left-size", "arity", "factor-entry"])
def test_verify_product_reads_integers_strictly(workdir, edit):
    op = write_json(workdir["dir"], "star.json",
                    {"arity": 2, "table": [0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3]})
    cert_path = str(workdir["dir"] / "prod.json")
    invoke(["detect", "product", "--op", op, "--left-size", "2", "--right-size", "2",
            "--cert", cert_path])
    forged = _forge(workdir["dir"], cert_path, [op], edit)
    code, verdict, _ = invoke(["verify", forged, "--inputs", op])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("edit", [
    lambda p: p["rows"][0].__setitem__(0, float(p["rows"][0][0])),
    lambda p: p["image"].__setitem__(0, float(p["image"][0])),
    lambda p: p["relation"].update(arity=3.0),
    lambda p: p["relation"]["tuples"][0].__setitem__(0, 0.0),
], ids=["row", "image", "relation-arity", "relation-entry"])
def test_verify_preservation_witness_reads_integers_strictly(workdir, edit):
    cert_path = str(workdir["dir"] / "pw.json")
    invoke(["detect", "ess-unary", "--op", workdir["and"], "--cert", cert_path])
    forged = _forge(workdir["dir"], cert_path, [workdir["and"]], edit)
    code, verdict, _ = invoke(["verify", forged, "--inputs", workdir["and"]])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("key", [" 0", "0_0", "+0", "x"])
def test_verify_alt_cover_rejects_non_decimal_subset_keys(tmp_path, key):
    cert_path = str(tmp_path / "alt.json")
    invoke(["perm", "cover-witness", "--k", "2", "--a", "0", "--b", "1", "--window", "6",
            "--cert", cert_path])
    forged = _forge(tmp_path, cert_path, [], lambda p: _rename_key(p["interpolants"], "0", key))
    code, verdict, _ = invoke(["verify", forged])
    assert code == 0 and verdict["valid"] is False
    assert "not a decimal index" in verdict["reason"]


def test_verify_dagger_checks_the_shape_before_listing_the_domain(workdir, monkeypatch):
    inputs = [workdir["not"], workdir["nandfrag"]]
    cert_path = str(workdir["dir"] / "dagger.json")
    invoke(["ultra", "--target", inputs[0], "--fragment", inputs[1], "--lambda", "2",
            "--cert", cert_path])
    forged = _forge(workdir["dir"], cert_path, inputs, lambda p: p.update(arity=30))
    tuples = finite_core.Universe.tuples

    def bounded_tuples(self, arity):
        assert arity <= 1, f"listed the {arity}-tuples of a universe"
        return tuples(self, arity)

    monkeypatch.setattr(finite_core.Universe, "tuples", bounded_tuples)
    code, verdict, _ = invoke(["verify", forged, "--inputs", *inputs])
    assert code == 0 and verdict["valid"] is False
    assert "payload arity 30 on 2 elements" in verdict["reason"]


def _bp_instance(tmp_path):
    return write_json(tmp_path, "bp.json", {
        "universe": {"size": 2},
        "f": {"arity": 1, "table": [1, 0]},
        "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
        "cover": [[0], [1]],
        "base_interpolants": {"": [0, 1], "0": [1, 1], "1": [0, 0], "0,1": [1, 0]},
    })


@pytest.mark.parametrize("edit", [
    lambda p: p["tree"].update(blocks=[0.5, 1.5]),
    lambda p: p["tree"].update(blocks=["x"]),
    lambda p: p.update(table=[1.0, 0]),
    lambda p: p.update(tree=[1]),
], ids=["block-floats", "block-string", "table-entry", "tree-list"])
def test_verify_bp_tree_reads_integers_strictly(tmp_path, edit):
    inst = _bp_instance(tmp_path)
    cert_path = str(tmp_path / "bp_cert.json")
    invoke(["bp", "--instance", inst, "--cert", cert_path])
    assert invoke(["verify", cert_path, "--inputs", inst])[1] == {"valid": True}
    forged = _forge(tmp_path, cert_path, [inst], edit)
    code, verdict, _ = invoke(["verify", forged, "--inputs", inst])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("edit", [
    lambda p: p.update(window=6.0),
    lambda p: p.update(window="6"),
    lambda p: p["blocks"][0].__setitem__(0, 0.0),
    lambda p: p.update(k=2.0),
    lambda p: p.update(a=0.0),
    lambda p: p.update(b=True),
    lambda p: p["interpolants"]["0"].update({"2": 3.9}),
    lambda p: _rename_key(p["interpolants"]["0"], "2", " 2"),
    lambda p: _rename_key(p["interpolants"]["0"], "2", "+2"),
], ids=["window-float", "window-string", "block-entry", "k", "a", "b",
        "moved-value", "moved-key-space", "moved-key-plus"])
def test_verify_alt_cover_reads_integers_strictly(tmp_path, edit):
    cert_path = str(tmp_path / "alt.json")
    invoke(["perm", "cover-witness", "--k", "2", "--a", "0", "--b", "1", "--window", "6",
            "--cert", cert_path])
    assert invoke(["verify", cert_path])[1] == {"valid": True}
    forged = _forge(tmp_path, cert_path, [], edit)
    code, verdict, _ = invoke(["verify", forged])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("zero, op, message", [
    (0.9, {"arity": 2, "table": [0, 0, 0, 1]}, "zero 0.9 is not an integer"),
    (0, {"arity": 1, "table": [0, 1, 2]}, "operation and group universes differ"),
], ids=["zero-float", "other-universe"])
def test_detect_module_input_errors(workdir, zero, op, message):
    group = {
        "universe": {"size": 2},
        "add": {"arity": 2, "table": [0, 1, 1, 0]},
        "neg": {"arity": 1, "table": [0, 1]},
        "zero": zero,
    }
    path = write_json(workdir["dir"], "z2.json", group)
    op_path = write_json(workdir["dir"], "op.json", op)
    code, result, _ = invoke(["detect", "module", "--op", op_path, "--group", path])
    assert code == 1 and result["error"]["type"] == "input"
    assert message in result["error"]["message"]


@pytest.mark.parametrize("moved", [
    {"0": 1.9, "1": 0},
    {" 0": 1, "1": 0},
    {"0": 1, "+1": 0},
], ids=["value-float", "key-space", "key-plus"])
@pytest.mark.parametrize("command", ["parity", "altb-check"])
def test_moved_maps_are_read_strictly(tmp_path, moved, command):
    path = write_json(tmp_path, "p.json", {"moved": moved})
    argv = {
        "parity": ["perm", "parity", "--perm", path],
        "altb-check": ["perm", "altb-check", "--map", path, "--support", "0,1"],
    }[command]
    code, result, _ = invoke(argv)
    assert code == 1 and result["error"]["type"] == "input"
    assert result["error"]["message"].startswith(f"bad map file {path}: field error: ")


def test_altb_check_with_a_negative_support_point_is_input_error(tmp_path):
    path = write_json(tmp_path, "p.json", {"moved": {"0": 1, "1": 0}})
    code, result, _ = invoke(["perm", "altb-check", "--map", path, "--support=-1,0"])
    assert code == 1 and result["error"]["type"] == "input"


def _seeded_maps(rng, count):
    """Maps on 8 points, 5 of them beyond 2^16: a bijection of its keys
    when the index is even, two keys sharing an image when it is odd."""
    maps = {}
    for i in range(count):
        keys = rng.sample(range(8), 3) + rng.sample(range(1 << 16, 1 << 20), 5)
        images = keys[:]
        rng.shuffle(images)
        if i % 2:
            images[0] = images[1]
        maps[f"seeded{i}"] = {"moved": {str(k): v for k, v in zip(keys, images)}}
    return maps


def test_altb_check_answers_as_alt_with_a_support(tmp_path):
    maps = {**corpus.PERMS, **{f"altb_{name}": data for name, data in corpus.ALTB_MAPS.items()},
            **_seeded_maps(random.Random(1919), 40)}
    outcomes = []
    for name, data in maps.items():
        path = write_json(tmp_path, f"{name}.json", data)
        keys = list(data["moved"]) if isinstance(data, dict) and isinstance(
            data.get("moved"), dict) else []
        for support in ["0,1,2", "0,1,4,5", "", "100,101", ",".join(keys),
                        ",".join(keys[1:] + ["3"])]:
            altb = invoke(["perm", "altb-check", "--map", path, "--support", support])
            alt = invoke(["perm", "alt", "--perm", path, "--support", support])
            assert (altb[0], altb[2]) == (alt[0], alt[2]), (name, support)
            outcomes.append((name, altb[0], altb[1]))
    refused = {name for name, code, _ in outcomes if code == 1}
    assert {"not_bijection", "not_injective", "altb_into"} <= refused
    assert {f"seeded{i}" for i in range(1, 40, 2)} <= refused
    assert not {f"seeded{i}" for i in range(0, 40, 2)} & refused
    verdicts = [result["member"] for _, code, result in outcomes if code == 0]
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


@pytest.mark.parametrize("edit", [
    lambda d: d.update(dim=3.7),
    lambda d: d.update(field=2.0),
    lambda d: d["f"][0].__setitem__(0, float(d["f"][0][0])),
    lambda d: d["blocks"][0][0].__setitem__(0, float(d["blocks"][0][0][0])),
    lambda d: d.update(ring_span=1),
    lambda d: d.update(ring_span=[[[0.5]]]),
    lambda d: d.update(ring_span=[[[1]]]),
], ids=["dim", "field", "matrix-entry", "block-entry", "ring-span-int",
        "ring-span-float", "ring-span-size"])
def test_module_instances_are_read_strictly(tmp_path, edit):
    inst_path = str(tmp_path / "inst.json")
    invoke(["module", "demo", "--field", "2", "--dim", "3", "--seed", "1", "--out", inst_path])
    assert invoke(["module", "recover", "--instance", inst_path])[0] == 0
    data = json.loads(Path(inst_path).read_text())
    edit(data)
    code, result, _ = invoke(["module", "recover", "--instance",
                              write_json(tmp_path, "bad.json", data)])
    assert code == 1 and result["error"]["type"] == "input"
    assert result["error"]["message"].startswith("bad module instance ")


@pytest.mark.parametrize("edit", [
    lambda p: p.update(field=2.0),
    lambda p: p.update(dim=4.0),
    lambda p: p["r0"][0].__setitem__(0, float(p["r0"][0][0])),
], ids=["field", "dim", "matrix-entry"])
def test_verify_module_recovery_reads_integers_strictly(tmp_path, edit):
    inst_path = str(tmp_path / "inst.json")
    invoke(["module", "demo", "--field", "2", "--dim", "4", "--seed", "9", "--out", inst_path])
    cert_path = str(tmp_path / "mod.json")
    invoke(["module", "recover", "--instance", inst_path, "--cert", cert_path])
    forged = _forge(tmp_path, cert_path, [inst_path], edit)
    code, verdict, _ = invoke(["verify", forged, "--inputs", inst_path])
    assert code == 0 and verdict["valid"] is False
    assert "unusable payload" in verdict["reason"]


@pytest.mark.parametrize("key", ["r0", "t", "u", "recovered"])
@pytest.mark.parametrize("matrix", [[], [[1, 0], [0, 1]]], ids=["empty", "2x2"])
def test_verify_module_recovery_rejects_matrices_of_the_wrong_size(tmp_path, key, matrix):
    inst_path = str(tmp_path / "inst.json")
    invoke(["module", "demo", "--field", "2", "--dim", "3", "--seed", "1", "--out", inst_path])
    cert_path = str(tmp_path / "mod.json")
    invoke(["module", "recover", "--instance", inst_path, "--cert", cert_path])
    forged = _forge(tmp_path, cert_path, [inst_path], lambda p: p.update({key: matrix}))
    code, verdict, _ = invoke(["verify", forged, "--inputs", inst_path])
    assert code == 0 and verdict == {
        "valid": False, "reason": "unusable payload: r0, t, u and recovered must be 3 x 3"}


def test_verify_module_recovery_rechecks_u_against_a_restricted_ring_span(tmp_path):
    inst_path = str(tmp_path / "inst.json")
    invoke(["module", "demo", "--field", "2", "--dim", "4", "--seed", "9", "--out", inst_path])
    code, full, _ = invoke(["module", "recover", "--instance", inst_path])
    assert code == 0
    # A span of u alone: recovery certifies u as 1 times its one matrix.
    data = json.loads(Path(inst_path).read_text())
    span_path = write_json(tmp_path, "span.json", {**data, "ring_span": [full["u"]]})
    cert_path = str(tmp_path / "mod.json")
    code, result, _ = invoke(["module", "recover", "--instance", span_path, "--cert", cert_path])
    assert code == 0 and result["u"] == full["u"] and result["u_coefficients"] == [1]
    assert invoke(["verify", cert_path, "--inputs", span_path])[:2] == (0, {"valid": True})
    # z = e_0 phi^T with phi^T t = 0, so z t = 0 and u + z still reassembles
    # the target, but u + z is not the certified combination.
    F = simple_module.field_of_order(2)
    phi = simple_module.kernel_basis(F, list(zip(*result["t"])))[0]
    forged_u = [[(x + y) % 2 for x, y in zip(row, phi if i == 0 else (0,) * 4)]
                for i, row in enumerate(result["u"])]
    u, t = (simple_module.LinearMap(F, tuple(map(tuple, m))) for m in (forged_u, result["t"]))
    assert u.compose(t).rows == simple_module.LinearMap(
        F, tuple(map(tuple, result["u"]))).compose(t).rows
    forged = _forge(tmp_path, cert_path, [span_path], lambda p: p.update(u=forged_u))
    assert invoke(["verify", forged, "--inputs", span_path])[:2] == (0, {
        "valid": False, "reason": "u is not the certified combination of the ring span"})


def test_verify_rejects_an_unhashable_kind():
    cert = cli.make_certificate("dagger", {}, [])
    cert["kind"] = ["dagger"]
    valid, reason = check_certificate(cert, [])
    assert not valid and reason == "unknown certificate kind ['dagger']"


@pytest.mark.parametrize("kind, reason", [
    ("dagger", "dagger verification needs --inputs target.json fragment.json"),
    ("bp_tree", "bp_tree verification needs --inputs instance.json"),
    ("product_decomp", "product_decomp verification needs --inputs op.json"),
    ("module_recovery", "module_recovery verification needs --inputs instance.json"),
    ("preservation_witness", "preservation_witness verification needs --inputs op.json"),
])
def test_wrong_input_count_names_the_expected_inputs(kind, reason):
    assert check_certificate(cli.make_certificate(kind, {}, []), []) == (False, reason)


def test_alt_cover_takes_no_inputs(workdir):
    cert = cli.make_certificate("alt_cover", {}, [workdir["not"]])
    assert check_certificate(cert, [workdir["not"]]) == (
        False, "alt_cover certificates take no inputs"
    )


def test_verify_counts_the_inputs_before_digesting_them(workdir):
    # The files are counted before they are digested, so too few or too
    # many name the inputs the kind needs.
    dagger = str(workdir["dir"] / "dagger.json")
    invoke(["ultra", "--target", workdir["and"], "--fragment", workdir["nandfrag"],
            "--lambda", "2", "--cert", dagger])
    needs = "dagger verification needs --inputs target.json fragment.json"
    for inputs in ([], [workdir["and"]], [workdir["and"], workdir["nandfrag"], workdir["not"]]):
        argv = ["verify", dagger] + (["--inputs", *inputs] if inputs else [])
        assert invoke(argv)[:2] == (0, {"valid": False, "reason": needs})
    alt = str(workdir["dir"] / "alt.json")
    invoke(["perm", "cover-witness", "--k", "1", "--a", "0", "--b", "1", "--window", "4",
            "--cert", alt])
    assert invoke(["verify", alt, "--inputs", workdir["not"]])[:2] == (
        0, {"valid": False, "reason": "alt_cover certificates take no inputs"}
    )


@pytest.mark.parametrize("universe, message", [
    (2, "universe must be an object, got int"),
    ([2], "universe must be an object, got list"),
    ({"size": 2, "labels": "ab"}, "universe labels must be a list of strings"),
    ({"size": 2, "labels": [1, 2]}, "universe labels must be a list of strings"),
    ({"size": 2, "labels": ["a", None]}, "universe labels must be a list of strings"),
    ({"size": 2, "labels": None}, "universe labels must be a list of strings"),
    ({"size": 2, "labels": []}, "labels must match universe size"),
])
def test_gen_reads_the_universe_strictly(tmp_path, universe, message):
    gens = write_json(tmp_path, "gens.json", {"universe": universe, "operations": []})
    code, result, _ = invoke(["gen", "--generators", gens, "--arity-bound", "1"])
    assert code == 1 and result["error"] == {
        "type": "input", "message": f"bad generators file {gens}: field error: {message}"}


def test_deeply_nested_json_is_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, result, _ = invoke(["member", "--op", str(path), "--fragment", str(path)])
    assert code == 1 and result["error"]["type"] == "input"
    assert result["error"]["message"] == f"malformed JSON in {path}: nested too deeply"


def test_labelled_universe_survives_gen_and_dagger_verify(tmp_path):
    universe = {"size": 2, "labels": ["f", "t"]}
    and_op = {"arity": 2, "table": [0, 0, 0, 1]}
    gens = write_json(tmp_path, "gens.json", {"universe": universe, "operations": [and_op]})
    frag = str(tmp_path / "frag.json")
    code, fragment, _ = invoke(["gen", "--generators", gens, "--arity-bound", "2", "--out", frag])
    assert code == 0 and fragment["universe"] == universe
    target = write_json(tmp_path, "target.json", {"universe": universe, **and_op})
    cert = str(tmp_path / "cert.json")
    code, result, _ = invoke(["ultra", "--target", target, "--fragment", frag,
                              "--lambda", "2", "--cert", cert])
    assert code == 0 and result["result"] is True
    assert invoke(["verify", cert, "--inputs", target, frag]) == (0, {"valid": True},
                                                                  '{"valid":true}\n')

    plain = write_json(tmp_path, "plain.json", {"universe": {"size": 2}, "operations": [and_op]})
    code, fragment, _ = invoke(["gen", "--generators", plain, "--arity-bound", "2"])
    assert code == 0 and fragment["universe"] == {"size": 2}


@pytest.mark.parametrize("point", [" 1", "+1", "1_0"], ids=["space", "plus", "underscore"])
def test_support_points_are_read_as_plain_decimals(tmp_path, point):
    path = write_json(tmp_path, "p.json", {"moved": {"0": 1, "1": 0}})
    for argv in (
        ["perm", "alt", "--perm", path, f"--support=0,{point}"],
        ["perm", "altb-check", "--map", path, f"--support=0,{point}"],
    ):
        code, result, _ = invoke(argv)
        assert code == 1 and result["error"]["type"] == "input"


LABELLED = {"size": 2, "labels": ["f", "t"]}
AND_OP = {"arity": 2, "table": [0, 0, 0, 1]}


@pytest.fixture()
def labelled(tmp_path):
    """A fragment generated on a labelled universe, an operation file with
    no "universe" object, and one that names an unlabelled universe."""
    gens = write_json(tmp_path, "gens.json", {"universe": LABELLED, "operations": [AND_OP]})
    frag = str(tmp_path / "frag.json")
    assert invoke(["gen", "--generators", gens, "--arity-bound", "2", "--out", frag])[0] == 0
    plain = write_json(tmp_path, "t.json", AND_OP)
    explicit = write_json(tmp_path, "t_explicit.json", {"universe": {"size": 2}, **AND_OP})
    return {"dir": tmp_path, "frag": frag, "plain": plain, "explicit": explicit}


def test_member_reads_an_unlabelled_operation_on_the_fragments_universe(labelled):
    code, result, _ = invoke(["member", "--op", labelled["plain"], "--fragment", labelled["frag"]])
    assert (code, result) == (0, {"result": True})


def test_interp_reads_an_unlabelled_target_on_the_fragments_universe(labelled):
    code, result, _ = invoke(["interp", "--target", labelled["plain"],
                              "--fragment", labelled["frag"], "--lambda", "2"])
    assert (code, result) == (0, {"result": True})


def test_ultra_reads_an_unlabelled_target_on_the_fragments_universe(labelled):
    code, result, _ = invoke(["ultra", "--target", labelled["plain"],
                              "--fragment", labelled["frag"], "--lambda", "2"])
    assert code == 0 and result["result"] is True and result["disproof"] is False


def test_verify_reads_an_unlabelled_dagger_target_on_the_fragments_universe(labelled):
    cert = str(labelled["dir"] / "cert.json")
    inputs = [labelled["plain"], labelled["frag"]]
    code, result, _ = invoke(["ultra", "--target", inputs[0], "--fragment", inputs[1],
                              "--lambda", "2", "--cert", cert])
    assert code == 0 and result["result"] is True
    assert invoke(["verify", cert, "--inputs", *inputs]) == (0, {"valid": True}, '{"valid":true}\n')


def test_an_operation_naming_another_universe_is_still_an_input_error(labelled):
    op, frag = labelled["explicit"], labelled["frag"]
    for argv, message in [
        (["member", "--op", op, "--fragment", frag], "operation lives on a different universe"),
        (["interp", "--target", op, "--fragment", frag, "--lambda", "2"],
         "target and fragment universes differ"),
        (["ultra", "--target", op, "--fragment", frag, "--lambda", "2"],
         "target and fragment universes differ"),
    ]:
        code, result, _ = invoke(argv)
        assert code == 1 and result["error"] == {"type": "input", "message": message}


def test_caps_in_the_cover_search_and_the_subset_scan_exit_2(workdir, monkeypatch):
    proj2 = str(workdir["dir"] / "proj2.json")
    invoke(["gen", "--generators", workdir["empty_gens"], "--arity-bound", "2", "--out", proj2])
    xor = write_json(workdir["dir"], "xor.json", {"arity": 2, "table": [0, 1, 1, 0]})
    monkeypatch.setattr(ultralocal, "PARTITION_CAP", 3)
    code, result, _ = invoke(["ultra", "--target", xor, "--fragment", proj2, "--lambda", "2"])
    assert code == 2 and result["error"] == {"type": "resource_cap", "message": (
        "partition cap 3 reached: visited 3 partitions of 4 domain points "
        "into at most 4 blocks, none passing at level 2")}
    # interp and every cover test stop at the same scan's cap
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 1)
    query = ["--target", workdir["and"], "--fragment", workdir["nandfrag"], "--lambda", "2"]
    code, result, _ = invoke(["interp", *query])
    assert code == 2 and result["error"] == {"type": "resource_cap", "message": (
        "subset cap 1 reached: scanned 1 of the 6 subsets of 2 of the 4 domain points, "
        "none failing")}
    code, result, _ = invoke(["ultra", *query, "--strategy", "singletons"])
    assert code == 2 and result["error"] == {"type": "resource_cap", "message": (
        "subset cap 1 reached: scanned 1 of the 6 subsets of 2 of the 4 cover blocks, "
        "none failing")}
    # a passing cover counts its certificate's 11 subfamilies first
    monkeypatch.setattr(interpolation, "SUBSET_CAP", 6)
    monkeypatch.setattr(ultralocal, "SUBFAMILY_CAP", 10)
    code, result, _ = invoke(["ultra", *query, "--strategy", "singletons"])
    assert code == 2 and result["error"] == {"type": "resource_cap", "message": (
        "subfamily cap 10 reached: a certificate on 4 cover blocks at level 2 needs "
        "more than 10 subfamilies, counted before listing any")}


def test_a_certificate_of_2_to_the_27_subfamilies_is_refused_before_listing_any(
        tmp_path, monkeypatch):
    # A 27-point member passes every cover test at level 26; its certificate
    # on the singleton cover would list 2**27 - 1 subfamilies.
    u3_gens = write_json(tmp_path, "gens.json", {"universe": {"size": 3}, "operations": []})
    frag = str(tmp_path / "frag.json")
    invoke(["gen", "--generators", u3_gens, "--arity-bound", "3", "--out", frag])
    target = write_json(tmp_path, "t.json", {"arity": 3, "table": [i // 9 for i in range(27)]})
    monkeypatch.setattr(ultralocal, "SUBFAMILY_CAP", 1 << 26)
    started = time.perf_counter()
    code, result, _ = invoke(["ultra", "--target", target, "--fragment", frag,
                              "--strategy", "singletons", "--lambda", "26"])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (2, {"error": {"type": "resource_cap", "message": (
        "subfamily cap 67108864 reached: a certificate on 27 cover blocks at level 26 "
        "needs more than 67108864 subfamilies, counted before listing any")}})


def test_ess_unary_on_a_12_ary_projection_exits_2_at_the_matrix_cap(tmp_path):
    # 6^12 matrices of rho3 rows; uncapped this scan would take about 40 minutes
    proj = write_json(tmp_path, "p.json", {"arity": 12, "table": [x >> 11 for x in range(4096)]})
    started = time.perf_counter()
    code, result, _ = invoke(["detect", "ess-unary", "--op", proj])
    assert time.perf_counter() - started < 2.0
    assert (code, result) == (2, {"error": {"type": "resource_cap", "message": (
        "matrix cap 1048576 reached: scanned 1048572 of the 2176782336 matrices of 12 rows "
        "from a relation of 6 tuples, none failing")}})


def test_verify_of_a_forged_dagger_with_2_to_the_26_subfamilies_is_fast(tmp_path):
    u3_gens = write_json(tmp_path, "gens.json", {"universe": {"size": 3}, "operations": []})
    frag = str(tmp_path / "frag.json")
    invoke(["gen", "--generators", u3_gens, "--arity-bound", "3", "--out", frag])
    target = write_json(tmp_path, "t.json", {"arity": 3, "table": [i % 3 for i in range(27)]})
    payload = {"lambda": 13, "arity": 3, "universe_size": 3,
               "cover": [[i] for i in range(27)], "interpolants": {}}
    cert = write_json(tmp_path, "cert.json", cli.make_certificate("dagger", payload, [target, frag]))
    started = time.perf_counter()
    code, result, _ = invoke(["verify", cert, "--inputs", target, frag])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (0, {"valid": False, "reason": "certificate fails recheck"})


def test_verify_of_a_forged_alt_cover_with_2_to_the_29_subfamilies_is_fast(tmp_path):
    payload = {"k": 15, "a": 0, "b": 1, "window": 60,
               "blocks": [[2 * i, 2 * i + 1] for i in range(30)], "interpolants": {}}
    cert = write_json(tmp_path, "cert.json", cli.make_certificate("alt_cover", payload, []))
    started = time.perf_counter()
    code, result, _ = invoke(["verify", cert])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (0, {"valid": False, "reason": "cover witness fails recheck"})


def test_cover_witness_past_the_interpolant_cap_exits_2_before_building(tmp_path):
    cert = tmp_path / "cert.json"
    code, result, _ = invoke(["perm", "cover-witness", "--k", "30", "--a", "0", "--b", "1",
                              "--window", "62", "--cert", str(cert)])
    assert (code, result) == (2, {"error": {"type": "resource_cap", "message": (
        "2147483647 interpolants at k = 30 exceed cap 262144")}})
    assert not cert.exists()


def test_verify_of_a_forged_alt_cover_with_a_window_of_10_to_the_9_is_fast(tmp_path):
    payload = {"k": 1, "a": 0, "b": 1, "window": 10 ** 9,
               "blocks": [[0, 1], [2, 3]], "interpolants": {}}
    cert = write_json(tmp_path, "cert.json", cli.make_certificate("alt_cover", payload, []))
    started = time.perf_counter()
    code, result, _ = invoke(["verify", cert])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (0, {"valid": False, "reason": (
        "unusable payload: blocks must partition the window")})


def test_windows_past_the_window_cap_exit_2_before_listing(tmp_path):
    cert = tmp_path / "cert.json"
    window = str(symbolic_perms.WINDOW_CAP + 1)
    message = {"error": {"type": "resource_cap", "message": f"window {window} exceeds cap 65536"}}
    started = time.perf_counter()
    code, result, _ = invoke(["perm", "cover-witness", "--k", "1", "--a", "0", "--b", "1",
                              "--window", window, "--cert", str(cert)])
    assert (code, result) == (2, message)
    assert not cert.exists()
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("window", ["0", "10", str(symbolic_perms.WINDOW_CAP + 1)])
def test_altb_check_rejects_a_window(tmp_path, window):
    # Alt_B is finite, so membership needs no window, and one given is an
    # input error whatever its size, before the map is read.
    argv = ["perm", "altb-check", "--map", str(tmp_path / "absent.json"), "--support", "0,1",
            "--window", window]
    assert invoke(argv)[:2] == (1, {"error": {
        "type": "input", "message": "--window does not apply to perm altb-check"}})


def test_altb_check_with_a_2000_point_support_is_fast(tmp_path):
    moved = write_json(tmp_path, "map.json", {"moved": {"0": 1, "1": 2, "2": 0, "1999": 70000,
                                                        "70000": 1999, "5": 6, "6": 5}})
    support = ",".join(map(str, range(2000)))
    started = time.perf_counter()
    code, result, _ = invoke(["perm", "altb-check", "--map", moved, "--support", support])
    assert time.perf_counter() - started < 2.0
    assert (code, result) == (0, {"member": False})
    code, result, _ = invoke(["perm", "altb-check", "--map", moved,
                              "--support", support + ",70000"])
    assert time.perf_counter() - started < 2.0
    assert (code, result) == (0, {"member": True})


def test_cover_witness_at_the_window_cap_is_written_and_verifies_fast(tmp_path):
    cert = tmp_path / "cert.json"
    window = str(symbolic_perms.WINDOW_CAP)
    started = time.perf_counter()
    code, result, _ = invoke(["perm", "cover-witness", "--k", "8", "--a", "3", "--b", "70",
                              "--window", window, "--cert", str(cert)])
    assert code == 0 and len(result["interpolants"]) == 2 ** 9 - 1
    assert (code, result) == (0, json.loads(cert.read_text())["payload"])
    assert invoke(["verify", str(cert)])[:2] == (0, {"valid": True})
    assert time.perf_counter() - started < 4.0


def test_bp_past_the_tree_cap_exits_2_before_building(tmp_path):
    # 20 blocks over the 32 points of a 5-ary target: 19 singletons and the rest.
    table = [bin(i).count("1") % 2 for i in range(32)]
    cover = [[i] for i in range(19)] + [list(range(19, 32))]
    base = {",".join(map(str, key)): table
            for size in range(3) for key in itertools.combinations(range(20), size)}
    maj = [0, 0, 0, 1, 0, 1, 1, 1]
    inst = write_json(tmp_path, "inst.json", {
        "universe": {"size": 2}, "f": {"arity": 5, "table": table},
        "h": {"arity": 3, "table": maj}, "cover": cover, "base_interpolants": base})
    cert = tmp_path / "cert.json"
    started = time.perf_counter()
    code, result, _ = invoke(["bp", "--instance", inst, "--cert", str(cert)])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (2, {"error": {"type": "resource_cap", "message": (
        "interpolant tree for 20 blocks under a 3-ary near-unanimity operation "
        "exceeds cap 262144 nodes")}})
    assert not cert.exists()


@pytest.mark.parametrize("size, bound, message", [
    (2, 40, "tables of arity 1 to 40 on a 2-element universe exceed cap 65536 points"),
    (1, 1_000_000,
     "tables of arity 1 to 1000000 on a 1-element universe exceed cap 65536 points"),
])
def test_gen_past_the_point_cap_exits_2_before_building(tmp_path, size, bound, message):
    table = [1, 0][-size:]  # not on two elements, the identity on one
    gens = write_json(tmp_path, "gens.json", {"universe": {"size": size},
                                              "operations": [{"arity": 1, "table": table}]})
    out = tmp_path / "frag.json"
    started = time.perf_counter()
    code, result, _ = invoke(["gen", "--generators", gens, "--arity-bound", str(bound),
                              "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert (code, result) == (2, {"error": {"type": "resource_cap", "message": message}})
    assert not out.exists()
