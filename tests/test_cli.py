import io
import json

import pytest

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
            "--window", "12",
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
