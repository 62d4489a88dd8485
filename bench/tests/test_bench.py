"""Self-tests of the benchmark harness: python3 -m pytest bench/tests -q"""

import copy
import json
import os

import pytest

import checker
import jobs
import run
import tracer
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# Layers the doc's prediction table ties to each workload.
PREDICTED = {
    "clone_build": [
        "clone_engine.generate", "finite_core.preserves", "finite_core.preservation_witness",
    ],
    "certify": [
        "ultralocal.search_dagger.exhaustive_partitions", "ultralocal.search_dagger.singletons",
        "interpolation.is_lambda_interpolable", "interpolation.agreement_mask",
        "interpolation.local_closure_fragment", "baker_pixley.bp_interpolate",
        "finite_core.superpose",
    ],
    "gfq_recovery": [
        "simple_module.all_vectors", "simple_module.rref", "simple_module.recover",
        "cli.run", "cli.check_certificate", "cli.make_certificate",
    ],
}


def build(workload, tmp_path, seed=run.DEFAULT_SEED):
    run.import_program()
    return workloads.build(workload, seed, str(tmp_path))


def run_jobs(job_list):
    records, _, _ = run.closed_loop([job_list], passes=1)
    return records


def snapshot():
    return {name: dict(vars(mod)) for name, mod in tracer.package_modules().items()}


def test_tracer_restores_every_binding(tmp_path):
    rounds = build("certify", tmp_path)
    before = snapshot()
    t, records, _ = run.trace_pass(rounds[:1], 1)
    after = snapshot()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert len(t.start) > len(records)
    assert t._patched == []


def test_tracer_patches_every_binding_site(tmp_path):
    run.import_program()
    modules = tracer.package_modules()
    original = modules["clonelab.finite_core"].preserves
    t = tracer.Tracer()
    t.install()
    try:
        sites = {mod.__name__ for mod, attr, _ in t._patched if attr == "preserves"}
        assert {"clonelab.finite_core", "clonelab.clone_engine"} <= sites
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in t._patched)
        assert modules["clonelab.cli"].is_lambda_interpolable is not original
    finally:
        t.uninstall()
    assert modules["clonelab.clone_engine"].preserves is original


def _first(records, kind, predicate=lambda outcome: True):
    for job, outcome, _ in records:
        if job.kind == kind and predicate(outcome):
            return job, outcome
    raise AssertionError(f"no {kind} job found")


def _found(outcome):
    return json.loads(outcome.steps[0][1]).get("result") is True


def test_checker_flags_tampering(tmp_path):
    rounds = build("certify", tmp_path)
    records = run_jobs([j for r in rounds[:6] for j in r])
    check = checker.Checker()
    assert all(check.check(job, outcome)[0] for job, outcome, _ in records)

    # A tampered certificate in the printed output and in the file.
    job, outcome = _first(records, "ultra_singletons", _found)
    printed = json.loads(outcome.steps[0][1])
    cert = printed["certificate"]
    key = next(k for k in cert["payload"]["interpolants"] if k)
    table = cert["payload"]["interpolants"][key]
    table[0] = (table[0] + 1) % 3
    bad = copy.deepcopy(outcome)
    bad.steps[0] = (0, jobs.canonical_json(printed) + "\n")
    name = next(iter(bad.artifacts))
    bad.artifacts[name] = jobs.canonical_json(cert) + "\n"
    ok, reason = checker.Checker().check(job, bad)
    assert not ok and "certificate" in reason

    # A certificate file that no longer matches its digest.
    job, outcome = _first(records, "bp")
    bad = copy.deepcopy(outcome)
    name = next(iter(bad.artifacts))
    data = json.loads(bad.artifacts[name])
    data["payload"]["table"][0] ^= 1
    bad.artifacts[name] = jobs.canonical_json(data) + "\n"
    ok, reason = checker.Checker().check(job, bad)
    assert not ok and "certificate" in reason

    # A flipped verdict.
    job, outcome = _first(records, "interp")
    printed = json.loads(outcome.steps[0][1])
    printed["result"] = not printed["result"]
    printed.pop("witness", None)
    bad = copy.deepcopy(outcome)
    bad.steps[0] = (0, jobs.canonical_json(printed) + "\n")
    ok, reason = checker.Checker().check(job, bad)
    assert not ok and "verdict" in reason


def test_checker_flags_wrong_cap_and_traceback(tmp_path):
    rounds = build("gfq_recovery", tmp_path)
    records = run_jobs(rounds[0])
    job, outcome = _first(records, "module", lambda o: o.exit_code() == 0)
    capped = copy.deepcopy(outcome)
    capped.steps = capped.steps[:1] + [(2, '{"error":{"message":"x","type":"resource_cap"}}\n')]
    capped.artifacts = {}
    ok, reason = checker.Checker().check(job, capped)
    assert not ok and "capped" in reason
    crashed = jobs.Outcome([], {}, "Traceback\nValueError: boom\n")
    ok, reason = checker.Checker().check(job, crashed)
    assert not ok and "traceback" in reason


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_digests_reproduce(tmp_path, workload):
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)[workload]
    rounds = build(workload, tmp_path)
    records = run_jobs([j for r in rounds[:2] for j in r])
    for job, outcome, _ in records:
        assert golden[job.id] == [checker.digest(outcome), outcome.exit_code()], job.id


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_wall_time(tmp_path, workload):
    rounds = build(workload, tmp_path)
    t, records, wall = run.trace_pass(rounds[:1], 1)
    totals = t.totals()
    assert sum(own for _, _, own in totals.values()) <= wall
    for name, (calls, total, own) in totals.items():
        assert own <= total + 1e-9, name
    for name in PREDICTED[workload]:
        calls, _, own = totals[name]
        assert calls > 0 and own > 0, name
    path = tmp_path / "spans.bin.gz"
    t.write(str(path))
    header, arrays = tracer.read_spans(str(path))
    assert header["count"] == len(arrays["start"]) == len(t.start)
    assert all(s <= e for s, e in zip(arrays["start"], arrays["end"]))


def test_benchmark_json_names_match_the_report():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    for name in tracer.span_names():
        assert {f"{name}.calls", f"{name}.total_s", f"{name}.self_s"} <= layer
