"""Judges every job's output against facts that do not come from the code
path that produced it.

- gen: the fragment holds the projections and the generators, and each
  layer equals a closure computed here (or, on two elements, the full layer
  when Post's criterion says the set is complete). Exit 2 is accepted only
  where that true size exceeds the cap.
- pol: for rho3 the members are exactly the essentially unary operations
  found by ``is_essentially_unary_direct``; for other relations, exactly the
  operations a direct preservation scan accepts.
- inv: exactly the relations every generator preserves, by direct scan.
- detect: verdicts against direct scans; witnesses rechecked here.
- interp / ultra: verdicts against a brute-force interpolability check;
  the interp verdict equals the ultra singletons verdict of the same query.
- bp: the interpolant equals the target. module: the recovered matrix
  equals f; exit 2 only where q^dim exceeds the vector cap.
- Every emitted certificate passes ``verify``, both in the job's own verify
  step and when rechecked here.

For the default seed, stdout and artifact digests must also match the
golden file. A job that was capped in the golden file may instead return a
verdict, which counts if it passes the checks above.
"""

from __future__ import annotations

import hashlib
import json
import os

import oracles
from jobs import CAPPED, Job, Outcome, canonical_json


class CheckFailure(Exception):
    pass


def _require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailure(reason)


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        raise CheckFailure(f"stdout is not JSON: {text[:80]!r}")


def digest(outcome: Outcome) -> str:
    return hashlib.sha256(outcome.digest_text().encode()).hexdigest()


class Checker:
    def __init__(self, golden: dict | None = None):
        self.golden = golden or {}
        self._memo: dict = {}
        self._seen: dict = {}
        self._verdicts: dict = {}

    def check(self, job: Job, outcome: Outcome) -> tuple[bool, str]:
        """(ok, reason) for one attempt. Identical outputs of one job are
        judged once."""
        if outcome.error is not None:
            return False, "traceback: " + outcome.error.strip().splitlines()[-1]
        key = (job.id, digest(outcome))
        if key not in self._seen:
            self._seen[key] = self._judge(job, outcome, key[1])
        return self._seen[key]

    def _judge(self, job, outcome, dig) -> tuple[bool, str]:
        try:
            codes = [code for code, _ in outcome.steps]
            _require(all(c in (0, CAPPED) for c in codes), f"unexpected exit codes {codes}")
            semantic = getattr(self, "_check_" + job.kind.split("_")[0])
            semantic(job, outcome)
        except CheckFailure as exc:
            return False, f"{job.id}: {exc}"
        gold = self.golden.get(job.id)
        if gold is not None and gold[0] != dig:
            if not (gold[1] == CAPPED and outcome.exit_code() == 0):
                return False, f"{job.id}: output differs from the golden digest"
        return True, ""

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # --- certificates ---------------------------------------------------

    def _certificate(self, job: Job, outcome: Outcome, cert=None) -> None:
        """The artifact (or ``cert``) passes ``check_certificate`` here, and
        the job's own verify step said valid."""
        from clonelab import cli

        name = os.path.basename(job.artifacts[0])
        _require(name in outcome.artifacts, "certificate file missing")
        written = _parse(outcome.artifacts[name])
        if cert is not None:
            _require(written == cert, "certificate file differs from the printed one")
        inputs = job.verify[job.verify.index("--inputs") + 1:] if "--inputs" in job.verify else []
        valid, reason = cli.check_certificate(written, inputs)
        _require(valid, f"certificate fails recheck: {reason}")
        _require(len(outcome.steps) >= 2, "verify step did not run")
        _require(_parse(outcome.steps[-1][1]) == {"valid": True}, "verify step rejected the certificate")

    def _no_certificate(self, job: Job, outcome: Outcome) -> None:
        if job.artifacts:
            name = os.path.basename(job.artifacts[0])
            _require(name not in outcome.artifacts, "certificate written for a negative verdict")

    # --- clone_build ----------------------------------------------------

    def _true_layers(self, m, gens, bound, cap):
        """{arity: table set}, with None from the first layer above the cap on."""
        gens = [(n, tuple(t)) for n, t in gens]

        def compute():
            full = m == 2 and oracles.post_complete(gens)
            layers = {}
            for j in range(1, bound + 1):
                if full:
                    size = m ** (m ** j)
                    layers[j] = None if size > cap else set(oracles.all_tables(m, j))
                else:
                    layers[j] = oracles.close_layer(m, gens, j, cap)
                if layers[j] is None:
                    break
            return layers, full

        return self.memo(("gen", m, tuple(gens), bound, cap), compute)

    def _check_gen(self, job, outcome):
        f = job.facts
        m, bound, cap = f["m"], f["bound"], f["cap"]
        layers, full = self._true_layers(m, f["gens"], bound, cap)
        over = any(v is None for v in layers.values())
        code, text = outcome.steps[0]
        result = _parse(text)
        if code == CAPPED:
            _require(over, "capped although the true fragment fits the cap")
            _require(result["error"]["type"] == "resource_cap", "exit 2 without a cap error")
            return
        _require(result["universe"]["size"] == m and result["arity_bound"] == bound, "wrong shape")
        for j in range(1, bound + 1):
            tables = [tuple(t) for t in result["members"][str(j)]]
            table_set = set(tables)
            _require(len(table_set) == len(tables), f"duplicate members at arity {j}")
            _require(
                all(t in table_set for t in oracles.projection_tables(m, j)),
                f"projections missing at arity {j}",
            )
            _require(
                all(tuple(t) in table_set for n, t in f["gens"] if n == j),
                f"generator missing at arity {j}",
            )
            if layers.get(j) is not None:
                _require(table_set == layers[j], f"arity-{j} layer differs from the closure")
            else:
                # True size above the cap: only a full layer is checkable.
                _require(
                    full and len(table_set) == m ** (m ** j)
                    and all(len(t) == m ** j and all(0 <= x < m for x in t) for t in tables),
                    f"arity-{j} layer above the cap is not the full layer",
                )

    def _expected_pol(self, m, bound, relation, tuples):
        def compute():
            from clonelab import finite_core

            universe = finite_core.Universe(m)
            expected = {}
            for j in range(1, bound + 1):
                if relation == "rho3":
                    expected[j] = {
                        t for t in oracles.all_tables(m, j)
                        if finite_core.is_essentially_unary_direct(
                            finite_core.Operation(universe, j, t)
                        )
                    }
                else:
                    expected[j] = {
                        t for t in oracles.all_tables(m, j)
                        if oracles.preserves(m, j, t, map(tuple, tuples))
                    }
            return expected

        key = ("pol", m, bound, relation, canonical_json(tuples))
        return self.memo(key, compute)

    def _check_pol(self, job, outcome):
        f = job.facts
        code, text = outcome.steps[0]
        _require(code == 0, "pol capped")
        result = _parse(text)
        expected = self._expected_pol(f["m"], f["bound"], f["relation"], f["tuples"])
        for j in range(1, f["bound"] + 1):
            got = [tuple(t) for t in result["members"][str(j)]]
            _require(len(got) == len(set(got)), f"duplicate members at arity {j}")
            _require(set(got) == expected[j], f"arity-{j} members differ from the direct scan")

    def _check_inv(self, job, outcome):
        f = job.facts
        m, r_max = f["m"], f["max_arity"]
        gens = [(n, tuple(t)) for n, t in f["gens"]]

        def compute():
            out = set()
            for r in range(1, r_max + 1):
                pts = oracles.points(m, r)
                for bits in range(1 << len(pts)):
                    rel = [p for i, p in enumerate(pts) if bits >> i & 1]
                    if all(oracles.preserves(m, n, t, rel) for n, t in gens):
                        out.add((r, frozenset(rel)))
            return out

        expected = self.memo(("inv", m, r_max, tuple(gens)), compute)
        code, text = outcome.steps[0]
        _require(code == 0, "inv capped")
        got = [(d["arity"], frozenset(tuple(t) for t in d["tuples"])) for d in _parse(text)]
        _require(len(got) == len(set(got)), "duplicate relations")
        _require(set(got) == expected, "relations differ from the direct scan")

    def _check_ess(self, job, outcome):
        f = job.facts
        m, n, table = f["m"], f["arity"], f["table"]
        result = _parse(outcome.steps[0][1])
        unary = oracles.essential_count(m, n, table) <= 1
        _require(result["essentially_unary"] == unary, "essential-unarity verdict is wrong")
        if unary:
            self._no_certificate(job, outcome)
            return
        rel = set(oracles.rho3_tuples(m))
        rows = [tuple(r) for r in result["witness"]["rows"]]
        image = tuple(result["witness"]["image"])
        _require(len(rows) == n and all(r in rel for r in rows), "witness rows not in rho3")
        applied = tuple(table[oracles.index_of(m, [r[j] for r in rows])] for j in range(3))
        _require(applied == image and image not in rel, "witness image is wrong")
        self._certificate(job, outcome)

    def _check_product(self, job, outcome):
        f = job.facts
        left, right, n, table = f["left"], f["right"], f["arity"], f["table"]
        result = _parse(outcome.steps[0][1])
        splits = oracles.splits_as_product(left, right, n, table)
        _require(result["product"] == splits, "product verdict is wrong")
        if splits:
            rebuilt = oracles.product_table(
                left, right, n, result["factor_left"], result["factor_right"]
            )
            _require(rebuilt == tuple(table), "factors do not recompose")
            self._certificate(job, outcome)
        else:
            self._no_certificate(job, outcome)

    def _check_gs(self, job, outcome):
        f = job.facts
        result = _parse(outcome.steps[0][1])
        expected = oracles.gs_member(f["m"], f["arity"], f["table"], f["ideal"])
        _require(result == {"member": expected}, "ideal-membership verdict is wrong")

    # --- certify --------------------------------------------------------

    def _truth(self, f):
        key = ("interp", f["query"])
        return self.memo(
            key,
            lambda: oracles.interpolable(
                f["m"], f["arity"], f["target"], f["members"], f["lam"]
            ),
        )

    def _record_verdict(self, query, kind, verdict):
        seen = self._verdicts.setdefault(query, {})
        seen[kind] = verdict
        if "interp" in seen and "singletons" in seen:
            _require(
                seen["interp"] == seen["singletons"],
                "interp verdict differs from the ultra singletons verdict",
            )

    def _check_interp(self, job, outcome):
        f = job.facts
        holds, _ = self._truth(f)
        result = _parse(outcome.steps[0][1])
        _require(result["result"] == holds, "interpolability verdict is wrong")
        if not holds:
            S = [tuple(p) for p in result["witness"]["S"]]
            npts = f["m"] ** f["arity"]
            _require(len(set(S)) == min(f["lam"], npts), "witness has the wrong size")
            idx = [oracles.index_of(f["m"], p) for p in S]
            _require(
                not any(all(t[i] == f["target"][i] for i in idx) for t in f["members"]),
                "witness set is interpolated by a member",
            )
        self._record_verdict(f["query"], "interp", result["result"])

    def _check_ultra(self, job, outcome):
        f = job.facts
        holds, _ = self._truth(f)
        result = _parse(outcome.steps[0][1])
        found = result["result"]
        strategy = f["strategy"]
        if strategy == "equalizer_atoms":
            _require(not found or holds, "certificate claimed for a non-interpolable target")
        else:
            _require(found == holds, f"{strategy} verdict is wrong")
        exhaustive = strategy == "exhaustive_partitions"
        _require(result["disproof"] == (exhaustive and not holds), "disproof flag is wrong")
        if found:
            self._certificate(job, outcome, result["certificate"])
        else:
            self._no_certificate(job, outcome)
        if strategy == "singletons":
            self._record_verdict(f["query"], "singletons", found)

    def _check_bp(self, job, outcome):
        result = _parse(outcome.steps[0][1])
        _require(result["table"] == job.facts["f"], "interpolant differs from the target")
        self._certificate(job, outcome)

    def _check_perm(self, job, outcome):
        f = job.facts
        result = _parse(outcome.steps[0][1])
        _require(
            [result[k] for k in ("k", "a", "b", "window")] == [f[k] for k in ("k", "a", "b", "window")],
            "witness parameters differ from the request",
        )
        blocks = [set(b) for b in result["blocks"]]
        _require(
            sorted(x for b in blocks for x in b) == list(range(f["window"])),
            "blocks do not partition the window",
        )
        _require({f["a"], f["b"]} <= blocks[0], "moved points not in the first block")
        self._certificate(job, outcome)

    def _check_local(self, job, outcome):
        f = job.facts
        m, bound = f["m"], f["bound"]
        frag = f["fragment"]

        def compute():
            expected = {}
            for j in range(1, bound + 1):
                members = [tuple(t) for t in frag["members"][str(j)]]
                lam = min(f["kappa"] - 1, m ** j)
                expected[j] = {
                    t for t in oracles.all_tables(m, j)
                    if oracles.interpolable(m, j, t, members, lam)[0]
                }
            return expected

        expected = self.memo(("local", canonical_json(frag), f["kappa"], bound), compute)
        code, text = outcome.steps[0]
        _require(code == 0, "closure sweep capped")
        result = _parse(text)
        for j in range(1, bound + 1):
            got = {tuple(t) for t in result["members"][str(j)]}
            _require(got == expected[j], f"arity-{j} closure differs from the brute-force scan")

    def _check_nu(self, job, outcome):
        f = job.facts
        code, text = outcome.steps[0]
        _require(code == 0, "closure sweep capped")
        result = _parse(text)
        size = sum(len(f["fragment"]["members"][str(j)]) for j in range(1, f["bound"] + 1))
        _require(result["holds"] is True and result["extras"] == [], "closure adds operations")
        _require(result["checked"] == size, "closure size differs from the fragment")
        _require(tuple(result["nu_op"]["table"]) == tuple(f["fragment"]["generators"][0]["table"]),
                 "near-unanimity operation is not the majority generator")

    # --- gfq_recovery ---------------------------------------------------

    def _check_module(self, job, outcome):
        f = job.facts
        over = f["q"] ** f["dim"] > f["vector_cap"]
        code, text = outcome.steps[0]
        _require(code == 0, "demo failed")
        inst = _parse(text)
        _require(inst["field"] == f["q"] and inst["dim"] == f["dim"], "demo instance has the wrong shape")
        _require(len(outcome.steps) >= 2, "recover did not run")
        code, text = outcome.steps[1]
        result = _parse(text)
        if code == CAPPED:
            _require(over, "capped although q^dim fits the vector cap")
            _require(result["error"]["type"] == "resource_cap", "exit 2 without a cap error")
            self._no_certificate(job, outcome)
            return
        _require(result.get("result") is True, "recovery failed on a valid instance")
        _require(result["recovered"] == inst["f"], "recovered matrix differs from f")
        self._certificate(job, outcome)
