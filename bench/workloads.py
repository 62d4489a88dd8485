"""Seeded input generators for the three workloads.

A workload is a list of rounds. Every round holds the same mix of job
kinds; the seed draws the instances. The runner makes whole passes over
all rounds, so every run sees the same jobs in the same proportions and the
seed changes only the instances. Inputs are written as files under the work
directory; the program sees nothing else. What the generator knows about an
input (the generator tables, the field and dimension, how a target was
made) goes into ``Job.facts`` for the checker.

Why each workload exists (README.md has the job lists):

clone_build   both uses of clone_engine/finite_core: closure, where
              composition builds new tables (``gen``), and the Pol/Inv
              filter, where ``preserves`` reads existing ones (``pol``,
              ``inv``, ``detect``). A gain for one use that costs the other
              shows here.
certify       interpolation and ultralocal do most of the work: many
              queries against a few fragments built during set-up, plus
              closure sweeps that query every operation once.
gfq_recovery  simple_module and certificate digesting; bypasses
              clone_engine and ultralocal entirely.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random

from jobs import Job, canonical_json
import oracles

WORKLOADS = ("clone_build", "certify", "gfq_recovery")

# Rounds per pass: one pass takes 7-8 seconds on the 2-core machine the
# benchmark was tuned on. A run makes whole passes.
ROUNDS = {"clone_build": 5, "certify": 9, "gfq_recovery": 8}

U3_GEN_CAP = 150
NAND_CAP = 2048
NO_CAP = 200_000
FRAGMENT_BAND = (30, 90)
VECTOR_CAP = 4096

# (field order, dimension) pairs; the pencil construction needs dim >= max(2, q).
GFQ_GRID = (
    [(2, d) for d in range(2, 12)]
    + [(3, d) for d in range(3, 9)]
    + [(4, d) for d in range(4, 8)]
    + [(5, 5), (5, 6), (7, 7), (8, 8), (9, 9)]
)

MAJ = (0, 0, 0, 1, 0, 1, 1, 1)
# Companions of the majority operation whose generated fragment at arity
# bound 3 builds in milliseconds (with xor or nand it takes 11 s or more).
NU_EXTRAS = ((1, (1, 0)), (1, (0, 0)), (1, (1, 1)), (2, (0, 0, 0, 1)), (2, (0, 1, 1, 1)))
DUAL_DISCRIMINATOR = tuple(
    x if x == y else z for x, y, z in oracles.points(3, 3)
)


class Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def json(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(canonical_json(obj) + "\n")
        return path


def random_table(rng, m: int, arity: int) -> tuple:
    return tuple(rng.randrange(m) for _ in range(m ** arity))


def op_json(arity: int, table) -> dict:
    return {"arity": arity, "table": list(table)}


def gens_json(m: int, gens) -> dict:
    return {"universe": {"size": m}, "operations": [op_json(n, t) for n, t in gens]}


def relations_json(m: int, arity: int, tuples) -> list:
    return [{"universe": {"size": m}, "arity": arity, "tuples": [list(t) for t in tuples]}]


def random_u2_set(rng) -> list:
    arities = rng.choice([(2,), (1, 2), (2, 2)])
    return [(n, random_table(rng, 2, n)) for n in arities]


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of ``ROUNDS[workload]`` rounds; returns the rounds
    as lists of jobs."""
    builder = {
        "clone_build": _clone_build,
        "certify": _certify,
        "gfq_recovery": _gfq_recovery,
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = Writer(workdir)
    rounds = builder(rng, out)
    for jobs in rounds:
        rng.shuffle(jobs)
    return rounds


# --- clone_build ------------------------------------------------------------


def _gen_job(out, name, kind, m, gens, bound, cap) -> Job:
    path = out.json(f"{name}.json", gens_json(m, gens))
    return Job(
        id=name,
        kind=kind,
        steps=[["gen", "--generators", path, "--arity-bound", str(bound), "--member-cap", str(cap)]],
        facts={"m": m, "bound": bound, "cap": cap, "gens": [[n, list(t)] for n, t in gens]},
    )


def _pol_job(out, name, m, arity, tuples, bound, rel_name) -> Job:
    path = out.json(f"{name}.json", relations_json(m, arity, tuples))
    return Job(
        id=name,
        kind="pol",
        library="pol",
        inputs={"relations": path, "bound": bound},
        facts={"m": m, "bound": bound, "relation": rel_name, "tuples": [list(t) for t in tuples]},
    )


def _detect_job(out, name, kind, argv, op_path, cert: bool, facts) -> Job:
    job = Job(id=name, kind=kind, steps=[argv], facts=facts)
    if cert:
        cert_path = out.path(f"{name}.cert.json")
        job.steps[0] = argv + ["--cert", cert_path]
        job.verify = ["verify", cert_path, "--inputs", op_path]
        job.artifacts = [cert_path]
    return job


def _clone_build(rng, out) -> list:
    # The U3 operations come from a stream that does not depend on the
    # seed: sorting them into capped and uncapped costs a closure each, and
    # that set-up cost should not vary with the seed.
    u3_rng = random.Random("clone_build:u3")
    rounds = []
    # Sweeps over every operation with fixed inputs, and nand at bound 4,
    # which always stops at its cap. Each runs once per pass, one per round.
    walls = [
        lambda p: _pol_job(out, f"{p}/pol_rho3_u3", 3, 3, oracles.rho3_tuples(3), 2, "rho3"),
        lambda p: _pol_job(out, f"{p}/pol_neq_u3", 3, 2, oracles.neq_tuples(3), 2, "neq"),
        lambda p: _pol_job(out, f"{p}/pol_pi4_u2", 2, 4, oracles.pi4_tuples(2), 3, "pi4"),
        lambda p: _pol_job(out, f"{p}/pol_rho3_u2", 2, 3, oracles.rho3_tuples(2), 3, "rho3"),
        lambda p: _gen_job(out, f"{p}/gen_nand4", "gen_nand4", 2, [(2, (1, 1, 1, 0))], 4, NAND_CAP),
    ]
    for r in range(ROUNDS["clone_build"]):
        p = f"cb/r{r:02d}"
        jobs = [walls[r % len(walls)](p)]
        # Closure. On U2 at arity bound 3: two complete unary+binary sets
        # (the full 276-member fragment; these all cost about the same) and
        # two random incomplete 1-2-generator sets. On U3 at bound 2: three
        # random binary operations under a member cap, two whose fragment
        # exceeds the cap and one whose fragment fits, so every run has the
        # same share of capped jobs.
        for i in range(2):
            while True:
                gens = [(1, random_table(rng, 2, 1)), (2, random_table(rng, 2, 2))]
                if oracles.post_complete(gens):
                    break
            jobs.append(_gen_job(out, f"{p}/gen_u2_complete_{i}", "gen_u2_complete", 2, gens, 3, NO_CAP))
        for i in range(2):
            while True:
                gens = random_u2_set(rng)
                if not oracles.post_complete(gens):
                    break
            jobs.append(_gen_job(out, f"{p}/gen_u2_partial_{i}", "gen_u2_partial", 2, gens, 3, NO_CAP))
        for i, capped in enumerate((True, True, False)):
            while True:
                gens = [(2, random_table(u3_rng, 3, 2))]
                if (oracles.close_layer(3, gens, 2, U3_GEN_CAP) is None) == capped:
                    break
            jobs.append(_gen_job(out, f"{p}/gen_u3_{i}", "gen_u3", 3, gens, 2, U3_GEN_CAP))

        # Pol of the graph of a random operation on U2 at bound 3.
        n = rng.choice((1, 2))
        g = random_table(rng, 2, n)
        jobs.append(
            _pol_job(out, f"{p}/pol_graph_u2", 2, n + 1, oracles.graph_tuples(2, n, g), 3, "graph")
        )

        # inv over a U2 fragment generated during set-up.
        gens = random_u2_set(rng)
        gpath = out.json(f"{p}/inv_gens.json", gens_json(2, gens))
        fpath = out.path(f"{p}/inv_fragment.json")
        _setup_gen(gpath, 2, fpath)
        jobs.append(
            Job(
                id=f"{p}/inv",
                kind="inv",
                library="inv",
                inputs={"fragment": fpath, "max_arity": 3},
                facts={"m": 2, "max_arity": 3, "gens": [[n, list(t)] for n, t in gens]},
            )
        )

        # detect ess-unary on U3 binary ops: six random, two essentially unary.
        for i in range(8):
            if i < 6:
                table = random_table(rng, 3, 2)
            else:
                u, c = random_table(rng, 3, 1), rng.randrange(2)
                table = tuple(u[pt[c]] for pt in oracles.points(3, 2))
            name = f"{p}/ess_unary_{i}"
            op_path = out.json(f"{name}.json", op_json(2, table))
            jobs.append(
                _detect_job(
                    out, name, "ess_unary", ["detect", "ess-unary", "--op", op_path], op_path, True,
                    {"m": 3, "arity": 2, "table": list(table)},
                )
            )

        # detect product on a 2x2 or 2x3 paired universe: one product, one random.
        for i in range(2):
            left, right = rng.choice(((2, 2), (2, 3), (3, 2)))
            if i == 0:
                table = oracles.product_table(
                    left, right, 2, random_table(rng, left, 2), random_table(rng, right, 2)
                )
            else:
                table = random_table(rng, left * right, 2)
            name = f"{p}/product_{i}"
            op_path = out.json(f"{name}.json", op_json(2, table))
            argv = ["detect", "product", "--op", op_path,
                    "--left-size", str(left), "--right-size", str(right)]
            jobs.append(
                _detect_job(
                    out, name, "product", argv, op_path, True,
                    {"left": left, "right": right, "arity": 2, "table": list(table)},
                )
            )

        # detect gs on U3/U4 binary ops: one member by construction, one random.
        for i in range(2):
            m = rng.choice((3, 4))
            a = rng.randrange(m)
            if i == 0:
                others = [x for x in range(m) if x != a]
                table = tuple(
                    rng.choice(others) if a not in pt else rng.randrange(m)
                    for pt in oracles.points(m, 2)
                )
            else:
                table = random_table(rng, m, 2)
            name = f"{p}/gs_{i}"
            op_path = out.json(f"{name}.json", op_json(2, table))
            argv = ["detect", "gs", "--op", op_path, "--ideal", str(a)]
            jobs.append(
                _detect_job(out, name, "gs", argv, op_path, False,
                            {"m": m, "arity": 2, "table": list(table), "ideal": a})
            )
        rounds.append(jobs)
    return rounds


def _setup_gen(gens_path: str, bound: int, out_path: str, cap: int = NO_CAP) -> dict:
    """Build a fragment with the program during set-up; returns it."""
    from clonelab import cli

    buf = io.StringIO()
    code = cli.run(
        ["gen", "--generators", gens_path, "--arity-bound", str(bound),
         "--member-cap", str(cap), "--out", out_path],
        out=buf,
    )
    if code != 0:
        return {}
    return json.loads(buf.getvalue())


# --- certify ----------------------------------------------------------------


def _certify(rng, out) -> list:
    # Six U3 fragments of 30-90 members from single random binary
    # generators; a cap of 90 makes larger ones stop early. They are drawn
    # from a stream that does not depend on the seed, so set-up work and the
    # cost of a query are comparable across seeds; the seed draws the
    # queries. One U2 fragment holds the majority operation and one more.
    frag_rng = random.Random("certify:fragments")
    fragments = []
    attempt = 0
    while len(fragments) < 6:
        gens = [(2, random_table(frag_rng, 3, 2))]
        gpath = out.json(f"ce/frag_gens_{attempt}.json", gens_json(3, gens))
        fpath = out.path(f"ce/frag{len(fragments)}.json")
        frag = _setup_gen(gpath, 2, fpath, FRAGMENT_BAND[1])
        attempt += 1
        count = sum(len(v) for v in frag.get("members", {}).values())
        if FRAGMENT_BAND[0] <= count <= FRAGMENT_BAND[1]:
            fragments.append((fpath, frag))
    nu_gens = [(3, MAJ), rng.choice(NU_EXTRAS)]
    gpath = out.json("ce/nu_gens.json", gens_json(2, nu_gens))
    nu_path = out.path("ce/nu_fragment.json")
    nu_frag = _setup_gen(gpath, 3, nu_path)

    rounds = []
    for r in range(ROUNDS["certify"]):
        p = f"ce/r{r:02d}"
        jobs = []
        # Four targets per round: three random ones at level 2 (almost never
        # interpolable, so the exhaustive search runs through every
        # partition) and a member changed at one point, at level 1, which
        # stays interpolable (see _perturb). Fixing how many searches run
        # through every partition keeps job_p90_ms inside that group. Each
        # target gets interp at both levels and ultra with every strategy at
        # its own level.
        for i, (how, lam) in enumerate((("random", 2), ("random", 2), ("random", 2),
                                         ("perturbed_member", 1))):
            fpath, frag = fragments[(4 * r + i) % len(fragments)]
            members = frag["members"]["2"]
            if how == "random":
                target = random_table(rng, 3, 2)
            else:
                target = _perturb(rng, members)
            t = f"{p}/t{i}"
            tpath = out.json(f"{t}_target.json", op_json(2, target))
            for level in (lam, 3 - lam):
                q = f"{t}/l{level}"
                facts = {
                    "query": q, "m": 3, "arity": 2, "lam": level, "target": list(target),
                    "how": how, "fragment": fpath, "members": members,
                }
                jobs.append(
                    Job(id=f"{q}/interp", kind="interp",
                        steps=[["interp", "--target", tpath, "--fragment", fpath,
                                "--lambda", str(level)]],
                        facts=facts)
                )
            facts = {**facts, "query": f"{t}/l{lam}", "lam": lam}
            for strategy in ("singletons", "equalizer_atoms", "exhaustive_partitions"):
                cert = out.path(f"{t}_{strategy}.cert.json")
                jobs.append(
                    Job(
                        id=f"{t}/l{lam}/ultra_{strategy}",
                        kind=f"ultra_{strategy}",
                        steps=[["ultra", "--target", tpath, "--fragment", fpath,
                                "--lambda", str(lam), "--strategy", strategy, "--cert", cert]],
                        verify=["verify", cert, "--inputs", tpath, fpath],
                        artifacts=[cert],
                        facts={**facts, "strategy": strategy},
                    )
                )
        jobs.append(_bp_job(rng, out, f"{p}/bp"))
        for i in range(1):
            k = rng.randrange(1, 5)
            window = 2 * (k + 1) + rng.randrange(7)
            a, b = rng.sample(range(window), 2)
            cert = out.path(f"{p}/perm_{i}.cert.json")
            jobs.append(
                Job(
                    id=f"{p}/perm_{i}",
                    kind="perm",
                    steps=[["perm", "cover-witness", "--k", str(k), "--a", str(a), "--b", str(b),
                            "--window", str(window), "--cert", cert]],
                    verify=["verify", cert],
                    artifacts=[cert],
                    facts={"k": k, "a": a, "b": b, "window": window},
                )
            )
        jobs.append(
            Job(id=f"{p}/local_closure", kind="local_closure", library="local_closure",
                inputs={"fragment": nu_path, "kappa": 3, "bound": 3},
                facts={"m": 2, "kappa": 3, "bound": 3, "fragment": nu_frag})
        )
        jobs.append(
            Job(id=f"{p}/nu_check", kind="nu_check", library="nu_check",
                inputs={"fragment": nu_path, "bound": 2},
                facts={"m": 2, "bound": 2, "fragment": nu_frag})
        )
        rounds.append(jobs)
    return rounds


def _perturb(rng, members) -> tuple:
    """A member changed at one point to a value another member takes
    there, so the target stays interpolable at level 1 and the exhaustive
    search ends early."""
    while True:
        target = list(rng.choice(members))
        pos = rng.randrange(len(target))
        values = sorted({t[pos] for t in members} - {target[pos]})
        if values:
            target[pos] = rng.choice(values)
            return tuple(target)


def _bp_job(rng, out, name) -> Job:
    """A near-unanimity interpolation instance: majority on U2 with a
    ternary target, or the dual discriminator on U3 with a binary one.
    Base interpolants agree with the target on their blocks and are random
    elsewhere."""
    if rng.random() < 0.5:
        m, h, h_arity, arity = 2, MAJ, 3, 3
    else:
        m, h, h_arity, arity = 3, DUAL_DISCRIMINATOR, 3, 2
    f = random_table(rng, m, arity)
    npts = m ** arity
    nblocks = rng.randrange(3, 8)
    while True:
        assignment = [rng.randrange(nblocks) for _ in range(npts)]
        if len(set(assignment)) == nblocks:
            break
    blocks = [[i for i in range(npts) if assignment[i] == b] for b in range(nblocks)]
    base = {}
    for size in range(h_arity):
        for combo in itertools.combinations(range(nblocks), size):
            union = {i for b in combo for i in blocks[b]}
            base[",".join(map(str, combo))] = [
                f[i] if i in union else rng.randrange(m) for i in range(npts)
            ]
    path = out.json(f"{name}.json", {
        "universe": {"size": m},
        "f": op_json(arity, f),
        "h": op_json(h_arity, h),
        "cover": blocks,
        "base_interpolants": base,
    })
    cert = out.path(f"{name}.cert.json")
    return Job(
        id=name, kind="bp",
        steps=[["bp", "--instance", path, "--cert", cert]],
        verify=["verify", cert, "--inputs", path],
        artifacts=[cert],
        facts={"f": list(f)},
    )


# --- gfq_recovery -----------------------------------------------------------


def _gfq_recovery(rng, out) -> list:
    rounds = []
    for r in range(ROUNDS["gfq_recovery"]):
        jobs = []
        for q, dim in GFQ_GRID:
            name = f"gf/r{r:02d}/q{q}d{dim}"
            inst = out.path(f"gf/r{r:02d}_q{q}d{dim}.json")
            cert = out.path(f"gf/r{r:02d}_q{q}d{dim}.cert.json")
            demo_seed = rng.randrange(1 << 30)
            jobs.append(
                Job(
                    id=name,
                    kind="module",
                    steps=[
                        ["module", "demo", "--field", str(q), "--dim", str(dim),
                         "--seed", str(demo_seed), "--out", inst],
                        ["module", "recover", "--instance", inst, "--cert", cert],
                    ],
                    verify=["verify", cert, "--inputs", inst],
                    artifacts=[cert],
                    facts={"q": q, "dim": dim, "vector_cap": VECTOR_CAP},
                )
            )
        rounds.append(jobs)
    return rounds
