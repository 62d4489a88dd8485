"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS line (visible with pytest -s or -rA); a
failure shows up as an ordinary assertion error. All comparisons are
discrete equalities, so there are no tolerances anywhere.
"""

import itertools
import json
import random
import time

from clonelab import cli
from clonelab.clone_engine import fragments_equal, generate
from clonelab.finite_core import (
    Operation,
    Universe,
    all_operations,
    is_conservative,
    is_essentially_unary_direct,
    operation_from_callable,
    pi4,
    preserves,
    rho3,
)
from clonelab.interpolation import InterpolationQuery, is_lambda_interpolable, local_closure_fragment
from clonelab.simple_module import field_of_order, random_instance, recover
from clonelab.structure_detect import (
    ProductUniverse,
    decompose_product,
    goldstern_shelah_member,
    product_operation,
)
from clonelab.symbolic_perms import (
    FinSuppPermutation,
    alt_cover_witness,
    in_alt,
    in_alt_B,
    transposition,
    verify_alt_cover,
)
from clonelab.ultralocal import search_dagger, ultra_closure_fragment
from fip_oracle import equalizer_family, fip_holds, fip_holds_lazy
from point_covers import point_cover
from product_oracles import commutes_with_band, product_clone


U2 = Universe(2)
U3 = Universe(3)


def _passline(n, text, started):
    print(f"PASS criterion {n}: {text} [{time.time() - started:.1f}s]")


def _op_pool():
    return list(all_operations(U2, 1)) + list(all_operations(U2, 2))


def _fragment_corpus():
    """Every fragment generated by at most two generators from the unary
    and binary operations on two elements, deduplicated by member tables
    (equal member sets give equal answers for every check below)."""
    pool = _op_pool()
    generator_sets = (
        [()]
        + [(g,) for g in pool]
        + list(itertools.combinations(pool, 2))
    )
    distinct = {}
    for gens in generator_sets:
        frag = generate(gens, 2, universe=U2)
        distinct.setdefault((frag.tables(1), frag.tables(2)), frag)
    assert len(generator_sets) == 211
    return list(distinct.values())


def test_criterion_01_characterization_oracle():
    started = time.time()
    fragments = _fragment_corpus()
    targets = _op_pool()
    cases = 0
    for frag in fragments:
        for f in targets:
            for lam in (1, 2):
                searched = bool(
                    search_dagger(f, frag, lam, "exhaustive_partitions")
                )
                direct = is_lambda_interpolable(
                    InterpolationQuery(f, frag, lam)
                ).holds
                assert searched == direct, (f.table, lam)
                cases += 1
    assert cases == len(fragments) * 20 * 2
    _passline(1, f"cover search matches subset interpolation on {cases} cases", started)


def test_criterion_02_fip_three_way_equivalence():
    started = time.time()
    fragments = _fragment_corpus()
    targets = _op_pool()
    cases = 0
    for frag in fragments:
        for f in targets:
            for lam in (1, 2):
                certificate_exists = bool(
                    search_dagger(f, frag, lam, "exhaustive_partitions")
                )
                family = equalizer_family(f, frag, lam)
                union = set()
                for matrices in family.entries.values():
                    union |= matrices
                finite_union_covers = len(union) == family.matrix_space_size()
                fip_fails = not fip_holds(family)
                lazy_fip_fails = not fip_holds_lazy(f, frag, lam)
                assert certificate_exists == finite_union_covers == fip_fails
                assert fip_fails == lazy_fip_fails
                cases += 1
    _passline(2, f"three-way equivalence holds on {cases} cases", started)


def test_criterion_03_essential_unarity_and_pp_formula():
    started = time.time()
    mismatches = 0
    checked = 0
    for m in (1, 2, 3):
        universe = Universe(m)
        rel = rho3(universe)
        for arity in (1, 2):
            for op in all_operations(universe, arity):
                checked += 1
                if preserves(op, rel) != is_essentially_unary_direct(op):
                    mismatches += 1
    assert mismatches == 0
    # phi(a,b,c,d) = exists y0,y1 (rho3(a,b,y0) & rho3(y0,c,d) & rho3(b,a,y1) & rho3(y1,c,d))
    for m in (2, 3, 4):
        universe = Universe(m)
        r = rho3(universe).tuples
        derived = {
            (a, b, c, d) for a, b, c, d in universe.tuples(4)
            if any({(a, b, y0), (y0, c, d), (b, a, y1), (y1, c, d)} <= r for y0, y1 in universe.tuples(2))
        }
        assert derived == pi4(universe).tuples
    _passline(3, f"{checked} operations, zero mismatches; formula defines the 4-ary relation", started)


def test_criterion_04_product_detection():
    started = time.time()
    pu = ProductUniverse(U2, U2)
    for op in all_operations(pu.paired, 1):
        split = decompose_product(pu, op)
        assert bool(split) == commutes_with_band(pu, op)
        if split:
            recomposed = product_operation(pu, split.factor_left, split.factor_right)
            assert recomposed.table == op.table

    rng = random.Random(2024)
    pu23 = ProductUniverse(U2, U3)
    size = pu23.paired.size
    checked = 0
    for i in range(1000):
        if i % 2 == 0:
            table = tuple(rng.randrange(size) for _ in range(size * size))
            f = Operation(pu23.paired, 2, table)
        else:
            g = Operation(U2, 2, tuple(rng.randrange(2) for _ in range(4)))
            h = Operation(U3, 2, tuple(rng.randrange(3) for _ in range(9)))
            f = product_operation(pu23, g, h)
        split = decompose_product(pu23, f)
        assert bool(split) == commutes_with_band(pu23, f)
        if split:
            recomposed = product_operation(pu23, split.factor_left, split.factor_right)
            assert recomposed.table == f.table
        checked += 1
    assert checked == 1000
    _passline(4, "band commutation matches decomposition on 256 + 1000 maps", started)


def test_criterion_05_near_unanimity_closure_and_interpolants():
    started = time.time()
    maj = operation_from_callable(U2, 3, lambda a, b, c: (a & b) | (a & c) | (b & c))
    frag = generate([maj], 2)
    closure = ultra_closure_fragment(frag, 3, 2)
    assert fragments_equal(closure, frag)

    from clonelab.baker_pixley import BPInstance, bp_interpolate
    rng = random.Random(505)
    domain = list(U2.tuples(3))
    successes = 0
    for _ in range(50):
        while True:
            assignment = [rng.randrange(5) for _ in domain]
            labels = sorted(set(assignment))
            if len(labels) >= 2:
                break
        blocks = tuple(
            frozenset(domain[i] for i, a in enumerate(assignment) if a == label)
            for label in labels
        )
        cover = point_cover(U2, 3, blocks)
        f = Operation(U2, 3, tuple(rng.randrange(2) for _ in domain))
        base = {}
        for sz in range(min(2, len(blocks)) + 1):
            for combo in itertools.combinations(range(len(blocks)), sz):
                union = set()
                for b in combo:
                    union |= blocks[b]
                base[frozenset(combo)] = Operation(
                    U2,
                    3,
                    tuple(
                        f.table[f.index_of(p)] if p in union else rng.randrange(2)
                        for p in domain
                    ),
                )
        result = bp_interpolate(BPInstance(f, maj, cover, base))
        assert result.operation.table == f.table
        successes += 1
    assert successes == 50
    _passline(5, "closure fixes the majority fragment; 50/50 interpolants exact", started)


def test_criterion_06_product_closure_commutation():
    started = time.time()
    neg = operation_from_callable(U2, 1, lambda a: 1 - a)
    factors = [generate([], 1, universe=U2), generate([neg], 1)]
    for P, Q in itertools.product(factors, repeat=2):
        closed_product = local_closure_fragment(product_clone(P, Q, 1), 4, 1)
        product_of_closed = product_clone(
            local_closure_fragment(P, 4, 1), local_closure_fragment(Q, 4, 1), 1
        )
        assert fragments_equal(closed_product, product_of_closed)
    _passline(6, "closing the product equals the product of closures (4 pairs)", started)


def test_criterion_07_alternating_witnesses():
    started = time.time()
    for k in range(7):
        witness = alt_cover_witness(k, 0, 1, 2 * (k + 1))
        assert verify_alt_cover(witness)
        assert not in_alt(transposition(0, 1))
        for p in witness.interpolants.values():
            assert in_alt(p)

    rng = random.Random(7007)
    window = 12
    bound = [0, 1, 2, 3]
    accepted = rejected = refused = 0
    for i in range(500):
        style = i % 3
        if style == 0:
            image = list(bound)
            rng.shuffle(image)
            mapping = dict(zip(bound, image))
        elif style == 1:
            points = list(range(window))
            rng.shuffle(points)
            mapping = {j: points[j] for j in range(window)}
        else:
            mapping = {
                j: rng.randrange(window) for j in rng.sample(range(window), 5)
            }
        expected = _alt_b_membership(mapping, bound)
        try:
            got = in_alt_B(FinSuppPermutation(mapping), bound)
        except ValueError:
            got = None
        assert got == expected, mapping
        accepted += got is True
        rejected += got is False
        refused += got is None
    assert accepted > 0 and rejected > 0 and refused > 0
    _passline(7, f"7 cover witnesses verify; membership {accepted}/{rejected}/{refused} "
                 "(member/not/not a bijection) exact on 500 maps", started)


def _alt_b_membership(mapping, bound):
    """Whether the map is an even permutation moving only points of bound,
    or None when it is not a bijection of its keys. The parity is that of
    the inversions of the images listed over the sorted keys."""
    keys = sorted(mapping)
    images = [mapping[k] for k in keys]
    if sorted(images) != keys:
        return None
    inversions = sum(a > b for a, b in itertools.combinations(images, 2))
    moved = {k for k in keys if mapping[k] != k}
    return inversions % 2 == 0 and moved <= set(bound)


def test_criterion_08_module_recovery_pipeline():
    started = time.time()
    rng = random.Random(808)
    exact = 0
    kernel_claim_violations = 0
    plans = [(2, (2, 3, 4, 5, 6)), (3, (3, 4, 5, 6))]
    runs = 0
    while runs < 100:
        for q, dims in plans:
            F = field_of_order(q)
            for dim in dims:
                if runs >= 100:
                    break
                inst = random_instance(F, dim, rng)
                try:
                    result = recover(inst)
                except Exception as exc:  # a kernel-claim rejection would land here
                    kernel_claim_violations += 1
                    raise AssertionError(f"pipeline failed: {exc}")
                if result.recovered.rows == inst.f.rows:
                    exact += 1
                runs += 1
    assert exact == 100 and kernel_claim_violations == 0
    _passline(8, "100/100 recoveries exact; kernel containment never rejected", started)


def test_criterion_09_principal_ideal_membership():
    started = time.time()
    conservative_count = 0
    for arity in (1, 2):
        for op in all_operations(U3, arity):
            if is_conservative(op):
                conservative_count += 1
                for a in range(3):
                    assert goldstern_shelah_member(op, a)
    assert conservative_count == 1 + 64  # identity plus the binary ones

    for a in range(3):
        found = None
        for arity in (1, 2):
            for op in all_operations(U3, arity):
                if not is_conservative(op) and not goldstern_shelah_member(op, a):
                    found = op
                    break
            if found:
                break
        assert found is not None, f"no counterexample for ideal point {a}"
    _passline(9, f"{conservative_count} conservative operations pass; counterexamples found per point", started)


def _emit_certificates(tmp_path):
    """One certificate of each kind through the command line."""

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def run_ok(argv):
        import io

        buf = io.StringIO()
        assert cli.run(argv, out=buf) == 0
        return buf.getvalue()

    not_path = write("not.json", {"arity": 1, "table": [1, 0]})
    and_path = write("and.json", {"arity": 2, "table": [0, 0, 0, 1]})
    nand_gens = write(
        "nand_gens.json",
        {"universe": {"size": 2}, "operations": [{"arity": 2, "table": [1, 1, 1, 0]}]},
    )
    frag_path = str(tmp_path / "nandfrag.json")
    run_ok(["gen", "--generators", nand_gens, "--arity-bound", "2", "--out", frag_path])

    star_path = write(
        "star.json",
        {"arity": 2, "table": [0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3]},
    )
    bp_path = write(
        "bpinst.json",
        {
            "universe": {"size": 2},
            "f": {"arity": 1, "table": [1, 0]},
            "h": {"arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]},
            "cover": [[0], [1]],
            "base_interpolants": {"": [0, 1], "0": [1, 1], "1": [0, 0], "0,1": [1, 0]},
        },
    )
    inst_path = str(tmp_path / "modinst.json")
    run_ok(["module", "demo", "--field", "2", "--dim", "4", "--seed", "9", "--out", inst_path])

    emitted = []

    def emit(name, argv, inputs):
        cert = str(tmp_path / name)
        run_ok(argv + ["--cert", cert])
        emitted.append((cert, inputs))

    emit(
        "dagger.json",
        ["ultra", "--target", not_path, "--fragment", frag_path, "--lambda", "2"],
        [not_path, frag_path],
    )
    emit("bp.json", ["bp", "--instance", bp_path], [bp_path])
    emit(
        "prod.json",
        ["detect", "product", "--op", star_path, "--left-size", "2", "--right-size", "2"],
        [star_path],
    )
    emit(
        "alt.json",
        ["perm", "cover-witness", "--k", "3", "--a", "0", "--b", "1", "--window", "8"],
        [],
    )
    emit("mod.json", ["module", "recover", "--instance", inst_path], [inst_path])
    emit("pw.json", ["detect", "ess-unary", "--op", and_path], [and_path])
    return emitted


def _verify_via_cli(cert_path, inputs):
    import io

    buf = io.StringIO()
    code = cli.run(["verify", cert_path, "--inputs", *inputs], out=buf)
    if code != 0:
        return False
    return json.loads(buf.getvalue()).get("valid", False)


def test_criterion_10_certificate_integrity(tmp_path):
    started = time.time()
    emitted = _emit_certificates(tmp_path)
    assert len(emitted) == 6
    for cert_path, inputs in emitted:
        assert _verify_via_cli(cert_path, inputs), cert_path

    rng = random.Random(1010)
    corrupted_checked = 0
    for i in range(100):
        cert_path, inputs = emitted[i % len(emitted)]
        raw = bytearray(open(cert_path, "rb").read())
        pos = rng.randrange(len(raw))
        original = raw[pos]
        replacement = rng.randrange(256)
        while replacement == original:
            replacement = rng.randrange(256)
        raw[pos] = replacement
        bad_path = tmp_path / f"bad_{i}.json"
        bad_path.write_bytes(bytes(raw))
        assert not _verify_via_cli(str(bad_path), inputs), (
            cert_path,
            pos,
            original,
            replacement,
        )
        corrupted_checked += 1
    assert corrupted_checked == 100
    _passline(10, "6/6 certificates verify; 100/100 corruptions rejected", started)


def test_certificate_registry_is_the_schema_and_the_emitted_kinds(tmp_path):
    """One registry entry per kind: the schema lists exactly its kinds, and
    the command line emits one certificate of each."""
    assert cli.SCHEMAS["certificate"]["kind"] == f"one of {list(cli.CERTIFICATES)}"
    kinds = []
    for cert, _ in _emit_certificates(tmp_path):
        with open(cert) as fh:
            kinds.append(json.load(fh)["kind"])
    assert sorted(kinds) == sorted(cli.CERTIFICATES)
