import time

import pytest

from clonelab import ultralocal
from clonelab.clone_engine import contains, fragment_from_json, fragments_equal, generate
from clonelab.finite_core import Operation, ResourceCapExceeded, all_operations
from clonelab.interpolation import (
    OMEGA,
    InterpolationQuery,
    is_lambda_interpolable,
    local_closure_fragment,
)
from clonelab.ultralocal import (
    Cover,
    DaggerCertificate,
    DaggerFailure,
    check_dagger,
    cover_from_json,
    dagger_from_json,
    dagger_to_json,
    search_dagger,
    ultra_closure_fragment,
    verify_dagger_certificate,
)
from fip_oracle import equalizer_family, fip_holds, fip_holds_lazy
from point_covers import point_cover


def full_cover(universe, arity):
    return point_cover(universe, arity, [universe.tuples(arity)])


def singleton_cover(universe, arity):
    return point_cover(universe, arity, [[p] for p in universe.tuples(arity)])


def small_corpus(u2, gates):
    """Fragment/target pairs exercising both certificate outcomes."""
    fragments = [
        generate([], 1, universe=u2),
        generate([], 2, universe=u2),
        generate([gates["not"]], 2),
        generate([gates["and"]], 2),
        generate([gates["maj"]], 2),
        generate([gates["nand"]], 2),
    ]
    targets = list(all_operations(u2, 1)) + list(all_operations(u2, 2))
    return [
        (frag, f)
        for frag in fragments
        for f in targets
        if f.arity <= frag.arity_bound
    ]


def test_cover_validation(u2):
    with pytest.raises(ValueError):
        Cover(u2, 1, ())
    with pytest.raises(ValueError):
        Cover(u2, 1, (frozenset(),))  # empty block
    with pytest.raises(ValueError):
        point_cover(u2, 1, [[(0,)]])  # misses a point
    with pytest.raises(ValueError):
        Cover(u2, 1, ([0, 1, 2],))  # an index outside the domain
    cover = full_cover(u2, 2)
    assert sum(map(len, cover.blocks)) == u2.size ** 2


def test_check_dagger_member_with_full_cover(u2, gates):
    frag = generate([gates["and"]], 2)
    result = check_dagger(gates["and"], frag, 3, full_cover(u2, 2))
    assert isinstance(result, DaggerCertificate)
    assert result.interpolants[frozenset({0})].table == gates["and"].table


def test_check_dagger_singleton_cover_realizes_interpolability(u2, gates):
    frag = generate([gates["maj"]], 2)
    cover = singleton_cover(u2, 2)
    for f in all_operations(u2, 2):
        result = check_dagger(f, frag, 2, cover)
        expected = is_lambda_interpolable(InterpolationQuery(f, frag, 2)).holds
        assert isinstance(result, DaggerCertificate) == expected


def test_check_and_search_reject_bad_levels_and_targets(u2, u3, gates):
    frag = generate([gates["and"]], 2)
    and_op, maj = gates["and"], gates["maj"]
    cases = [
        (lambda: check_dagger(and_op, frag, -1, full_cover(u2, 2)), "subset size must be >= 0"),
        (lambda: search_dagger(and_op, frag, -1), "subset size must be >= 0"),
        (lambda: check_dagger(and_op, frag, 1, full_cover(u2, 1)),
         "cover does not match the target's domain"),
        (lambda: check_dagger(maj, frag, 1, full_cover(u2, 3)),
         "target arity above fragment arity bound"),
        (lambda: search_dagger(maj, frag, 1), "target arity above fragment arity bound"),
        (lambda: search_dagger(Operation(u3, 1, (0, 1, 2)), frag, 1),
         "target and fragment universes differ"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_check_dagger_failure_block(u2, gates):
    frag = generate([], 1, universe=u2)
    cover = point_cover(u2, 1, [[(0,)], [(1,)]])
    result = check_dagger(gates["not"], frag, 1, cover)
    assert isinstance(result, DaggerFailure)
    assert result.failing_blocks == frozenset({0})


def test_search_matches_interpolability_on_corpus(u2, gates):
    for frag, f in small_corpus(u2, gates):
        for lam in (1, 2):
            direct = is_lambda_interpolable(InterpolationQuery(f, frag, lam)).holds
            searched = search_dagger(f, frag, lam, "exhaustive_partitions")
            assert bool(searched) == direct
            assert searched.disproof == (searched.certificate is None)


def test_singleton_strategy(u2, gates):
    frag = generate([gates["maj"]], 2)
    for f in all_operations(u2, 2):
        got = bool(search_dagger(f, frag, 2, "singletons"))
        want = is_lambda_interpolable(InterpolationQuery(f, frag, 2)).holds
        assert got == want


def test_equalizer_atoms_strategy(u2, gates):
    for frag, f in small_corpus(u2, gates):
        for lam in (1, 2):
            outcome = search_dagger(f, frag, lam, "equalizer_atoms")
            want = is_lambda_interpolable(InterpolationQuery(f, frag, lam)).holds
            assert bool(outcome) == want
            if outcome.certificate is not None:
                # the atom construction yields a partition
                cover = outcome.certificate.cover
                assert sum(map(len, cover.blocks)) == f.universe.size ** f.arity


def test_unknown_strategy(u2, gates):
    with pytest.raises(ValueError):
        search_dagger(gates["id"], generate([], 1, universe=u2), 1, "oracle")


def test_certificates_reverify(u2, gates):
    for frag, f in small_corpus(u2, gates):
        outcome = search_dagger(f, frag, 2, "exhaustive_partitions")
        if outcome.certificate is not None:
            assert verify_dagger_certificate(outcome.certificate, f, frag)


def test_corrupted_certificate_fails(u2, gates):
    frag = generate([gates["maj"]], 2)
    outcome = search_dagger(gates["p1"], frag, 2, "exhaustive_partitions")
    cert = outcome.certificate
    assert cert is not None
    # swap one interpolant for an operation outside the fragment
    bad_op = gates["xor"]
    key = next(iter(k for k in cert.interpolants if k))
    tampered = DaggerCertificate(
        cert.cover, cert.lam, {**cert.interpolants, key: bad_op}
    )
    assert not verify_dagger_certificate(tampered, gates["p1"], frag)
    # dropping a required subfamily also fails
    dropped = dict(cert.interpolants)
    dropped.pop(key)
    assert not verify_dagger_certificate(
        DaggerCertificate(cert.cover, cert.lam, dropped), gates["p1"], frag
    )


def test_equalizer_family_examples(u2, gates):
    # a member's own set is the whole matrix space
    frag = generate([gates["and"]], 2)
    fam = equalizer_family(gates["and"], frag, 1)
    member = next(t for t in frag.members[2] if t.table == gates["and"].table)
    assert len(fam.entries[member]) == fam.matrix_space_size()

    # disjoint tables give the empty set
    projfrag = generate([], 1, universe=u2)
    fam = equalizer_family(gates["not"], projfrag, 1)
    assert fam.entries[gates["id"]] == frozenset()

    # pointwise agreement set of the first projection against conjunction
    fam = equalizer_family(gates["and"], generate([], 2, universe=u2), 1)
    assert fam.entries[gates["p1"]] == frozenset(
        [((0, 0),), ((0, 1),), ((1, 1),)]
    )


def test_fip_examples(u2, gates):
    frag = generate([gates["and"]], 2)
    assert not fip_holds(equalizer_family(gates["and"], frag, 1))
    projfrag = generate([], 1, universe=u2)
    assert fip_holds(equalizer_family(gates["not"], projfrag, 1))


def test_fip_matches_search_on_corpus(u2, gates):
    for frag, f in small_corpus(u2, gates):
        for lam in (1, 2):
            has_cert = bool(search_dagger(f, frag, lam, "exhaustive_partitions"))
            fam = equalizer_family(f, frag, lam)
            assert fip_holds(fam) == (not has_cert)
            assert fip_holds_lazy(f, frag, lam) == fip_holds(fam)


def test_equalizer_cap(u2, gates):
    frag = generate([gates["maj"]], 2)
    with pytest.raises(ResourceCapExceeded):
        equalizer_family(gates["and"], frag, 7, cap=1000)
    # the lazy route still answers above the cap
    assert fip_holds_lazy(gates["and"], frag, 7) == (
        not contains(frag, gates["and"])
    )


def test_ultra_closure_level_one(u2, gates):
    frag = generate([gates["maj"]], 2)
    closure = ultra_closure_fragment(frag, 1, 2)
    assert len(closure.members[1]) == 4 and len(closure.members[2]) == 16


def test_ultra_closure_omega_is_identity(u2, gates):
    for gens in [[gates["maj"]], [gates["and"]], [gates["not"]]]:
        frag = generate(gens, 2)
        assert fragments_equal(ultra_closure_fragment(frag, OMEGA, 2), frag)


def test_ultra_chain(u2, gates):
    frag = generate([gates["maj"]], 2)
    level2 = ultra_closure_fragment(frag, 2, 2)
    level3 = ultra_closure_fragment(frag, 3, 2)
    for j in (1, 2):
        assert level3.tables(j) <= level2.tables(j)
        assert frag.tables(j) <= level3.tables(j)


def test_ultra_equals_local_on_finite_universe(u2, gates):
    """The cover-condition closure, computed here by filtering every table
    through the exhaustive partition search at the largest level below
    kappa, equals the local closure member by member, in order."""
    fragments = [generate(gens, 2) for gens in ([gates["maj"]], [gates["not"]], [gates["and"]])]
    fragments.append(
        fragment_from_json({"universe": {"size": 2}, "arity_bound": 1, "members": {"1": []}})
    )
    for frag in fragments:
        for kappa in (1, 2, 3, 4, OMEGA):
            searched = {}
            for j in range(1, frag.arity_bound + 1):
                npoints = u2.size ** j
                lam = npoints if kappa == OMEGA else min(kappa - 1, npoints)
                searched[j] = [
                    op.table
                    for op in all_operations(u2, j)
                    if search_dagger(op, frag, lam, "exhaustive_partitions")
                ]
            for close in (local_closure_fragment, ultra_closure_fragment):
                closure = close(frag, kappa, frag.arity_bound)
                assert {j: [op.table for op in ops] for j, ops in closure.members.items()} == (
                    searched
                )


def test_dagger_json_round_trip(u2, gates):
    frag = generate([gates["maj"]], 2)
    cert = search_dagger(gates["p1"], frag, 2, "exhaustive_partitions").certificate
    assert cert is not None
    data = dagger_to_json(cert)
    back = dagger_from_json(data, gates["p1"])
    assert verify_dagger_certificate(back, gates["p1"], frag)
    assert back.cover.blocks == cert.cover.blocks
    assert {k: v.table for k, v in back.interpolants.items()} == {
        k: v.table for k, v in cert.interpolants.items()
    }


def test_dagger_from_json_checks_the_target_shape_first(gates):
    frag = generate([gates["maj"]], 2)
    cert = search_dagger(gates["p1"], frag, 2, "exhaustive_partitions").certificate
    data = dagger_to_json(cert)
    assert dagger_from_json(data, gates["p1"]).cover == cert.cover
    for wrong in ({**data, "arity": 40}, {**data, "universe_size": 3}):
        with pytest.raises(ValueError, match="does not match the target"):
            dagger_from_json(wrong, gates["p1"])
    with pytest.raises(ValueError, match="does not match the target"):
        dagger_from_json(data, gates["not"])


def test_domain_points_order(u2, gates):
    # cover indices are table positions, the points in lexicographic order
    cover = cover_from_json(u2, 2, [[0], [1], [2], [3]])
    assert cover == point_cover(u2, 2, [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]])
    assert [gates["and"].index_of(p) for p in u2.tuples(2)] == [0, 1, 2, 3]


def test_partition_cap_stops_the_walk_and_says_how_far_it_got(u2, gates, monkeypatch):
    # xor is not 2-interpolable by projections, so all Bell(4) = 15
    # partitions of its domain fail; a cap of 15 still decides.
    projections = generate([], 2, universe=u2)
    monkeypatch.setattr(ultralocal, "PARTITION_CAP", 15)
    outcome = search_dagger(gates["xor"], projections, 2)
    assert outcome.certificate is None and outcome.disproof
    monkeypatch.setattr(ultralocal, "PARTITION_CAP", 14)
    with pytest.raises(ResourceCapExceeded) as caught:
        search_dagger(gates["xor"], projections, 2)
    assert str(caught.value) == (
        "partition cap 14 reached: visited 14 partitions of 4 domain points "
        "into at most 4 blocks, none passing at level 2"
    )


def test_a_four_ary_member_is_certified_at_the_first_partition(u2, monkeypatch):
    projections = generate([], 4, universe=u2)
    member = projections.members[4][2]
    monkeypatch.setattr(ultralocal, "PARTITION_CAP", 1)
    outcome = search_dagger(member, projections, 2)
    assert len(outcome.certificate.cover.blocks) == 1
    target = Operation(u2, 4, (0,) * 15 + (1,))
    monkeypatch.setattr(ultralocal, "PARTITION_CAP", 1000)
    with pytest.raises(ResourceCapExceeded, match=(
        "partition cap 1000 reached: visited 1000 partitions of 16 domain points "
        "into at most 16 blocks, none passing at level 2"
    )):
        search_dagger(target, projections, 2)


def test_subfamily_cap_stops_the_cover_test(u2, gates, monkeypatch):
    frag = generate([gates["and"]], 2)
    cover = singleton_cover(u2, 2)
    # 1 + 4 + 6 subfamilies of at most 2 of the 4 singletons
    monkeypatch.setattr(ultralocal, "SUBFAMILY_CAP", 11)
    assert search_dagger(gates["and"], frag, 2, "singletons")
    assert isinstance(check_dagger(gates["and"], frag, 2, cover), DaggerCertificate)
    monkeypatch.setattr(ultralocal, "SUBFAMILY_CAP", 10)
    # the count comes before any subfamily is listed
    monkeypatch.setattr(ultralocal, "subfamilies", None)
    message = ("subfamily cap 10 reached: a certificate on 4 cover blocks at level 2 needs "
               "more than 10 subfamilies, counted before listing any")
    with pytest.raises(ResourceCapExceeded) as caught:
        search_dagger(gates["and"], frag, 2, "singletons")
    assert str(caught.value) == message
    with pytest.raises(ResourceCapExceeded) as caught:
        check_dagger(gates["and"], frag, 2, cover)
    assert str(caught.value) == message
    # the cap bounds certificates only: a failing cover still answers
    failure = check_dagger(gates["xor"], frag, 2, cover)
    assert failure == DaggerFailure(cover, 2, frozenset({0, 3}))


def test_verify_counts_subfamily_keys_instead_of_listing_them(u3):
    # 27 singleton blocks at level 13 have 2**26 subfamilies of at most 13
    # blocks; an empty interpolant map fails on the count alone.
    target = Operation(u3, 3, tuple(i % 3 for i in range(27)))
    forged = DaggerCertificate(singleton_cover(u3, 3), 13, {})
    assert not verify_dagger_certificate(forged, target, generate([], 3, universe=u3))


def test_verify_stops_counting_once_the_subfamilies_outnumber_the_keys(u2, gates):
    # One block repeated 10**5 times at level 10**5: the subfamily count is
    # 2**(10**5), but the count passes the single key at its second term.
    block = frozenset(range(4))
    cover = Cover(u2, 2, (block,) * 10**5)
    frag = generate([gates["and"]], 2)
    forged = DaggerCertificate(cover, 10**5, {frozenset(): gates["and"]})
    start = time.perf_counter()
    assert not verify_dagger_certificate(forged, gates["and"], frag)
    assert time.perf_counter() - start < 0.5


def test_verify_rejects_keys_outside_the_subfamilies(u2, gates):
    frag = generate([gates["maj"]], 2)
    cert = search_dagger(gates["p1"], frag, 1, "singletons").certificate
    assert verify_dagger_certificate(cert, gates["p1"], frag)
    # the same number of keys, but one names a missing block or too many blocks
    for bad in (frozenset({4}), frozenset({0, 1}), (0,)):
        interpolants = dict(cert.interpolants)
        interpolants[bad] = interpolants.pop(frozenset({3}))
        forged = DaggerCertificate(cert.cover, cert.lam, interpolants)
        assert not verify_dagger_certificate(forged, gates["p1"], frag)
