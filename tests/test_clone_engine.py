import pytest

from clonelab.clone_engine import (
    CloneFragment,
    contains,
    fragment_from_json,
    fragment_to_json,
    fragments_equal,
    generate,
    inv,
    pol,
    projections,
)
from clonelab.finite_core import (
    ResourceCapExceeded,
    all_operations,
    all_relations,
    neq,
    preserves,
    projection,
    rho3,
)


def all_binary_tables(u2):
    return {op.table for op in all_operations(u2, 2)}


def test_generate_empty_is_projection_clone(u2):
    frag = generate([], 2, universe=u2)
    assert set(frag.members[2]) == set(projections(u2, 2))
    assert set(frag.members[1]) == {projection(u2, 1, 0)}


def test_generate_nand_full_binary_fragment(u2, gates):
    frag = generate([gates["nand"]], 2)
    assert frag.tables(2) == all_binary_tables(u2)
    assert frag.tables(1) == {op.table for op in all_operations(u2, 1)}


def test_generate_maj_binary_fragment(u2, gates):
    frag = generate([gates["maj"]], 2)
    assert contains(frag, gates["p1"]) and contains(frag, gates["p2"])
    assert not contains(frag, gates["and"])
    # independent description: binary members are exactly the monotone
    # self-dual operations, i.e. those preserving <= and the inequality
    order = pol(
        [
            rho_le(u2),
            neq(u2),
        ],
        2,
    )
    assert frag.tables(2) == order.tables(2)


def rho_le(u2):
    from clonelab.finite_core import Relation

    return Relation(u2, 2, frozenset([(0, 0), (0, 1), (1, 1)]))


def test_generate_handles_generator_above_bound(u2, gates):
    # a ternary generator still closes the binary fragment correctly
    frag = generate([gates["maj"]], 2)
    assert frag.arity_bound == 2
    assert 3 not in frag.members


def test_generate_monotone_and_idempotent(u2, gates):
    small = generate([gates["and"]], 2)
    large = generate([gates["and"], gates["or"]], 2)
    for j in (1, 2):
        assert small.tables(j) <= large.tables(j)
    regenerated = generate(
        [op for j in sorted(small.members) for op in small.members[j]], 2
    )
    assert fragments_equal(regenerated, small)


def test_generate_universe_mismatch(u2, u3, gates):
    with pytest.raises(ValueError):
        generate([gates["and"], projection(u3, 2, 0)], 2)


def test_generate_member_cap(u2, gates):
    with pytest.raises(ResourceCapExceeded):
        generate([gates["nand"]], 2, member_cap=5)


def test_generate_member_cap_counts_the_projections(u2, gates):
    for gens in ([], [gates["id"]]):
        with pytest.raises(ResourceCapExceeded, match="^arity-2 fragment exceeded member cap 1$"):
            generate(gens, 3, universe=u2, member_cap=1)
        assert generate(gens, 3, universe=u2, member_cap=3).member_count() == 1 + 2 + 3
    with pytest.raises(ResourceCapExceeded, match="^arity-1 fragment exceeded member cap 1$"):
        generate([gates["not"]], 3, member_cap=1)


def test_contains_examples(u2, gates):
    fragmaj = generate([gates["maj"]], 3)
    assert contains(fragmaj, gates["maj"])
    assert not contains(generate([], 1, universe=u2), gates["not"])
    assert contains(generate([gates["nand"]], 2), gates["xor"])


def test_contains_arity_above_bound(u2, gates):
    frag = generate([], 1, universe=u2)
    with pytest.raises(ValueError):
        contains(frag, gates["and"])


def test_pol_rho3_binary(u2):
    frag = pol([rho3(u2)], 2)
    # exhaustive filter oracle
    expected = {
        op.table for op in all_operations(u2, 2) if preserves(op, rho3(u2))
    }
    assert frag.tables(2) == expected
    assert len(frag.members[2]) == 6
    from clonelab.finite_core import is_essentially_unary_direct

    assert all(is_essentially_unary_direct(op) for op in frag.members[2])


def test_pol_and_inv_check_their_arguments(u2, u3):
    with pytest.raises(ValueError, match=r"^pol\(\) with no relations needs an explicit universe$"):
        pol([], 1)
    for relations, universe in (([neq(u2), neq(u3)], None), ([neq(u2)], u3)):
        with pytest.raises(ValueError, match="^relations live on different universes$"):
            pol(relations, 1, universe=universe)
    with pytest.raises(ValueError, match="^max arity must be >= 1$"):
        inv(generate([], 1, universe=u2), 0)


def test_pol_no_relations(u2):
    frag = pol([], 1, universe=u2)
    assert len(frag.members[1]) == 4


def test_pol_neq_unary(u2, gates):
    frag = pol([neq(u2)], 1)
    assert frag.tables(1) == {gates["id"].table, gates["not"].table}


def test_inv_of_full_clone_unary(u2, gates):
    full = generate([gates["nand"]], 1)
    relations = [rel for rel in inv(full, 1)]
    tuple_sets = {rel.tuples for rel in relations}
    assert tuple_sets == {frozenset(), frozenset([(0,), (1,)])}


def test_inv_of_projections_is_everything(u2):
    frag = generate([], 2, universe=u2)
    assert len(inv(frag, 2)) == 4 + 16


def test_inv_lattice_fragment(u2, gates):
    frag = generate([gates["and"], gates["or"]], 2)
    got = {rel.tuples for rel in inv(frag, 2) if rel.arity == 2}
    expected = {
        rel.tuples
        for rel in all_relations(u2, 2)
        if preserves(gates["and"], rel) and preserves(gates["or"], rel)
    }
    assert got == expected


def test_pol_members_reverified(u2):
    rels = [rho3(u2), neq(u2)]
    frag = pol(rels, 2)
    for j in (1, 2):
        for op in frag.members[j]:
            assert all(preserves(op, rel) for rel in rels)


def test_galois_sanity(u2, gates):
    # every generated fragment sits inside pol(inv(fragment))
    for gens in [
        [gates["and"]],
        [gates["maj"]],
        [gates["not"]],
        [gates["xor"], gates["not"]],
    ]:
        frag = generate(gens, 2)
        for r in (1, 2, 3):
            galois = pol(inv(frag, r), 2, universe=u2)
            for j in (1, 2):
                assert frag.tables(j) <= galois.tables(j)


def test_fragment_json_round_trip(u2, gates):
    frag = generate([gates["maj"], gates["not"]], 2)
    data = fragment_to_json(frag)
    back = fragment_from_json(data)
    assert fragments_equal(frag, back)
    assert {g.table for g in back.generators} == {g.table for g in frag.generators}


def test_from_members_generates_by_its_members_in_arity_order(u2, gates):
    members = {2: (gates["and"], gates["or"]), 1: (gates["not"],)}
    frag = CloneFragment.from_members(u2, 2, members)
    assert frag.generators == (gates["not"], gates["and"], gates["or"])
    assert frag.members is members and frag.tables(2) == {gates["and"].table, gates["or"].table}


def test_fragment_json_missing_arity(u2):
    with pytest.raises(ValueError):
        fragment_from_json(
            {"universe": {"size": 2}, "arity_bound": 2, "members": {"1": [[0, 1]]}}
        )


def test_inv_relation_cap(u3, dual_discriminator):
    frag = generate([dual_discriminator], 2)
    with pytest.raises(ResourceCapExceeded):
        inv(frag, 3)  # 2^27 ternary relations on three elements
