import itertools
import random

import pytest

from clonelab.finite_core import (
    Operation,
    Relation,
    ResourceCapExceeded,
    Universe,
    all_operations,
    all_relations,
    apply,
    constant_op,
    depends_on,
    graph,
    is_conservative,
    is_essentially_unary_direct,
    is_near_unanimity,
    is_subfamily_key_set,
    neq,
    operation_from_callable,
    operation_from_json,
    operation_to_json,
    pi4,
    preservation_witness,
    preserves,
    projection,
    relation_from_json,
    relation_to_json,
    rho3,
    subfamilies,
    superpose,
    universe_from_json,
    universe_to_json,
)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_projection_tables_match_the_tabulated_coordinate(size):
    universe = Universe(size)
    for arity in range(1, 5):
        for index in range(arity):
            expected = operation_from_callable(universe, arity, lambda *args: args[index])
            assert projection(universe, arity, index) == expected


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(0)
    with pytest.raises(ValueError):
        Universe(2, ("a",))
    with pytest.raises(ValueError):
        Universe(2, ("a", "a"))
    assert Universe(2, ("x", "y")).size == 2


def test_operation_validation(u2):
    with pytest.raises(ValueError):
        Operation(u2, 0, ())
    with pytest.raises(ValueError):
        Operation(u2, 1, (0,))  # wrong length
    with pytest.raises(ValueError):
        Operation(u2, 1, (0, 2))  # entry outside universe


def test_apply_examples(u2, gates):
    assert apply(projection(u2, 2, 0), (0, 1)) == 0
    assert apply(gates["and"], (1, 1)) == 1
    assert apply(gates["maj"], (0, 1, 1)) == 1


def test_apply_errors(u2, gates):
    with pytest.raises(ValueError):
        apply(gates["and"], (1,))
    with pytest.raises(ValueError):
        apply(gates["and"], (1, 2))


def test_apply_round_trip(u2, u3, gates, dual_discriminator):
    # evaluating at every tuple rebuilds the table in order
    for op in [gates["and"], gates["maj"], dual_discriminator]:
        rebuilt = tuple(apply(op, args) for args in op.universe.tuples(op.arity))
        assert rebuilt == op.table


def test_table_indexing_last_coordinate_fastest(u2, gates):
    # (a, b) sits at position 2a + b for binary tables on two elements
    assert gates["and"].index_of((1, 0)) == 2
    assert gates["and"].index_of((0, 1)) == 1


def test_superpose_identity_composition(u2, gates):
    assert superpose(projection(u2, 1, 0), [gates["and"]]).table == gates["and"].table


def test_superpose_idempotence_of_and(u2, gates):
    # tabulating and(x,x) against the diagonal by hand
    p1 = gates["p1"]
    composed = superpose(gates["and"], [p1, p1])
    expected = tuple(
        gates["and"].table[gates["and"].index_of((a, a))] for a, _ in u2.tuples(2)
    )
    assert composed.table == expected == p1.table


def test_superpose_projection_units(u2, gates):
    for op in gates.values():
        units = [projection(u2, op.arity, i) for i in range(op.arity)]
        assert superpose(op, units).table == op.table


def test_superpose_near_unanimity_absorption(u2, gates):
    maj = gates["maj"]
    t1, t2, t3 = gates["p1"], gates["p1"], gates["xor"]
    composed = superpose(maj, [t1, t2, t3])
    for args in u2.tuples(2):
        votes = [t.table[t.index_of(args)] for t in (t1, t2, t3)]
        if votes[0] == votes[1]:
            assert composed.table[composed.index_of(args)] == votes[0]


def test_superpose_errors(u2, u3, gates):
    with pytest.raises(ValueError):
        superpose(gates["and"], [gates["p1"]])  # arity mismatch
    with pytest.raises(ValueError):
        superpose(gates["and"], [gates["p1"], projection(u3, 2, 0)])
    with pytest.raises(ValueError):
        superpose(gates["and"], [gates["p1"], gates["id"]])  # inner arity clash


def test_rho3_tuples(u2):
    assert rho3(u2).tuples == frozenset(
        [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)]
    )


def test_neq_tuples(u2):
    assert neq(u2).tuples == frozenset([(0, 1), (1, 0)])


def test_pi4_matches_definition(u3):
    expected = frozenset(
        t for t in u3.tuples(4) if t[0] == t[1] or t[2] == t[3]
    )
    assert pi4(u3).tuples == expected


def test_graph_of_binary_operation():
    u4 = Universe(4)
    star = operation_from_callable(u4, 2, lambda u, v: (u // 2) * 2 + v % 2)
    g = graph(star)
    assert g.arity == 3
    assert len(g.tuples) == 16
    for a, b, c in g.tuples:
        assert star.table[star.index_of((a, b))] == c


def test_graph_rejects_high_arity(u2, gates):
    with pytest.raises(ValueError):
        graph(gates["maj"])


def test_preserves_projection_always(u2, gates):
    for rel in [rho3(u2), pi4(u2), neq(u2)]:
        assert preserves(gates["p1"], rel)


def test_preserves_and_fails_rho3_with_witness(u2, gates):
    rel = rho3(u2)
    assert not preserves(gates["and"], rel)
    witness = preservation_witness(gates["and"], rel)
    assert witness is not None
    # witness is self-validating: rows in the relation, image outside
    assert all(row in rel.tuples for row in witness.rows)
    image = tuple(
        gates["and"].table[gates["and"].index_of(tuple(r[j] for r in witness.rows))]
        for j in range(rel.arity)
    )
    assert image == witness.image
    assert image not in rel.tuples


def test_preserves_not_rho3(u2, gates):
    assert preserves(gates["not"], rho3(u2))


def test_preserves_universe_mismatch(u2, u3, gates):
    with pytest.raises(ValueError):
        preserves(gates["and"], rho3(u3))


def test_witness_self_validation_random(u3):
    rng = random.Random(11)
    rel = rho3(u3)
    for _ in range(50):
        op = Operation(u3, 2, tuple(rng.randrange(3) for _ in range(9)))
        witness = preservation_witness(op, rel)
        if witness is None:
            assert preserves(op, rel)
        else:
            assert all(row in rel.tuples for row in witness.rows)
            assert witness.image not in rel.tuples


def direct_witness(op, rel):
    """The first failing row matrix of a plain itertools.product scan over
    the sorted relation tuples, as (rows, image), or None."""
    m = op.universe.size
    for rows in itertools.product(sorted(rel.tuples), repeat=op.arity):
        image = []
        for args in zip(*rows):
            idx = 0
            for a in args:
                idx = idx * m + a
            image.append(op.table[idx])
        if tuple(image) not in rel.tuples:
            return rows, tuple(image)
    return None


def assert_witness_order(op, rel):
    expected = direct_witness(op, rel)
    witness = preservation_witness(op, rel)
    got = None if witness is None else (witness.rows, witness.image)
    assert got == expected, (op, rel.arity)
    assert preserves(op, rel) == (expected is None)


def test_witness_order_u2_exhaustive(u2, gates):
    relations = [rho3(u2), pi4(u2), neq(u2), Relation(u2, 2, frozenset())]
    relations += [graph(op) for op in list(all_operations(u2, 1))]
    relations += [graph(gates[name]) for name in ("and", "xor", "nand")]
    for op in list(all_operations(u2, 1)) + list(all_operations(u2, 2)):
        for rel in relations:
            assert_witness_order(op, rel)


def test_witness_order_u3_seeded(u3, dual_discriminator):
    rng = random.Random(300)
    relations = [rho3(u3), neq(u3), Relation(u3, 3, frozenset())]
    ops = [Operation(u3, 2, tuple(rng.randrange(3) for _ in range(9))) for _ in range(300)]
    for op in ops + list(all_operations(u3, 1)):
        for rel in relations:
            assert_witness_order(op, rel)


def test_witness_order_ternary(u2, u3, gates, dual_discriminator):
    rng = random.Random(3)
    ops = [gates["maj"], dual_discriminator]
    ops += [Operation(u2, 3, tuple(rng.randrange(2) for _ in range(8))) for _ in range(20)]
    for op in ops:
        universe = op.universe
        for rel in (rho3(universe), pi4(universe), neq(universe)):
            assert_witness_order(op, rel)


def test_near_unanimity(u2, u3, gates, dual_discriminator):
    assert is_near_unanimity(gates["maj"])
    assert not is_near_unanimity(projection(u2, 3, 0))
    assert is_near_unanimity(dual_discriminator)
    with pytest.raises(ValueError):
        is_near_unanimity(gates["and"])


def test_dual_discriminator_identities_exhaustive(u3, dual_discriminator):
    q = dual_discriminator
    for i in range(3):
        for a in range(3):
            for b in range(3):
                args = [a, a, a]
                args[i] = b
                assert apply(q, tuple(args)) == a


def test_conservative(u2, gates):
    assert is_conservative(gates["maj"])
    assert not is_conservative(constant_op(u2, 1, 0))
    assert is_conservative(gates["p2"])


def test_near_unanimity_is_independent_of_conservativity():
    # the identities constrain nothing at pairwise distinct arguments, so
    # a near-unanimity operation may step outside its inputs there
    u4 = Universe(4)

    def h(a, b, c):
        if a == b or a == c:
            return a
        if b == c:
            return b
        return 3 if (a, b, c) == (0, 1, 2) else a

    op = operation_from_callable(u4, 3, h)
    assert is_near_unanimity(op)
    assert not is_conservative(op)


def test_depends_on(u2, gates):
    assert depends_on(gates["and"], 0) and depends_on(gates["and"], 1)
    assert depends_on(gates["p1"], 0) and not depends_on(gates["p1"], 1)
    assert not any(depends_on(constant_op(u2, 2, 1), i) for i in range(2))


def test_essentially_unary_direct(u2, gates):
    assert not is_essentially_unary_direct(gates["and"])
    assert is_essentially_unary_direct(gates["p2"])
    assert is_essentially_unary_direct(constant_op(u2, 2, 0))


def test_essential_unarity_matches_rho3_preservation_small():
    # the relational and the direct test agree on every feasible slice
    for m, max_arity in [(1, 2), (2, 3), (3, 2)]:
        universe = Universe(m)
        rel = rho3(universe)
        for arity in range(1, max_arity + 1):
            for op in all_operations(universe, arity):
                assert preserves(op, rel) == is_essentially_unary_direct(op)


def test_essential_unarity_matches_rho3_random_ternary(u3):
    rng = random.Random(5)
    rel = rho3(u3)
    for _ in range(100):
        op = Operation(u3, 3, tuple(rng.randrange(3) for _ in range(27)))
        assert preserves(op, rel) == is_essentially_unary_direct(op)


def test_all_operations_cap(u3):
    with pytest.raises(ResourceCapExceeded):
        list(all_operations(u3, 3))
    # cap errors are not ValueErrors
    assert not issubclass(ResourceCapExceeded, ValueError)


def test_all_relations_count(u2):
    assert len(list(all_relations(u2, 2))) == 16


def test_json_round_trips(u2, gates):
    u = Universe(3, ("a", "b", "c"))
    assert universe_from_json(universe_to_json(u)) == u
    op = gates["maj"]
    assert operation_from_json(operation_to_json(op), u2) == op
    # universe inferred from table length when omitted
    inferred = operation_from_json(operation_to_json(op))
    assert inferred == op
    rel = rho3(u2)
    assert relation_from_json(relation_to_json(rel), u2) == rel
    # without a universe argument the relation's own "universe" is read,
    # never guessed from its largest entry
    data = {"universe": {"size": 3}, "arity": 2, "tuples": [[0, 1]]}
    assert relation_from_json(data).universe == Universe(3)
    with pytest.raises(KeyError):
        relation_from_json({"arity": 2, "tuples": [[0, 1]]})


def test_relation_validation(u2):
    with pytest.raises(ValueError):
        Relation(u2, 2, frozenset([(0, 1, 1)]))
    with pytest.raises(ValueError):
        Relation(u2, 1, frozenset([(2,)]))
    # the empty relation is allowed
    assert Relation(u2, 2, frozenset()).tuples == frozenset()


def test_subfamily_key_set_agrees_with_listing_the_subfamilies():
    rng = random.Random(11)
    for _ in range(400):
        nblocks, max_size = rng.randrange(0, 6), rng.randrange(-1, 7)
        keys = set(subfamilies(nblocks, max_size))
        if keys and rng.random() < 0.5:
            keys.discard(rng.choice(sorted(keys, key=sorted)))
        if rng.random() < 0.3:
            keys.add(frozenset(rng.sample(range(nblocks + 1), min(nblocks + 1, 2))))
        assert is_subfamily_key_set(dict.fromkeys(keys), nblocks, max_size) == (
            keys == set(subfamilies(nblocks, max_size))
        )
