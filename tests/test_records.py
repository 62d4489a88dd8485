"""Record semantics shared by every value type of the package: records are
immutable, hash as the tuple of their fields, and the validating ones
reject bad fields with fixed messages."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clonelab
from clonelab import (
    baker_pixley as bp,
    clone_engine as ce,
    finite_core as fc,
    interpolation as ip,
    simple_module as sm,
    structure_detect as sd,
    symbolic_perms as sp,
    ultralocal as ul,
)

MODULES = (fc, ce, ip, ul, bp, sd, sp, sm)

U2 = fc.Universe(2)
U4 = fc.Universe(4)
NOT = fc.Operation(U2, 1, (1, 0))
ID = fc.Operation(U2, 1, (0, 1))
AND = fc.Operation(U2, 2, (0, 0, 0, 1))
XOR = fc.Operation(U2, 2, (0, 1, 1, 0))
MAJ = fc.operation_from_callable(U2, 3, lambda a, b, c: (a & b) | (a & c) | (b & c))
GF2 = sm.field_of_order(2)
I2 = sm.identity_map(GF2, 2)


def _fragment():
    return ce.generate([AND], 2)


def _cover():
    return ul.Cover(U2, 1, ({0}, {1}))


def _bp_instance():
    cover = ul.Cover(U2, 2, [{i} for i in range(4)])
    base = {key: AND for key in fc.subfamilies(len(cover.blocks), 2)}
    return bp.BPInstance(AND, MAJ, cover, base)


RECORDS = {
    fc.Universe: lambda: fc.Universe(2, ("f", "t")),
    fc.Operation: lambda: NOT,
    fc.Relation: lambda: fc.neq(U2),
    fc.PreservationWitness: lambda: fc.preservation_witness(AND, fc.neq(U2)),
    ce.CloneFragment: _fragment,
    ip.InterpolationQuery: lambda: ip.InterpolationQuery(AND, _fragment(), 1),
    ip.InterpolationVerdict: lambda: ip.is_lambda_interpolable(
        ip.InterpolationQuery(XOR, _fragment(), 2)
    ),
    ul.Cover: _cover,
    ul.DaggerCertificate: lambda: ul.search_dagger(AND, _fragment(), 2).certificate,
    ul.DaggerFailure: lambda: ul.DaggerFailure(_cover(), 1, frozenset({0})),
    ul.DaggerSearchOutcome: lambda: ul.search_dagger(XOR, _fragment(), 2),
    bp.InterpolantNode: lambda: bp.bp_interpolate(_bp_instance()).tree,
    bp.BPInstance: _bp_instance,
    bp.BPResult: lambda: bp.bp_interpolate(_bp_instance()),
    bp.NUClosureReport: lambda: bp.nu_ultraclosure_check(ce.generate([MAJ], 3), 2),
    sd.ProductUniverse: lambda: sd.ProductUniverse(U2, U2),
    sd.DecompositionResult: lambda: sd.decompose_product(
        sd.ProductUniverse(U2, U2), fc.projection(U4, 2, 0)
    ),
    sd.AbelianGroup: lambda: sd.AbelianGroup(U2, XOR, ID, 0),
    sp.SymbolicCover: lambda: sp.SymbolicCover(2, (frozenset({0}), frozenset({1}))),
    sp.AltCoverWitness: lambda: sp.alt_cover_witness(1, 0, 1, 4),
    sm.FiniteField: lambda: GF2,
    sm.LinearMap: lambda: I2,
    sm.SubspaceCoverInstance: lambda: sm.random_instance(GF2, 3, random.Random(1)),
    sm.DensityResult: lambda: sm.DensityResult((1,), I2),
    sm.RecoveryResult: lambda: sm.recover(sm.random_instance(GF2, 3, random.Random(1))),
}


def test_every_record_class_has_a_case():
    defined = {
        obj for mod in MODULES for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and issubclass(obj, tuple)
    }
    assert defined == set(RECORDS)
    assert len(RECORDS) == 25


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_hashes_as_its_field_tuple(cls):
    record = RECORDS[cls]()
    assert type(record) is cls
    assert not hasattr(record, "__dict__")
    names = record._fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    fields = tuple(getattr(record, name) for name in names)
    assert cls(*fields) == record
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_records_are_tuples_of_their_fields():
    size, labels = fc.Universe(2)
    assert (size, labels) == (2, None)
    assert fc.Universe(2) == (2, None)
    assert NOT == (U2, 1, (1, 0))
    fragment = _fragment()
    universe, bound, generators, members = fragment
    assert fragment == (universe, bound, generators, members)
    assert repr(fragment) == (
        f"CloneFragment(universe={universe!r}, arity_bound={bound!r}, "
        f"generators={generators!r}, members={members!r})"
    )


NEG_BAD = fc.Operation(U2, 1, (1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: fc.Universe(0), "universe size must be >= 1, got 0"),
    (lambda: fc.Universe(2, ("a",)), "labels must match universe size"),
    (lambda: fc.Universe(2, ("a", "a")), "labels must be pairwise distinct"),
    (lambda: fc.Operation(U2, 0, ()), "operation arity must be >= 1, got 0"),
    (lambda: fc.Operation(U2, 1, (0,)), "table length 1 != 2^1"),
    (lambda: fc.Operation(U2, 1, (0, 2)), "table entry 2 outside universe"),
    (lambda: fc.Relation(U2, 0, frozenset()), "relation arity must be >= 1, got 0"),
    (lambda: fc.Relation(U2, 2, frozenset({(0,)})), "tuple (0,) has wrong length for arity 2"),
    (lambda: fc.Relation(U2, 1, frozenset({(3,)})), "tuple entry 3 outside universe"),
    (lambda: ip.InterpolationQuery(fc.Operation(U4, 1, (0, 1, 2, 3)), _fragment(), 1),
     "target and fragment universes differ"),
    (lambda: ip.InterpolationQuery(MAJ, _fragment(), 1), "target arity above fragment arity bound"),
    (lambda: ip.InterpolationQuery(AND, _fragment(), -1), "subset size must be >= 0"),
    (lambda: ul.Cover(U2, 1, ()), "cover needs at least one block"),
    (lambda: ul.Cover(U2, 1, ([], [0, 1])), "empty cover blocks are rejected"),
    (lambda: ul.Cover(U2, 1, ([0, 1], [2])), "cover point index 2 outside the domain"),
    (lambda: ul.Cover(U2, 1, ([0, 1], [5, -1])), "cover point index 5 outside the domain"),
    (lambda: ul.Cover(U2, 1, ([0],)), "blocks do not cover the whole domain"),
    (lambda: bp.BPInstance(AND, fc.operation_from_callable(U4, 3, lambda a, b, c: a),
                           _bp_instance().cover, {}),
     "target and near-unanimity operation universes differ"),
    (lambda: bp.BPInstance(AND, fc.projection(U2, 3, 0), _bp_instance().cover, {}),
     "h does not satisfy the near-unanimity identities"),
    (lambda: bp.BPInstance(AND, MAJ, _cover(), {}), "cover does not match the target's domain"),
    (lambda: bp.BPInstance(AND, MAJ, _bp_instance().cover, {}),
     "missing base interpolant for blocks []"),
    (lambda: bp.BPInstance(AND, MAJ, _bp_instance().cover,
                           {**_bp_instance().base_interpolants, frozenset({0}): NOT}),
     "base interpolant shape mismatch"),
    (lambda: bp.BPInstance(AND, MAJ, _bp_instance().cover,
                           {**_bp_instance().base_interpolants, frozenset({3}): XOR}),
     "base interpolant for blocks [3] disagrees at (1, 1)"),
    (lambda: bp.BPInstance(AND, MAJ, _bp_instance().cover,
                           {**_bp_instance().base_interpolants, frozenset({9}): AND}),
     "base interpolant for blocks [9] names a block outside the cover"),
    (lambda: sm.FiniteField(1), "field order must be between 2 and 9, got 1"),
    (lambda: sm.FiniteField(6), "6 is not a prime power"),
    (lambda: sm.FiniteField(2, *sm.field_of_order(3)[1:]), "tables are not those of GF(2)"),
    (lambda: sm.LinearMap(GF2, ((1, 0),)), "matrix must be square"),
    (lambda: sm.LinearMap(GF2, ((2,),)), "entry 2 outside the field"),
    (lambda: sm.SubspaceCoverInstance(GF2, 2, I2, (), ()), "need at least one interpolant"),
    (lambda: sm.SubspaceCoverInstance(GF2, 2, I2, (I2,), ()), "one block per interpolant required"),
    (lambda: sm.SubspaceCoverInstance(GF2, 3, I2, (I2,), ((),)),
     "matrix shape or field mismatch"),
    (lambda: sm.SubspaceCoverInstance(GF2, 2, I2, (I2,), (((1,),),)),
     "block vector of wrong dimension"),
    (lambda: sm.SubspaceCoverInstance(GF2, 2, I2, (sm.zero_map(GF2, 2),), (((1, 0),),)),
     "target disagrees with its interpolant at block vector (1, 0)"),
    (lambda: sm.SubspaceCoverInstance(GF2, 2, I2, (I2,), ((),), (sm.zero_map(GF2, 3),)),
     "ring_span matrices must be 2 x 2"),
    (lambda: sd.AbelianGroup(U2, NOT, ID, 0),
     "addition must be a binary operation on the universe"),
    (lambda: sd.AbelianGroup(U2, XOR, XOR, 0), "negation must be unary on the universe"),
    (lambda: sd.AbelianGroup(U2, XOR, ID, 2), "zero element outside universe"),
    (lambda: sd.AbelianGroup(U2, XOR, ID, 1), "zero is not a neutral element"),
    (lambda: sd.AbelianGroup(U2, fc.Operation(U2, 2, (0, 1, 1, 1)), NEG_BAD, 0),
     "negation is not an inverse"),
    (lambda: sd.AbelianGroup(U2, fc.Operation(U2, 2, (0, 1, 0, 0)), ID, 0),
     "addition is not commutative"),
    (lambda: sd.AbelianGroup(fc.Universe(3), fc.operation_from_callable(
        fc.Universe(3), 2, lambda a, b: [[0, 1, 2], [1, 0, 0], [2, 0, 0]][a][b]),
        fc.Operation(fc.Universe(3), 1, (0, 1, 2)), 0),
     "addition is not associative"),
    (lambda: sp.SymbolicCover(1, (frozenset(),)), "empty blocks are rejected"),
    (lambda: sp.SymbolicCover(2, (frozenset({0, 1}), frozenset({1}))),
     "blocks must be disjoint"),
    (lambda: sp.SymbolicCover(3, (frozenset({0, 1}),)), "blocks must partition the window"),
])
def test_validating_records_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_importing_the_cli_does_not_import_dataclasses():
    src = str(Path(clonelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys; before = 'dataclasses' in sys.modules; import clonelab.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
