"""Caps are module constants that each capped function reads when it runs.

A caller cannot pass a cap, and a test narrows one with monkeypatch. The
one cap parameter left is generate's member_cap, which `gen --member-cap`
sets per run.
"""

import importlib
import inspect
import pkgutil
import random
import re
import time
from pathlib import Path

import pytest

import clonelab
from clonelab import (
    clone_engine as ce,
    finite_core as fc,
    interpolation as ip,
    simple_module as sm,
    symbolic_perms as sp,
    ultralocal as ul,
)
from clonelab.finite_core import ResourceCapExceeded

U2 = fc.Universe(2)
README = Path(__file__).resolve().parents[1] / "README.md"


def public_callables():
    """(module, qualified name, function) for every public function of a
    clonelab module and every public method, __init__ and __new__ of its
    classes."""
    for info in pkgutil.iter_modules(clonelab.__path__):
        module = importlib.import_module(f"clonelab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module.__name__, name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in ("__init__", "__new__"):
                        continue
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        yield module.__name__, f"{name}.{attr}", func


def test_generate_member_cap_is_the_only_cap_parameter():
    walked = list(public_callables())
    assert len(walked) > 150
    caps = {
        (module, name, param)
        for module, name, func in walked
        for param in inspect.signature(func).parameters
        if param.endswith("cap")
    }
    assert caps == {("clonelab.clone_engine", "generate", "member_cap")}


def test_pol_and_the_local_closure_read_the_operation_cap_when_they_run(monkeypatch):
    frag = ce.generate([], 2, universe=U2)
    monkeypatch.setattr(fc, "OPERATION_CAP", 15)
    message = "^16 operations of arity 2 on 2 elements exceeds cap 15$"
    with pytest.raises(ResourceCapExceeded, match=message):
        ce.pol([], 2, universe=U2)
    for closure in (ip.local_closure_fragment, ul.ultra_closure_fragment):
        with pytest.raises(ResourceCapExceeded, match=message):
            closure(frag, 2, 2)
    monkeypatch.setattr(fc, "OPERATION_CAP", 16)
    assert ce.pol([], 2, universe=U2).member_count() == 4 + 16


def test_the_preservation_scan_reads_the_matrix_cap_when_it_runs(monkeypatch):
    rel = fc.rho3(U2)  # 6 tuples: 216 matrices for a ternary operation
    first = fc.projection(U2, 3, 0)
    majority = fc.operation_from_callable(U2, 3, lambda a, b, c: (a & b) | (a & c) | (b & c))
    witness = fc.preservation_witness(majority, rel)  # in the third prefix of 6 matrices
    monkeypatch.setattr(fc, "MATRIX_CAP", 216)
    assert fc.preserves(first, rel)
    monkeypatch.setattr(fc, "MATRIX_CAP", 18)
    assert fc.preservation_witness(majority, rel) == witness
    message = "^matrix cap 18 reached: scanned 18 of the 216 matrices of 3 rows from a relation of 6 tuples, none failing$"
    with pytest.raises(ResourceCapExceeded, match=message):
        fc.preserves(first, rel)
    monkeypatch.setattr(fc, "MATRIX_CAP", 17)
    with pytest.raises(ResourceCapExceeded, match="^matrix cap 17 reached: scanned 12 of the 216 "):
        fc.preservation_witness(majority, rel)
    monkeypatch.setattr(fc, "MATRIX_CAP", 5)
    with pytest.raises(ResourceCapExceeded, match="^matrix cap 5 reached: scanned 0 of the 6 "):
        fc.preserves(fc.projection(U2, 1, 0), rel)


def test_filter_fragment_keeps_all_operations_order():
    kept = ce.filter_fragment(U2, 2, lambda op: op.table[0] == 0)
    assert [op.table for op in kept.members[1]] == [(0, 0), (0, 1)]
    assert [op.table for op in kept.members[2]] == [
        op.table for op in fc.all_operations(U2, 2) if op.table[0] == 0
    ]
    assert kept.generators == kept.members[1] + kept.members[2]


def test_inv_reads_the_relation_cap_when_it_runs(monkeypatch):
    frag = ce.generate([], 2, universe=U2)
    monkeypatch.setattr(fc, "RELATION_CAP", 15)
    with pytest.raises(ResourceCapExceeded, match="^2\\^4 relations of arity 2 exceeds cap 15$"):
        ce.inv(frag, 2)
    assert len(ce.inv(frag, 1)) == 4


def test_inv_on_two_elements_reads_the_relation_cap_before_scanning(monkeypatch):
    frag = ce.generate([fc.Operation(U2, 2, (1, 1, 1, 0))], 1)
    scan, widths = ce.mask_matrix_failure, []

    def recording(op, width, *rest):
        widths.append(width)
        return scan(op, width, *rest)

    monkeypatch.setattr(ce, "mask_matrix_failure", recording)
    monkeypatch.setattr(fc, "RELATION_CAP", 15)
    with pytest.raises(ResourceCapExceeded, match="^2\\^4 relations of arity 2 exceeds cap 15$"):
        ce.inv(frag, 2)
    # The four unary relations were scanned, and no binary one.
    assert widths == [1] * 4


def test_the_mask_scan_stops_at_the_matrix_cap_as_the_tuple_path_does(monkeypatch):
    monkeypatch.setattr(fc, "MATRIX_CAP", 6)
    message = (
        "matrix cap 6 reached: scanned 6 of the 9 matrices of 2 rows from a relation "
        "of 3 tuples, none failing"
    )
    u3 = fc.Universe(3)
    with pytest.raises(ResourceCapExceeded) as tuple_path:
        fc.preserves(fc.projection(u3, 2, 0), fc.Relation(u3, 1, frozenset({(0,), (1,), (2,)})))
    assert str(tuple_path.value) == message
    rel = fc.Relation(U2, 2, frozenset({(0, 1), (1, 0), (1, 1)}))
    with pytest.raises(ResourceCapExceeded) as mask_path:
        fc.preserves(fc.projection(U2, 2, 0), rel)
    assert str(mask_path.value) == message

    scan, scanned = ce.mask_matrix_failure, []

    def recording(op, width, rows, members):
        scanned.append(list(rows))
        return scan(op, width, rows, members)

    monkeypatch.setattr(ce, "mask_matrix_failure", recording)
    with pytest.raises(ResourceCapExceeded) as through_inv:
        ce.inv(ce.generate([fc.Operation(U2, 2, (1, 1, 1, 0))], 1), 2)
    assert str(through_inv.value) == message
    # nand fails the 3-tuple relations {00, 01, 10}, {00, 01, 11} and
    # {00, 10, 11} inside their first 6 matrices, and {01, 10, 11} is the
    # 15th binary relation scanned: its masks are 2, 1 and 3.
    assert len(scanned) == 4 + 15
    assert scanned[-1] == [2, 1, 3]


def test_the_vector_cap_is_read_when_the_pipeline_runs(monkeypatch):
    F = sm.field_of_order(2)
    inst = sm.random_instance(F, 4, random.Random(0))
    monkeypatch.setattr(sm, "VECTOR_CAP", 8)
    with pytest.raises(ResourceCapExceeded, match="^16 vectors exceed cap 8$"):
        sm.recover(inst)
    assert len(sm.all_vectors(F, 3)) == 8


def test_cover_witness_builds_nothing_past_the_interpolant_cap(monkeypatch):
    monkeypatch.setattr(sp, "INTERPOLANT_CAP", 7)
    assert len(sp.alt_cover_witness(2, 0, 1, 6).interpolants) == 7
    with pytest.raises(ResourceCapExceeded, match="^15 interpolants at k = 3 exceed cap 7$"):
        sp.alt_cover_witness(3, 0, 1, 8)


def test_generate_reads_the_point_cap_before_building(monkeypatch):
    u3 = fc.Universe(3)
    monkeypatch.setattr(ce, "POINT_CAP", 12)
    assert ce.generate([], 2, universe=u3).member_count() == 1 + 2
    monkeypatch.setattr(ce, "POINT_CAP", 11)
    monkeypatch.setattr(ce, "_close_arity", None)
    message = "^tables of arity 1 to 2 on a 3-element universe exceed cap 11 points$"
    with pytest.raises(ResourceCapExceeded, match=message):
        ce.generate([], 2, universe=u3)


def test_generate_on_one_element_takes_linear_time_up_to_the_point_cap():
    # Each layer holds one projection of one point; building it by spelling
    # out its j-tuple argument made the whole run quadratic in the bound.
    start = time.perf_counter()
    fragment = ce.generate([], ce.POINT_CAP, universe=fc.Universe(1))
    assert time.perf_counter() - start < 2.0
    assert fragment.member_count() == ce.POINT_CAP


def cap_constants():
    """(module, name, value) for every *_CAP constant of a clonelab module,
    except the default of generate's member_cap parameter."""
    for info in pkgutil.iter_modules(clonelab.__path__):
        module = importlib.import_module(f"clonelab.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_CAP") and name != "DEFAULT_MEMBER_CAP":
                yield info.name, name, value


def global_names(code) -> set:
    """The global and attribute names a code object reads, nested code
    (generator expressions, inner functions) included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= global_names(const)
    return names


def reads_cap(module, name, cap, seen=frozenset()) -> bool:
    """True iff the module's function name reads cap, itself or through
    the functions of the same module that it calls."""
    names = global_names(getattr(module, name).__code__)
    return cap in names or any(
        reads_cap(module, other, cap, seen | {name})
        for other in names - seen - {name}
        if inspect.isfunction(getattr(module, other, None))
        and getattr(module, other).__module__ == module.__name__
    )


def test_every_cap_constant_has_a_row_in_the_readme_caps_table():
    rows = re.findall(r"^\| `(\w+)` = ([\d^]+) \| `(\w+)` \| (.*) \|$", README.read_text(), re.M)
    table = {
        (module, name, 2 ** int(value[2:]) if value.startswith("2^") else int(value))
        for name, value, module, _ in rows
    }
    assert table == set(cap_constants())
    # Each row says what the cap bounds by naming a function that reads it.
    for name, _, module_name, bounds in rows:
        module = importlib.import_module(f"clonelab.{module_name}")
        named = [
            fn for fn in re.findall(r"`(\w+)`", bounds)
            if inspect.isfunction(getattr(module, fn, None))
        ]
        assert any(reads_cap(module, fn, name) for fn in named), (name, bounds)


def test_the_window_cap_row_names_perm_cover_witness_only():
    # altb-check decides membership from the map's moved points, so no
    # window bounds it; cover-witness is the one command a window bounds.
    (row,) = re.findall(r"^\| `WINDOW_CAP` .*$", README.read_text(), re.M)
    assert re.findall(r"`(perm [\w-]+)`", row) == ["perm cover-witness"]
