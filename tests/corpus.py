"""Byte-identity corpus for the command line.

Fixed inputs are written into a working directory, and a fixed list of
argv lists runs through clonelab.cli.run from that directory, so that a
message naming a file names it the same way on every run. Each case is
reduced to one digest of its exit code, its stdout and every file it
wrote. tests/corpus_digests.json holds the expected digests, and
tests/test_corpus.py compares them.

    python tests/corpus.py --write    # regenerate tests/corpus_digests.json

A change that alters a digest lists the changed case ids in CHANGES.md,
with the reason.

The cases cover every subcommand, every certificate kind followed by its
verify, and malformed variants of each loader's input. The payload-forging
sweep then takes one valid certificate per kind, sets each payload field to
a few wrong values, recomputes the payload digest so that only the recheck
can object, and verifies the result.

Inputs are spelled out here in plain Python, never built by clonelab, and
the corpus keeps digests only: what the outputs mean is checked by the
other tests. Some error messages quote Python's own (JSON decoding, file
errors); the digests hold under Python 3.10 to 3.13 alike. The module
needs only the standard library, so each interpreter checks them without
pytest. Under pyenv, name the version too:

    PYENV_VERSION=3.10.13 python3.10 tests/corpus.py   # likewise 3.12.1, 3.13.0
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from clonelab import cli  # noqa: E402

DIGESTS = Path(__file__).with_name("corpus_digests.json")

U1 = {"size": 1}
U2 = {"size": 2}
U3 = {"size": 3}
U2_LABELS = {"size": 2, "labels": ["f", "t"]}


def tabulate(m: int, arity: int, fn) -> list:
    return [fn(*args) for args in itertools.product(range(m), repeat=arity)]


def op(arity: int, table, universe=None) -> dict:
    data = {"arity": arity, "table": list(table)}
    if universe is not None:
        data["universe"] = universe
    return data


NOT = op(1, [1, 0])
ID = op(1, [0, 1])
CONST0 = op(1, [0, 0])
AND = op(2, [0, 0, 0, 1])
OR = op(2, [0, 1, 1, 1])
XOR = op(2, [0, 1, 1, 0])
NAND = op(2, [1, 1, 1, 0])
IMPLIES = op(2, [1, 1, 0, 1])
MAJ = op(3, tabulate(2, 3, lambda a, b, c: (a & b) | (a & c) | (b & c)))
XOR3 = op(3, tabulate(2, 3, lambda a, b, c: a ^ b ^ c))
# A 4-ary near-unanimity operation: the value three arguments share, else x0.
NU4 = op(4, tabulate(2, 4, lambda *x: 1 if sum(x) >= 3 else 0 if sum(x) <= 1 else x[0]))
MIN3 = op(2, tabulate(3, 2, min))
MAX3 = op(2, tabulate(3, 2, max))
SHIFT3 = op(1, [1, 2, 0])
DD3 = op(3, tabulate(3, 3, lambda x, y, z: x if x == y else z))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Corpus:
    """Runs cases in the current directory and keeps one digest per case."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def write(self, name: str, obj) -> str:
        Path(name).write_text(json.dumps(obj))
        return name

    def write_bytes(self, name: str, data: bytes) -> str:
        Path(name).write_bytes(data)
        return name

    def run(self, case_id: str, argv, outputs=()) -> int:
        if case_id in self.digests:
            raise ValueError(f"duplicate corpus case {case_id}")
        for name in outputs:
            Path(name).unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv), out=out)
        h = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
        for name in outputs:
            path = Path(name)
            h.update(b"\0" + name.encode() + b"\0")
            h.update(path.read_bytes() if path.exists() else b"<not written>")
        self.digests[case_id] = h.hexdigest()[:16]
        return code

    def verify(self, case_id: str, cert: str, inputs=()) -> int:
        argv = ["verify", cert] + (["--inputs", *inputs] if inputs else [])
        return self.run(case_id, argv)


# --- inputs and cases, one section per subcommand ----------------------------

GENERATORS = {
    "and2": ({"universe": U2, "operations": [AND]}, 2),
    "nand2": ({"universe": U2, "operations": [NAND]}, 2),
    "maj3": ({"universe": U2, "operations": [MAJ]}, 3),
    "xornot2": ({"universe": U2, "operations": [XOR, NOT]}, 2),
    "impl2": ({"universe": U2, "operations": [CONST0, IMPLIES]}, 2),
    "empty2": ({"universe": U2, "operations": []}, 2),
    "empty_u1": ({"universe": U1, "operations": []}, 2),
    "listnot1": ([NOT], 1),
    "labels2": ({"universe": U2_LABELS, "operations": [AND, OR]}, 2),
    "min3": ({"universe": U3, "operations": [MIN3]}, 2),
    "minmax3": ({"universe": U3, "operations": [MIN3, MAX3]}, 2),
    "shift3": ({"universe": U3, "operations": [SHIFT3]}, 1),
    "dd3": ({"universe": U3, "operations": [DD3]}, 2),
}

BAD_GENERATORS = {
    "not_a_list": 5,
    "missing_table": {"universe": U2, "operations": [{"arity": 1}]},
    "float_entry": {"universe": U2, "operations": [op(1, [0, 1.0])]},
    "bool_arity": {"universe": U2, "operations": [{"arity": True, "table": [0, 1]}]},
    "short_table": {"universe": U2, "operations": [op(1, [0, 1, 0])]},
    "entry_outside": {"universe": U2, "operations": [op(1, [0, 2])]},
    "two_universes": [NOT, op(1, [0, 1, 2])],
    "no_universe_empty": [],
    "not_a_power": [op(2, [0, 1, 0])],
    "dup_labels": {"universe": {"size": 2, "labels": ["a", "a"]}, "operations": []},
    "size_zero": {"universe": {"size": 0}, "operations": []},
    "universe_not_object": {"universe": 2, "operations": []},
    "labels_string": {"universe": {"size": 2, "labels": "ab"}, "operations": []},
    "labels_ints": {"universe": {"size": 2, "labels": [1, 2]}, "operations": []},
    "labels_null": {"universe": {"size": 2, "labels": None}, "operations": []},
}

BAD_JSON = {
    "truncated": b'{"arity": 1',
    "not_utf8": b"\xff\xfe",
    "deep": b"[" * 100_000,
    "empty": b"",
}


def gen_cases(c: Corpus) -> None:
    for name, (data, bound) in GENERATORS.items():
        path = c.write(f"g_{name}.json", data)
        c.run(f"gen/{name}", ["gen", "--generators", path, "--arity-bound", str(bound),
                              "--out", f"f_{name}.json"], outputs=[f"f_{name}.json"])
    c.run("gen/nand3_capped", ["gen", "--generators", "g_nand2.json", "--arity-bound", "3",
                               "--member-cap", "20"])
    c.run("gen/point_capped_u2", ["gen", "--generators", "g_listnot1.json", "--arity-bound",
                                  "40", "--out", "f_point_capped.json"],
          outputs=["f_point_capped.json"])
    c.run("gen/point_capped_u1", ["gen", "--generators", "g_empty_u1.json", "--arity-bound",
                                  "1000000"])
    c.run("gen/and3_no_out", ["gen", "--generators", "g_and2.json", "--arity-bound", "3"])
    c.run("gen/bound0", ["gen", "--generators", "g_and2.json", "--arity-bound", "0"])
    c.run("gen/missing_file", ["gen", "--generators", "nope.json", "--arity-bound", "1"])
    c.run("gen/no_bound", ["gen", "--generators", "g_and2.json"])
    for name, cap in [("member_cap_zero", "0"), ("member_cap_negative", "-1")]:
        c.run(f"gen/bad/{name}", ["gen", "--generators", "g_and2.json", "--arity-bound", "2",
                                  "--member-cap", cap])
    for name, data in BAD_GENERATORS.items():
        path = c.write(f"bad_g_{name}.json", data)
        c.run(f"gen/bad/{name}", ["gen", "--generators", path, "--arity-bound", "1"])
    for name, data in BAD_JSON.items():
        path = c.write_bytes(f"badjson_{name}.json", data)
        c.run(f"gen/badjson/{name}", ["gen", "--generators", path, "--arity-bound", "1"])


TARGETS = {
    "not": NOT,
    "id": ID,
    "and": AND,
    "or": OR,
    "xor": XOR,
    "nand": NAND,
    "implies": IMPLIES,
    "maj": MAJ,
    "xor3": XOR3,
    "and_labels": op(2, [0, 0, 0, 1], U2_LABELS),
    "and_u2": op(2, [0, 0, 0, 1], U2),
    "min3": MIN3,
    "max3": MAX3,
    "shift3": SHIFT3,
    "dd3": DD3,
}

BAD_FRAGMENTS = {
    "missing_layer": {"universe": U2, "arity_bound": 2, "members": {"1": [[0, 1]]}},
    "bad_key": {"universe": U2, "arity_bound": 1, "members": {"x": [[0, 1]]}},
    "plus_key": {"universe": U2, "arity_bound": 1, "members": {"+1": [[0, 1]]}},
    "float_bound": {"universe": U2, "arity_bound": 1.0, "members": {"1": [[0, 1]]}},
    "members_list": {"universe": U2, "arity_bound": 1, "members": [[0, 1]]},
    "long_table": {"universe": U2, "arity_bound": 1, "members": {"1": [[0, 1, 0]]}},
    "no_universe": {"arity_bound": 1, "members": {"1": [[0, 1]]}},
    "bad_generator": {"universe": U2, "arity_bound": 1, "members": {"1": [[0, 1]]},
                      "generators": [op(1, [5, 0])]},
    "not_object": [1, 2],
}


def query_cases(c: Corpus) -> None:
    for name, data in TARGETS.items():
        c.write(f"t_{name}.json", data)
    c.write("t_bad_table.json", op(1, [0, "1"]))
    for name, data in BAD_FRAGMENTS.items():
        c.write(f"bad_f_{name}.json", data)

    u2_targets = ["not", "id", "and", "or", "xor", "nand", "implies", "maj", "xor3",
                  "and_labels", "and_u2"]
    u2_frags = ["and2", "xornot2", "maj3", "empty2", "labels2"]
    u3_frags = ["min3", "minmax3", "shift3", "dd3"]
    pairs = itertools.chain(
        itertools.product(u2_targets, u2_frags),
        itertools.product(["min3", "max3", "shift3", "dd3"], u3_frags),
        [("not", "empty_u1"), ("min3", "and2"), ("and", "min3")],
    )
    for t, f in pairs:
        c.run(f"member/{t}/{f}", ["member", "--op", f"t_{t}.json", "--fragment", f"f_{f}.json"])
    c.run("member/bad_table", ["member", "--op", "t_bad_table.json", "--fragment", "f_and2.json"])
    c.run("member/missing_op", ["member", "--op", "nope.json", "--fragment", "f_and2.json"])
    for name in BAD_FRAGMENTS:
        c.run(f"member/bad_fragment/{name}",
              ["member", "--op", "t_not.json", "--fragment", f"bad_f_{name}.json"])
    for name in BAD_JSON:
        c.run(f"member/badjson/{name}",
              ["member", "--op", f"badjson_{name}.json", "--fragment", "f_and2.json"])

    interp = {
        "and2": ["not", "and", "or", "xor", "implies", "and_labels"],
        "xornot2": ["and", "xor", "nand", "not"],
        "maj3": ["and", "maj", "xor3"],
        "empty2": ["not", "id", "and"],
        "labels2": ["and", "and_labels", "and_u2", "xor"],
        "min3": ["min3", "max3", "shift3"],
        "minmax3": ["min3", "max3"],
        "dd3": ["min3", "dd3"],
    }
    for f, targets in interp.items():
        for t in targets:
            for lam in range(4):
                c.run(f"interp/{t}/{f}/{lam}", ["interp", "--target", f"t_{t}.json",
                                                "--fragment", f"f_{f}.json", "--lambda", str(lam)])
    c.run("interp/negative_lambda", ["interp", "--target", "t_and.json", "--fragment",
                                     "f_and2.json", "--lambda", "-1"])
    c.run("interp/arity_above_bound", ["interp", "--target", "t_maj.json", "--fragment",
                                       "f_and2.json", "--lambda", "1"])
    c.run("interp/other_universe", ["interp", "--target", "t_min3.json", "--fragment",
                                    "f_and2.json", "--lambda", "1"])


ULTRA = [
    ("and", "and2", 1), ("and", "and2", 2), ("xor", "and2", 1), ("xor", "and2", 2),
    ("or", "and2", 1), ("not", "and2", 0), ("not", "empty2", 1), ("and", "xornot2", 1),
    ("nand", "xornot2", 2), ("and_labels", "labels2", 2), ("xor", "labels2", 1),
    ("and", "maj3", 2), ("maj", "maj3", 1), ("min3", "min3", 2), ("max3", "min3", 1),
    ("max3", "minmax3", 3), ("min3", "dd3", 1),
]


def ultra_cases(c: Corpus) -> None:
    for t, f, lam in ULTRA:
        base = ["ultra", "--target", f"t_{t}.json", "--fragment", f"f_{f}.json",
                "--lambda", str(lam)]
        case = f"ultra/{t}/{f}/{lam}"
        c.run(f"{case}/singletons", base + ["--strategy", "singletons"])
        c.run(f"{case}/atoms", base + ["--strategy", "equalizer_atoms"])
        c.run(f"{case}/exhaustive2", base + ["--strategy", "exhaustive", "--max-blocks", "2"])
        cert = f"cert_ultra_{t}_{f}_{lam}.json"
        c.run(f"{case}/cert", base + ["--max-blocks", "3", "--cert", cert], [cert])
        if Path(cert).exists():
            c.verify(f"verify/{case}", cert, [f"t_{t}.json", f"f_{f}.json"])
    for t, f, lam in [("and", "and2", 2), ("xor", "and2", 1), ("or", "xornot2", 2),
                      ("and", "empty2", 0)]:
        c.run(f"ultra/{t}/{f}/{lam}/exhaustive", ["ultra", "--target", f"t_{t}.json",
                                                  "--fragment", f"f_{f}.json",
                                                  "--lambda", str(lam)])
    c.run("ultra/negative_lambda", ["ultra", "--target", "t_and.json", "--fragment",
                                    "f_and2.json", "--lambda", "-1"])
    c.run("ultra/max_blocks0", ["ultra", "--target", "t_and.json", "--fragment", "f_and2.json",
                                "--lambda", "1", "--max-blocks", "0"])
    for strategy, name, blocks in [("singletons", "singletons", "-3"),
                                   ("equalizer_atoms", "atoms", "2")]:
        c.run(f"ultra/max_blocks_{name}", ["ultra", "--target", "t_and.json", "--fragment",
                                           "f_and2.json", "--lambda", "1", "--strategy",
                                           strategy, "--max-blocks", blocks])
    c.run("ultra/bad_strategy", ["ultra", "--target", "t_and.json", "--fragment",
                                 "f_and2.json", "--lambda", "1", "--strategy", "greedy"])
    c.run("ultra/bad_fragment", ["ultra", "--target", "t_and.json", "--fragment",
                                 "bad_f_missing_layer.json", "--lambda", "1"])


def bp_instance(universe, f, h, cover, seed, max_size=None):
    """A bp instance whose base interpolants agree with f on their blocks
    and are seeded-random elsewhere."""
    rng = random.Random(seed)
    m = universe["size"]
    max_size = h["arity"] - 1 if max_size is None else max_size
    base = {}
    for size in range(max_size + 1):
        for key in itertools.combinations(range(len(cover)), size):
            points = {p for b in key for p in cover[b]}
            base[",".join(map(str, key))] = [
                v if i in points else rng.randrange(m) for i, v in enumerate(f["table"])
            ]
    return {"universe": universe, "f": f, "h": h, "cover": cover,
            "base_interpolants": base}


BP = {
    "and4": (U2, AND, MAJ, [[0], [1], [2], [3]]),
    "and3": (U2, AND, MAJ, [[0, 1], [2], [3]]),
    "and2": (U2, AND, MAJ, [[0, 1], [2, 3]]),
    "maj5": (U2, MAJ, MAJ, [[0, 1], [2], [3, 4], [5], [6, 7]]),
    "xor3_6": (U2, XOR3, MAJ, [[0], [1, 2], [3], [4], [5, 6], [7]]),
    "nu4_5": (U2, IMPLIES, NU4, [[0], [1], [2], [3], [0, 3]]),
    "min3_4": (U3, MIN3, DD3, [[0, 1, 2], [3, 4], [5, 6], [7, 8]]),
    "overlap": (U2, OR, MAJ, [[0, 1], [1, 2], [2, 3], [3, 0]]),
}


def bp_cases(c: Corpus) -> None:
    for seed, (name, (u, f, h, cover)) in enumerate(BP.items()):
        inst = c.write(f"bp_{name}.json", bp_instance(u, f, h, cover, seed))
        cert = f"cert_bp_{name}.json"
        c.run(f"bp/{name}", ["bp", "--instance", inst, "--cert", cert], [cert])
        c.verify(f"verify/bp/{name}", cert, [inst])
    c.write("bp_labels.json", bp_instance(U2_LABELS, AND, MAJ, [[0, 3], [1], [2]], 9))
    c.run("bp/labels", ["bp", "--instance", "bp_labels.json"])
    c.write("bp_extra_key.json", bp_instance(U2, AND, MAJ, [[0], [1], [2], [3]], 3, max_size=3))
    c.run("bp/extra_keys", ["bp", "--instance", "bp_extra_key.json"])

    good = bp_instance(U2, AND, MAJ, [[0], [1], [2], [3]], 0)
    bad = {
        "h_not_nu": {**good, "h": XOR3},
        "h_binary": {**good, "h": AND},
        "missing_key": {**good, "base_interpolants": {
            k: v for k, v in good["base_interpolants"].items() if k != "0,1"}},
        "disagrees": {**good, "base_interpolants": {
            **good["base_interpolants"], "3": [0, 0, 0, 0]}},
        "short_base": {**good, "base_interpolants": {**good["base_interpolants"], "2": [0, 0]}},
        "bad_key": {**good, "base_interpolants": {**good["base_interpolants"], "a": [0, 0, 0, 1]}},
        "key_outside_cover": {**good, "base_interpolants": {
            **good["base_interpolants"], "9": [0, 0, 0, 1]}},
        "cover_outside": {**good, "cover": [[0], [1], [2], [4]]},
        "cover_short": {**good, "cover": [[0], [1], [2]]},
        "cover_float": {**good, "cover": [[0], [1], [2], [3.0]]},
        "empty_block": {**good, "cover": [[0], [1], [2], [3], []]},
        "no_cover": {k: v for k, v in good.items() if k != "cover"},
        "h_other_universe": {**good, "h": DD3},
        "base_not_object": {**good, "base_interpolants": [[0, 0, 0, 1]]},
    }
    for name, data in bad.items():
        c.run(f"bp/bad/{name}", ["bp", "--instance", c.write(f"bad_bp_{name}.json", data)])


def _pair_op(left: int, right: int, arity: int, fl, fr) -> dict:
    """The product of fl on left and fr on right, paired as a * right + b."""
    m = left * right

    def combined(*args):
        pairs = [divmod(u, right) for u in args]
        return fl(*(a for a, _ in pairs)) * right + fr(*(b for _, b in pairs))

    return op(arity, tabulate(m, arity, combined))


DETECT_OPS = {
    "not": NOT,
    "and": AND,
    "maj": MAJ,
    "shift3": SHIFT3,
    "min3": MIN3,
    "dd3": DD3,
    "prod22": _pair_op(2, 2, 2, lambda a, c: a & c, lambda b, d: b ^ d),
    "prod22_unary": _pair_op(2, 2, 1, lambda a: 1 - a, lambda b: b),
    "prod23": _pair_op(2, 3, 2, lambda a, c: a | c, lambda b, d: (b + d) % 3),
    "add4": op(2, tabulate(4, 2, lambda x, y: (x + y) % 4)),
    "xor": XOR,
    "xor3": XOR3,
    "add3": op(2, tabulate(3, 2, lambda x, y: (x + y) % 3)),
    # Not essentially unary, with every rho3 witness past the first prefix
    # of rows (fixing all rows but the last applies a unary map to it).
    "mix4": op(4, tabulate(2, 4, lambda a, b, c, d: (a & b) ^ (c | d))),
    "mix6": op(6, tabulate(2, 6, lambda a, b, c, d, e, f: (a & b & c) ^ (d | e) ^ (c & f))),
    "comm3": op(2, tabulate(3, 2, lambda x, y: (x * y + x + y) % 3)),
    # Twelve arguments: the table decides, with no matrix of rho3 rows read.
    "proj12": op(12, tabulate(2, 12, lambda *x: x[0])),
    "and12": op(12, tabulate(2, 12, lambda *x: x[10] & x[11])),
}

GROUPS = {
    "z2": {"universe": U2, "add": XOR, "neg": ID, "zero": 0},
    "z3": {"universe": U3, "add": DETECT_OPS["add3"], "neg": op(1, [0, 2, 1]), "zero": 0},
    "bad_zero": {"universe": U2, "add": XOR, "neg": ID, "zero": 1},
    "bad_neg": {"universe": U2, "add": XOR, "neg": NOT, "zero": 0},
    "no_add": {"universe": U2, "neg": ID, "zero": 0},
}


def detect_cases(c: Corpus) -> None:
    for name, data in DETECT_OPS.items():
        c.write(f"d_{name}.json", data)
    for name in DETECT_OPS:
        cert = f"cert_ess_{name}.json"
        c.run(f"detect/ess-unary/{name}",
              ["detect", "ess-unary", "--op", f"d_{name}.json", "--cert", cert], [cert])
        if Path(cert).exists():
            c.verify(f"verify/ess-unary/{name}", cert, [f"d_{name}.json"])
    for name, sizes in [("prod22", (2, 2)), ("prod22_unary", (2, 2)), ("prod23", (2, 3)),
                        ("add4", (2, 2)), ("prod23", (3, 2)), ("dd3", (1, 3)),
                        ("and", (1, 2)), ("add4", (2, 3))]:
        cert = f"cert_prod_{name}_{sizes[0]}{sizes[1]}.json"
        case = f"detect/product/{name}/{sizes[0]}x{sizes[1]}"
        c.run(case, ["detect", "product", "--op", f"d_{name}.json", "--left-size",
                     str(sizes[0]), "--right-size", str(sizes[1]), "--cert", cert], [cert])
        if Path(cert).exists():
            c.verify(f"verify/{case}", cert, [f"d_{name}.json"])
    c.run("detect/product/no_sizes", ["detect", "product", "--op", "d_add4.json"])
    c.run("detect/product/size0", ["detect", "product", "--op", "d_add4.json",
                                   "--left-size", "0", "--right-size", "4"])
    for name, data in GROUPS.items():
        c.write(f"grp_{name}.json", data)
    for o, g in itertools.product(["xor", "and", "not", "xor3", "add3", "min3"], GROUPS):
        c.run(f"detect/module/{o}/{g}",
              ["detect", "module", "--op", f"d_{o}.json", "--group", f"grp_{g}.json"])
    c.run("detect/module/no_group", ["detect", "module", "--op", "d_xor.json"])
    for o in ["not", "and", "min3", "shift3", "dd3"]:
        for a in ["0", "1", "2", "5"]:
            c.run(f"detect/gs/{o}/{a}", ["detect", "gs", "--op", f"d_{o}.json", "--ideal", a])
    c.run("detect/gs/no_ideal", ["detect", "gs", "--op", "d_and.json"])
    c.run("detect/gs/cert", ["detect", "gs", "--op", "d_and.json", "--ideal", "0",
                             "--cert", "cert_gs.json"], ["cert_gs.json"])
    c.run("detect/unknown", ["detect", "bogus", "--op", "d_and.json"])
    c.run("detect/missing_op", ["detect", "ess-unary", "--op", "nope.json"])
    c.run("detect/bad_op", ["detect", "ess-unary", "--op", "bad_g_short_table.json"])


PERMS = {
    "swap01": {"moved": {"0": 1, "1": 0}},
    "cycle3": {"moved": {"0": 1, "1": 2, "2": 0}},
    "swaps": {"moved": {"0": 1, "1": 0, "4": 5, "5": 4}},
    "far": {"moved": {"7": 9, "9": 7}},
    "identity": {"moved": {}},
    "no_moved": {},
    "fixed_entry": {"moved": {"3": 3}},
    "not_bijection": {"moved": {"0": 1}},
    "not_injective": {"moved": {"0": 2, "1": 2, "2": 0}},
    "float_image": {"moved": {"0": 1.0, "1": 0}},
    "negative_key": {"moved": {"-1": 0, "0": -1}},
    "moved_list": {"moved": [1, 0]},
    "not_object": [1],
}

ALTB_MAPS = {
    "swap01": {"moved": {"0": 1, "1": 0}},
    "cycle3": {"moved": {"0": 1, "1": 2, "2": 0}},
    "swap_out": {"moved": {"0": 5, "5": 0}},
    "into": {"moved": {"0": 1}},
    "identity": {"moved": {}},
    "swap_far": {"moved": {"100": 101, "101": 100}},
}


def perm_cases(c: Corpus) -> None:
    for name, data in PERMS.items():
        path = c.write(f"p_{name}.json", data)
        c.run(f"perm/parity/{name}", ["perm", "parity", "--perm", path])
        c.run(f"perm/alt/{name}", ["perm", "alt", "--perm", path])
        for support in ["0,1,2", "0,1,4,5", "", "a"]:
            c.run(f"perm/alt/{name}/{support}", ["perm", "alt", "--perm", path,
                                                 "--support", support])
    c.run("perm/parity/no_perm", ["perm", "parity"])
    c.run("perm/parity/support", ["perm", "parity", "--perm", "p_cycle3.json", "--support", "0",
                                  "--k", "3"])
    c.run("perm/alt/window", ["perm", "alt", "--perm", "p_cycle3.json", "--window", "5"])
    c.run("perm/parity/missing_file", ["perm", "parity", "--perm", "nope.json"])
    for k, a, b, window in [(0, 0, 1, 2), (1, 0, 1, 4), (1, 2, 3, 5), (2, 0, 5, 9),
                            (3, 1, 2, 8), (2, 4, 1, 11), (4, 0, 1, 10)]:
        cert = f"cert_alt_{k}_{a}_{b}_{window}.json"
        case = f"perm/cover-witness/{k}/{a}/{b}/{window}"
        c.run(case, ["perm", "cover-witness", "--k", str(k), "--a", str(a), "--b", str(b),
                     "--window", str(window), "--cert", cert], [cert])
        c.verify(f"verify/{case}", cert)
    for k, a, b, window in [(2, 0, 1, 5), (-1, 0, 1, 4), (1, 1, 1, 4), (1, 0, 4, 4),
                            (1, -1, 0, 4), (0, 0, 1, 1)]:
        c.run(f"perm/cover-witness/{k}/{a}/{b}/{window}",
              ["perm", "cover-witness", "--k", str(k), "--a", str(a), "--b", str(b),
               "--window", str(window)])
    c.run("perm/cover-witness/no_window", ["perm", "cover-witness", "--k", "1", "--a", "0",
                                           "--b", "1"])
    for name, data in ALTB_MAPS.items():
        path = c.write(f"m_{name}.json", data)
        for support in ["0,1,2", "0,1", "0,1,5", "", "0,2"]:
            c.run(f"perm/altb/{name}/{support}",
                  ["perm", "altb-check", "--map", path, "--support", support])
    c.run("perm/altb/window", ["perm", "altb-check", "--map", "m_swap_far.json",
                               "--support", "0,1,2", "--window", "10"])
    c.run("perm/altb/no_support", ["perm", "altb-check", "--map", "m_swap01.json"])
    c.run("perm/altb/bad_map", ["perm", "altb-check", "--map", "p_moved_list.json",
                                "--support", "0"])
    c.run("perm/altb/negative_map", ["perm", "altb-check", "--map", "p_negative_key.json",
                                     "--support", "0"])
    c.run("perm/unknown", ["perm", "bogus"])


# The GF(7), GF(8) and GF(9) demos stop at VECTOR_CAP in recover, but their
# instance bytes and drop variants pin down the arithmetic of those fields.
MODULE_DEMOS = [(2, 2, 0), (2, 3, 1), (2, 3, 4), (3, 3, 0), (3, 3, 2), (4, 4, 1), (5, 5, 0),
                (7, 7, 0), (8, 8, 0), (9, 9, 0)]


def module_cases(c: Corpus) -> None:
    for q, dim, seed in MODULE_DEMOS:
        name = f"q{q}_d{dim}_s{seed}"
        inst = f"mod_{name}.json"
        c.run(f"module/demo/{name}", ["module", "demo", "--field", str(q), "--dim", str(dim),
                                      "--seed", str(seed), "--out", inst], [inst])
        cert = f"cert_mod_{name}.json"
        c.run(f"module/recover/{name}", ["module", "recover", "--instance", inst,
                                         "--cert", cert], [cert])
        if Path(cert).exists():
            c.verify(f"verify/module/{name}", cert, [inst])
        data = json.loads(Path(inst).read_text())
        for i in range(len(data["interpolants"])):
            dropped = {**data,
                       "interpolants": data["interpolants"][:i] + data["interpolants"][i + 1:],
                       "blocks": data["blocks"][:i] + data["blocks"][i + 1:]}
            path = c.write(f"mod_{name}_drop{i}.json", dropped)
            c.run(f"module/recover/{name}/drop{i}", ["module", "recover", "--instance", path])
        span = c.write(f"mod_{name}_span.json", {
            **data, "ring_span": [[[int(i == j) for j in range(dim)] for i in range(dim)]]})
        c.run(f"module/recover/{name}/identity_span", ["module", "recover", "--instance", span])
    for q, dim in [(6, 2), (2, 1), (3, 2), (11, 3)]:
        c.run(f"module/demo/bad/q{q}_d{dim}", ["module", "demo", "--field", str(q),
                                               "--dim", str(dim)])
    c.run("module/demo/default", ["module", "demo"])
    c.run("module/demo/cert", ["module", "demo", "--cert", "cert_demo.json"], ["cert_demo.json"])
    good = json.loads(Path("mod_q2_d3_s1.json").read_text())
    bad = {
        "field6": {**good, "field": 6},
        "dim_mismatch": {**good, "dim": 4},
        "entry_outside": {**good, "f": [[2] * 3] * 3},
        "ragged": {**good, "f": [[0, 1], [1, 0, 0], [0, 0, 1]]},
        "no_interpolants": {**good, "interpolants": [], "blocks": []},
        "block_count": {**good, "blocks": good["blocks"][:-1]},
        "span_size": {**good, "ring_span": [[[1, 0], [0, 1]]]},
        "span_not_list": {**good, "ring_span": [5]},
        "f_not_list": {**good, "f": "I"},
        "no_field": {k: v for k, v in good.items() if k != "field"},
    }
    for name, data in bad.items():
        c.run(f"module/recover/bad/{name}",
              ["module", "recover", "--instance", c.write(f"bad_mod_{name}.json", data)])
    c.run("module/recover/no_instance", ["module", "recover"])
    c.run("module/recover/field", ["module", "recover", "--instance", "mod_q2_d3_s1.json",
                                   "--field", "3"])
    c.run("module/unknown", ["module", "bogus"])


def verify_cases(c: Corpus) -> None:
    good = "cert_ultra_and_and2_2.json"
    cert = json.loads(Path(good).read_text())
    c.write("cert_list.json", [cert])
    c.write("cert_extra_field.json", {**cert, "note": 1})
    c.write("cert_unknown_kind.json", {**cert, "kind": "magic"})
    c.write("cert_kind_list.json", {**cert, "kind": ["dagger"]})
    c.write("cert_tampered.json", {**cert, "payload": {**cert["payload"], "lambda": 1}})
    for name in ["list", "extra_field", "unknown_kind", "kind_list", "tampered"]:
        c.verify(f"verify/envelope/{name}", f"cert_{name}.json", ["t_and.json", "f_and2.json"])
    c.verify("verify/inputs/swapped", good, ["f_and2.json", "t_and.json"])
    c.verify("verify/inputs/other_target", good, ["t_or.json", "f_and2.json"])
    c.verify("verify/inputs/none", good)
    c.verify("verify/inputs/one", good, ["t_and.json"])
    c.verify("verify/inputs/missing_file", good, ["t_and.json", "nope.json"])
    c.verify("verify/inputs/alt_cover_given_inputs", "cert_alt_1_0_1_4.json", ["t_and.json"])
    c.verify("verify/missing_cert", "nope.json")
    # Input files whose joined bytes digest as the expected ones, but too few
    # or too many of them.
    joined = b"\0".join(Path(p).read_bytes() for p in ["t_and.json", "f_and2.json"])
    c.verify("verify/inputs/joined", good, [c.write_bytes("joined.json", joined)])
    c.verify("verify/inputs/alt_cover_given_empty", "cert_alt_1_0_1_4.json",
             ["badjson_empty.json"])
    for name in BAD_JSON:
        c.verify(f"verify/badjson/{name}", f"badjson_{name}.json")
    c.run("cli/schema", ["--schema"])
    c.run("cli/no_command", [])
    c.run("cli/unknown_command", ["frobnicate"])


# --- the payload-forging sweep -------------------------------------------------

# Wrong values every payload field is set to in turn; DELETE drops the field.
DELETE = object()
GENERIC = {"deleted": DELETE, "null": None, "string": "x", "minus1": -1, "list": [],
           "object": {}, "float": 1.5}


def _forge(c: Corpus, case_id: str, cert_path: str, inputs, payload) -> None:
    cert = json.loads(Path(cert_path).read_text())
    body = {"kind": cert["kind"], "payload": payload, "inputs_digest": cert["inputs_digest"]}
    forged = {**body, "payload_digest": sha256(canonical(body))}
    c.verify(case_id, c.write("forged.json", forged), inputs)


def forge_sweep(c: Corpus, kind: str, cert_path: str, inputs, targeted) -> None:
    """Verify the certificate with each payload field set to each GENERIC
    value, then with each targeted edit (name -> function of a copy of the
    payload, returning the forged payload)."""
    payload = json.loads(Path(cert_path).read_text())["payload"]
    for field in sorted(payload):
        for label, value in GENERIC.items():
            forged = copy.deepcopy(payload)
            if value is DELETE:
                del forged[field]
            else:
                forged[field] = value
            _forge(c, f"forge/{kind}/{field}/{label}", cert_path, inputs, forged)
    for label, edit in targeted.items():
        try:
            forged = edit(copy.deepcopy(payload))
        except (KeyError, IndexError, TypeError, AttributeError):
            # The valid payload no longer has the shape the edit expects.
            c.digests[f"forge/{kind}/{label}"] = "edit failed"
            continue
        _forge(c, f"forge/{kind}/{label}", cert_path, inputs, forged)


def _set(**fields):
    return lambda p: {**p, **fields}


def _edit(fn):
    """An edit that changes the payload in place."""
    def apply(p):
        fn(p)
        return p
    return apply


def forge_cases(c: Corpus) -> None:
    # dagger: nand on the affine fragment, lambda 2, blocks [[0, 1], [2], [3]].
    forge_sweep(c, "dagger", "cert_ultra_nand_xornot2_2.json",
                ["t_nand.json", "f_xornot2.json"], {
        "lambda_negative": _set(**{"lambda": -1}),
        "lambda_up": _set(**{"lambda": 3}),
        "arity_up": _set(arity=3),
        "size_up": _set(universe_size=3),
        "cover_merged": _edit(lambda p: p.update(cover=[sum(p["cover"], [])])),
        "cover_missing_point": _edit(lambda p: p.update(cover=p["cover"][:-1])),
        "cover_index_outside": _edit(lambda p: p["cover"][0].append(7)),
        "cover_empty_block": _edit(lambda p: p["cover"].append([])),
        "key_dropped": _edit(lambda p: p["interpolants"].pop("")),
        "key_extra": _edit(lambda p: p["interpolants"].update({"0,1,2": [0, 1, 1, 0]})),
        "key_out_of_range": _edit(lambda p: p["interpolants"].update(
            {"9": p["interpolants"].pop("0")})),
        "key_bad_spelling": _edit(lambda p: p["interpolants"].update(
            {"x": p["interpolants"].pop("0")})),
        "not_a_member": _edit(lambda p: p["interpolants"].update({"": [0, 0, 0, 1]})),
        "member_disagrees": _edit(lambda p: p["interpolants"].update({"0": [0, 0, 0, 0]})),
        "member_short": _edit(lambda p: p["interpolants"].update({"2": [0, 1]})),
        "member_outside": _edit(lambda p: p["interpolants"].update({"2": [0, 0, 0, 2]})),
    })
    # A target above the fragment's arity bound, with both digests recomputed.
    payload = {"lambda": 1, "arity": 3, "universe_size": 2, "cover": [list(range(8))],
               "interpolants": {"": MAJ["table"], "0": MAJ["table"]}}
    inputs = b"\0".join(Path(p).read_bytes() for p in ["t_maj.json", "f_and2.json"])
    body = {"kind": "dagger", "payload": payload,
            "inputs_digest": hashlib.sha256(inputs).hexdigest()}
    c.write("forged.json", {**body, "payload_digest": sha256(canonical(body))})
    c.verify("forge/dagger/target_above_bound", "forged.json", ["t_maj.json", "f_and2.json"])

    # bp_tree: and on four singleton blocks under majority.
    def child(p, path):
        node = p["tree"]
        for i in path:
            node = node["children"][i]
        return node

    forge_sweep(c, "bp_tree", "cert_bp_and4.json", ["bp_and4.json"], {
        "root_short": _edit(lambda p: p["tree"].update(blocks=[0, 1, 2])),
        "root_unsorted": _edit(lambda p: p["tree"].update(blocks=[3, 2, 1, 0])),
        "root_base": _edit(lambda p: p["tree"].update(base=True)),
        "child_blocks": _edit(lambda p: child(p, [0]).update(blocks=[0, 1, 3])),
        "child_outside": _edit(lambda p: child(p, [0]).update(blocks=[1, 2, 9])),
        "child_dropped": _edit(lambda p: p["tree"]["children"].pop()),
        "children_swapped": _edit(lambda p: p["tree"]["children"].reverse()),
        "base_unknown_key": _edit(lambda p: child(p, [0, 0]).update(base=True)),
        "leaf_not_base": _edit(lambda p: child(p, [0, 0]).update(base=False, op="h")),
        "table_flipped": _edit(lambda p: p.update(table=[1 - v for v in p["table"]])),
        "table_short": _set(table=[0, 0, 0]),
        "tree_not_object": _set(tree=[1]),
        "node_not_object": _edit(lambda p: p["tree"].update(children=[1, 2, 3])),
        "blocks_float": _edit(lambda p: p["tree"].update(blocks=[0, 1, 2, 3.0])),
    })

    # preservation_witness: and fails to preserve rho3.
    forge_sweep(c, "preservation_witness", "cert_ess_and.json", ["d_and.json"], {
        "operation_other": _edit(lambda p: p["operation"].update(table=[0, 1, 1, 1])),
        "operation_long": _edit(lambda p: p["operation"].update(table=[0, 0, 0, 1, 1])),
        "row_outside": _edit(lambda p: p["rows"][0].__setitem__(slice(None), [0, 1, 0])),
        "row_dropped": _edit(lambda p: p["rows"].pop()),
        "image_other": _edit(lambda p: p.update(image=[0, 0, 0])),
        "image_in_relation": _edit(lambda p: p["relation"]["tuples"].append(p["image"])),
        "relation_arity": _edit(lambda p: p["relation"].update(arity=2)),
        "relation_entry": _edit(lambda p: p["relation"]["tuples"].append([0, 0, 5])),
        "relation_no_tuples": _edit(lambda p: p["relation"].pop("tuples")),
    })

    # product_decomp: (and, xor) on 2 x 2.
    forge_sweep(c, "product_decomp", "cert_prod_prod22_22.json", ["d_prod22.json"], {
        "arity_down": _set(arity=1, factor_left=[0, 1], factor_right=[0, 1]),
        "sizes_swapped": _set(left_size=1, right_size=4),
        "sizes_up": _set(left_size=3, right_size=3),
        "left_flipped": _edit(lambda p: p.update(factor_left=[1 - v for v in p["factor_left"]])),
        "right_other": _set(factor_right=[0, 0, 0, 1]),
        "left_outside": _set(factor_left=[0, 0, 0, 2]),
    })

    # alt_cover: k = 2 on the window [0, 9) for the transposition (0 5).
    forge_sweep(c, "alt_cover", "cert_alt_2_0_5_9.json", [], {
        "a_equals_b": _set(a=5),
        "a_outside_first": _set(a=1, b=5),
        "small_block": _set(window=9, blocks=[[0, 5, 1], [2, 3], [4], [6, 7, 8]]),
        "overlap": _edit(lambda p: p["blocks"][1].append(0)),
        "gap": _edit(lambda p: p["blocks"][2].pop()),
        "outside": _edit(lambda p: p["blocks"][2].append(20)),
        "window_up": _set(window=10),
        "k_up": _set(k=3),
        "k_down": _set(k=1),
        "key_dropped": _edit(lambda p: p["interpolants"].pop("0,1")),
        "key_extra": _edit(lambda p: p["interpolants"].update({"0,1,2": {}})),
        "odd": _edit(lambda p: p["interpolants"].update({"1": {"2": 3, "3": 2}})),
        "disagrees": _edit(lambda p: p["interpolants"].update({"0": {}})),
        "not_bijection": _edit(lambda p: p["interpolants"].update({"1": {"2": 3}})),
        "block_float": _edit(lambda p: p["blocks"][0].append(2.0)),
        "empty_block": _edit(lambda p: p["blocks"].append([])),
    })

    # module_recovery: GF(2), dimension 3.
    def zero_t(p):
        dim = p["dim"]
        p["t"] = [[0] * dim for _ in range(dim)]
        p["recovered"] = p["r0"]
        return p

    forge_sweep(c, "module_recovery", "cert_mod_q2_d3_s1.json", ["mod_q2_d3_s1.json"], {
        "field_other": _set(field=3),
        "dim_other": _set(dim=2),
        "r0_flipped": _edit(lambda p: p["r0"][0].__setitem__(0, 1 - p["r0"][0][0])),
        "u_zero": _edit(lambda p: p.update(u=[[0] * len(r) for r in p["u"]])),
        "recovered_other": _edit(lambda p: p["recovered"][0].__setitem__(
            0, 1 - p["recovered"][0][0])),
        "t_zero": zero_t,
        "t_short": _edit(lambda p: p["t"].pop()),
        "t_two_by_two": _set(t=[[1, 0], [0, 1]]),
        "entry_outside": _edit(lambda p: p["u"][0].__setitem__(0, 2)),
        "u_coefficients_other": _edit(lambda p: p["u_coefficients"].__setitem__(
            0, 1 - p["u_coefficients"][0])),
    })


SECTIONS = (gen_cases, query_cases, ultra_cases, bp_cases, detect_cases, perm_cases,
            module_cases, verify_cases, forge_cases)


def run_corpus(workdir) -> dict[str, str]:
    """Digest of every case, run with workdir as the working directory."""
    c = Corpus()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for section in SECTIONS:
            section(c)
    finally:
        os.chdir(cwd)
    return c.digests


def changed_cases(digests: dict[str, str]) -> list[str]:
    """The case ids whose digest differs from, or is missing in, DIGESTS."""
    expected = json.loads(DIGESTS.read_text())
    return sorted(k for k in expected.keys() | digests.keys()
                  if expected.get(k) != digests.get(k))


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(tmp)
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    changed = changed_cases(digests)
    for case in changed:
        print(case)
    print(f"{len(changed)} of {len(digests)} cases differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
