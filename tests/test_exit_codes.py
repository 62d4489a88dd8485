"""Property test of the exit-code contract.

Whatever JSON the input files hold and whatever small integers (negatives
included) the numeric options take, cli.run returns 0, 1 or 2 without
raising and prints exactly one JSON object on stdout. Certificates for
verify are drawn two ways: as arbitrary JSON, and as a well-formed envelope
of a drawn kind around an arbitrary payload, with both digests matching the
drawn input files, so that every payload decoder and recheck is reached.

The test is derandomized: every run draws the same examples.
"""

import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clonelab import cli

# Keys the loaders read, so that drawn objects get past the first lookup.
KEYS = (
    "universe", "size", "labels", "operations", "arity", "table", "tuples", "arity_bound",
    "members", "generators", "f", "h", "cover", "base_interpolants", "add", "neg", "zero",
    "moved", "field", "dim", "interpolants", "blocks", "ring_span", "lambda",
    "universe_size", "tree", "children", "base", "window", "k", "a", "b", "rows", "image",
    "relation", "operation", "left_size", "right_size", "factor_left", "factor_right",
    "r0", "u", "t", "recovered", "1", "2", "0", "0,1", "",
)
SMALL_INTS = st.integers(-3, 4)
SCALARS = (
    st.none() | st.booleans() | SMALL_INTS | st.sampled_from([0.5, -1.0, 2.0])
    | st.sampled_from(["", "a", "0", "0,1"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=12,
)

# (words, input file options, integer options, output file options, text
# options). The options in REQUIRED, which argparse requires, are always
# given; each other option is given or left out.
COMMANDS = [
    (["gen"], ["--generators"], ["--arity-bound", "--member-cap"], ["--out"], []),
    (["member"], ["--op", "--fragment"], [], [], []),
    (["interp"], ["--target", "--fragment"], ["--lambda"], [], []),
    *[
        (["ultra", "--strategy", strategy], ["--target", "--fragment"],
         ["--lambda", "--max-blocks"], ["--cert"], [])
        for strategy in ("singletons", "equalizer_atoms", "exhaustive")
    ],
    (["bp"], ["--instance"], [], ["--cert"], []),
    *[
        (["detect", what], ["--op", "--group"], ["--left-size", "--right-size", "--ideal"],
         ["--cert"], [])
        for what in ("ess-unary", "product", "module", "gs")
    ],
    *[
        (["perm", what], ["--perm", "--map"], ["--k", "--a", "--b", "--window"], ["--cert"],
         ["--support"])
        for what in ("parity", "alt", "cover-witness", "altb-check")
    ],
    (["module", "recover"], ["--instance"], [], ["--cert"], []),
    (["module", "demo"], [], ["--field", "--dim", "--seed"], ["--out"], []),
]
REQUIRED = {"--generators", "--arity-bound", "--op", "--fragment", "--target", "--lambda",
            "--instance"}


def _write(directory, name, obj) -> str:
    path = directory / name
    path.write_text(json.dumps(obj))
    return str(path)


@st.composite
def command_argv(draw, directory):
    words, files, ints, outputs, texts = draw(st.sampled_from(COMMANDS))
    argv = list(words)
    for option in files + ints + outputs + texts:
        if option not in REQUIRED and not draw(st.booleans()):
            continue
        if option in files:
            value = _write(directory, option.strip("-") + ".json", draw(JSON))
        elif option in ints:
            value = str(draw(SMALL_INTS))
        elif option in outputs:
            value = str(directory / (option.strip("-") + ".out"))
        else:
            value = draw(st.sampled_from(["", "0", "0,1,2", "1,a", "-1"]))
        argv += [option, value]
    return argv


@st.composite
def verify_argv(draw, directory):
    inputs = [
        _write(directory, f"input{i}.json", draw(JSON))
        for i in range(draw(st.integers(0, 3)))
    ]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(cli.CERTIFICATES)))
        cert = cli.make_certificate(kind, draw(JSON), inputs)
    else:
        cert = draw(JSON)
    argv = ["verify", _write(directory, "cert.json", cert)]
    return argv + (["--inputs", *inputs] if inputs else [])


@settings(derandomize=True, database=None, max_examples=180, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_json_and_small_integers_give_one_json_object_and_exit_0_1_or_2(tmp_path, data):
    argv = data.draw(command_argv(tmp_path) | verify_argv(tmp_path), label="argv")
    out = io.StringIO()
    code = cli.run(argv, out=out)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
