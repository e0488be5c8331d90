"""Fuzz test of the input boundary through ``main``.

Tree docs, weight docs and backward-shift specs are drawn from a grammar
around the real schemas, with wrong types, NaN and infinities, and missing
and extra keys; numeric flags get negative, zero, NaN, infinite and
non-numeric values; input files go missing, turn into directories, hold
bytes that are not UTF-8 or JSON cut short.  Every input must end in one of
the documented exit codes (an argparse rejection counts as 2); an escaped
exception fails the test with its traceback.  The runs are derandomized and
bounded, so the suite stays deterministic and fast.
"""

import contextlib
import importlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeshift import cli, errors
from treeshift.cli import main
from treeshift.trees import FAMILY_TAGS

EXIT_CODES = {0, 2, 3, 4, 5, 6}
FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

FINITE_TREE = {"vertices": ["r", "a", "b", "c", "d", "e"],
               "edges": [["r", "a"], ["r", "b"], ["a", "c"], ["a", "d"], ["d", "e"]]}
TILDE = {"family": "tilde", "params": {}}
VERTICES = ["r", "a", "b", "c", "d", "e", "0", "1", "1'", "2'", "-1", "3"]

EXTREME = st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])
UNIT = st.floats(0.05, 1.0)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1))
ODD = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                st.sampled_from([0.0, -0.5, 1.5, 2.5, 1e300, 1e-300, math.nan]), JUNK)


def _wide(good):
    """``good``, or now and then a magnitude at the edge of the double range."""
    return st.one_of(good, good, good, EXTREME)


def _ordered(draw):
    low, high = draw(UNIT), draw(UNIT)
    return min(low, high), max(low, high)


@st.composite
def valid_weight_docs(draw):
    kind = draw(st.sampled_from(["map", "map-default", "constant", "exp-ray", "geometric",
                                 "step", "rays", "binary-spine", "hash-random"]))
    if kind.startswith("map"):
        keys = draw(st.lists(st.sampled_from(VERTICES), unique=True))
        doc = {"kind": "map", "values": {k: draw(UNIT) for k in keys}}
        if kind == "map-default":
            doc["default"] = draw(UNIT)
        return doc
    if kind == "constant":
        return {"kind": "constant", "value": draw(UNIT)}
    if kind == "exp-ray":
        params = {"base": draw(_wide(st.floats(1.05, 4.0))),
                  "start_level": draw(st.integers(-3, 3))}
    elif kind == "geometric":
        params = {"scale": draw(_wide(UNIT)), "ratio": draw(_wide(st.floats(0.5, 1.5)))}
    elif kind == "step":
        params = {"low": draw(UNIT), "high": draw(UNIT), "cut": draw(st.integers(-3, 3))}
    elif kind == "rays":
        params = {"spine": draw(UNIT), "primed": draw(UNIT)}
    elif kind == "hash-random":
        low, high = _ordered(draw)
        params = {"seed": draw(st.integers(0, 2 ** 31)), "low": low, "high": high}
    else:
        params = {}
    return {"kind": "family", "name": kind, "params": params}


@st.composite
def valid_backward_specs(draw):
    branches = draw(st.integers(1, 2))
    if draw(st.booleans()):
        weights = {"kind": "constant", "value": draw(UNIT)}
    else:
        low, high = _ordered(draw)
        weights = {"kind": "hash-random", "seed": draw(st.integers(0, 2 ** 31)),
                   "low": low, "high": high}
    zeros = draw(st.lists(st.tuples(st.integers(0, branches - 1), st.integers(0, 6)),
                          max_size=2))
    return {"branches": branches, "weights": weights, "zeros": [list(z) for z in zeros]}


def _objects(doc):
    """Every JSON object inside ``doc``, outermost first."""
    if isinstance(doc, dict):
        yield doc
        for value in doc.values():
            yield from _objects(value)


@st.composite
def mutated(draw, valid):
    """A valid doc, then up to three edits: a key dropped, an unknown key
    added, or a value replaced by an odd number or a value of the wrong type."""
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        objects = list(_objects(doc))
        edit = draw(st.sampled_from(["drop", "add", "retype", "replace-doc"]))
        target = draw(st.sampled_from(objects)) if objects else None
        if edit == "replace-doc" or target is None:
            doc = draw(st.one_of(ODD, st.just(doc)))
        elif edit == "add":
            target[draw(st.sampled_from(["extra", "kind", "value", "seed", "low"]))] = draw(
                st.one_of(UNIT, ODD))
        elif target:
            key = draw(st.sampled_from(sorted(target)))
            if edit == "drop":
                del target[key]
            else:
                target[key] = draw(ODD)
    return doc


@st.composite
def valid_tree_docs(draw):
    """A family with its params, or a finite tree on a few of ``VERTICES``;
    now and then one vertex or edge entry is replaced by an odd value."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(FAMILY_TAGS))
        params = {}
        if family == "comb" and draw(st.booleans()):
            params["primed_leaf"] = draw(st.integers(1, 3))
            if draw(st.booleans()):
                params["unprimed_leaf"] = params["primed_leaf"] + draw(st.integers(0, 2))
        return {"family": family, "params": params}
    names = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=6, unique=True))
    edges = [[draw(st.sampled_from(names[:i])), names[i]] for i in range(1, len(names))]
    doc = {"vertices": names, "edges": edges}
    if draw(st.booleans()):
        doc["root"] = names[0]
    if draw(st.integers(0, 3)) == 0:
        target = draw(st.sampled_from([names, edges] + edges))
        if target:
            target[draw(st.integers(0, len(target) - 1))] = draw(ODD)
    return doc


TREE_DOCS = mutated(valid_tree_docs())
WEIGHT_DOCS = mutated(valid_weight_docs())
BACKWARD_SPECS = mutated(valid_backward_specs())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "finite.json").write_text(json.dumps(FINITE_TREE))
    (path / "tilde.json").write_text(json.dumps(TILDE))
    (path / "binary.json").write_text(json.dumps({"family": "rootless-binary"}))
    (path / "half.json").write_text(json.dumps({"kind": "constant", "value": 0.5}))
    (path / "backward.json").write_text(json.dumps({"branches": 2}))
    return path


def _depth(command):
    """``--depth 16`` for a command that takes it: ``oracle`` and
    ``similarity`` reject the analysis flags."""
    return [] if command in ("oracle", "similarity") else ["--depth", "16"]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(doc=WEIGHT_DOCS)
def test_weight_docs_exit_with_a_documented_code(workdir, doc):
    weights = workdir / "weights.json"
    weights.write_text(json.dumps(doc))
    for tree, levels in (("finite.json", "0:3"), ("tilde.json", "-3:3")):
        for command in ("analyze", "asymptote", "adjoint-asymptote", "oracle", "similarity",
                        "cyclic"):
            code = _run([command, "--tree", str(workdir / tree), "--weights", str(weights),
                         f"--levels={levels}", *_depth(command)])
            assert code in EXIT_CODES, (command, tree, doc, code)


@FUZZ
@given(doc=BACKWARD_SPECS)
def test_backward_specs_exit_with_a_documented_code(workdir, doc):
    spec = workdir / "backward-fuzzed.json"  # backward.json stays the flag tests' fixture
    spec.write_text(json.dumps(doc))
    code = _run(["cyclic", "--backward", str(spec), "--schedule", "4", "--window-k", "8"])
    assert code in EXIT_CODES, (doc, code)


@FUZZ
@given(doc=TREE_DOCS)
def test_tree_docs_exit_with_a_documented_code(workdir, doc):
    tree = workdir / "tree.json"
    tree.write_text(json.dumps(doc))
    code = _run(["validate", "--tree", str(tree), "--levels=-3:3"])
    assert code in EXIT_CODES, ("validate", doc, code)
    for command in ("analyze", "asymptote", "oracle", "similarity", "cyclic"):
        code = _run([command, "--tree", str(tree), "--weights", str(workdir / "half.json"),
                     "--levels=-3:3", *_depth(command)])
        assert code in EXIT_CODES, (command, doc, code)


# -- numeric flags --------------------------------------------------------------

BAD_NUMBERS = st.sampled_from(["-1", "-0.5", "0", "0.0", "nan", "inf", "-inf", "1e999", "x",
                               "", "1.5", "1e-320"])


def _numbers(good):
    """A flag value: usually one in range, else negative, zero, NaN, an
    infinity, a fraction or not a number at all."""
    return st.one_of(good, BAD_NUMBERS)


def _level_range(pair):
    return f"{pair[0]}:{pair[1]}"


LEVELS = st.one_of(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(_level_range),
                   st.sampled_from(["abc", "3", ":", "1:x", "nan:1", "1.5:2", "0:inf"]))
TOLERANCE = _numbers(st.floats(1e-12, 1e-2).map(repr))
WINDOW_FLAGS = {"--levels": LEVELS, "--breadth": _numbers(st.integers(1, 8).map(str))}
ANALYSIS_FLAGS = {**WINDOW_FLAGS, "--depth": _numbers(st.integers(1, 64).map(str)),
                  "--tol": TOLERANCE, "--zero-th": _numbers(st.floats(0.0, 1e-2).map(repr))}
BACKWARD_FLAGS = {"--schedule": _numbers(st.integers(1, 24).map(str)),
                  "--window-k": _numbers(st.integers(0, 64).map(str))}


def _exit(argv):
    """(exit code, stderr) of ``main(argv)``; an argparse rejection is its
    ``SystemExit`` code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_documented(argv, code, err):
    """A documented exit code, and a stderr that fits it: nothing on success,
    argparse's message naming a flag, or one line naming the TreeShiftError
    whose exit code it is."""
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    elif err.startswith("usage:"):
        assert code == 2 and "error: argument --" in err, (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        error = getattr(errors, err.split(":")[1].strip(), None)
        assert isinstance(error, type) and issubclass(error, errors.TreeShiftError), (argv, err)
        assert error.exit_code == code, (argv, err)


@FUZZ
@given(command=st.sampled_from(["validate", "analyze", "asymptote", "adjoint-asymptote",
                                "oracle", "similarity", "cyclic"]),
       tree=st.sampled_from(["finite.json", "tilde.json", "binary.json"]),
       flags=st.fixed_dictionaries({}, optional=ANALYSIS_FLAGS))
def test_tree_flags_exit_with_a_documented_code(workdir, command, tree, flags):
    argv = [command, "--tree", str(workdir / tree)]
    if command in ("validate", "oracle", "similarity"):
        flags = {k: v for k, v in flags.items() if k in WINDOW_FLAGS}
    if command != "validate":
        argv += ["--weights", str(workdir / "half.json")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    _assert_documented(argv, *_exit(argv))


@FUZZ
@given(flags=st.fixed_dictionaries({}, optional=BACKWARD_FLAGS))
def test_backward_flags_exit_with_a_documented_code(workdir, flags):
    argv = ["cyclic", "--backward", str(workdir / "backward.json")]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    _assert_documented(argv, *_exit(argv))


# -- input files ------------------------------------------------------------------

GOOD_FILES = {"--tree": "tilde.json", "--weights": "half.json", "--backward": "backward.json"}
NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])


def _reading(workdir, slot, path):
    """An argv that reads ``path`` as its ``slot`` file and the good files for the rest."""
    if slot == "--backward":
        return ["cyclic", "--backward", str(path)]
    files = {**GOOD_FILES, slot: path}
    return ["analyze", "--tree", str(workdir / files["--tree"]),
            "--weights", str(workdir / files["--weights"])]


@FUZZ
@given(slot=st.sampled_from(sorted(GOOD_FILES)),
       how=st.sampled_from(["missing", "directory", "not-utf8", "truncated"]),
       data=st.data())
def test_unreadable_files_exit_2_with_a_typed_line(workdir, slot, how, data):
    text = (workdir / GOOD_FILES[slot]).read_bytes()
    cut = data.draw(st.integers(0, len(text) - 1))
    bad = workdir / "bad"
    if how == "missing":
        bad = workdir / "missing.json"
    elif how == "directory":
        bad = workdir
    elif how == "not-utf8":
        bad.write_bytes(text[:cut] + data.draw(NOT_UTF8) + text[cut:])
    else:
        bad.write_bytes(text[:cut])
    argv = _reading(workdir, slot, bad)
    code, err = _exit(argv)
    assert code == 2, (argv, err)
    name = "WeightError" if slot == "--weights" else "TreeSpecError"
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, (argv, err)
    # a file error names the path; a JSON error says where the text breaks
    assert (repr(str(bad)) if how != "truncated" else "is not valid JSON: ") in err, err


# The error class and the spec's name in each file slot's messages.
SPEC_OF = {"--tree": (errors.TreeSpecError, "a tree spec"),
           "--weights": (errors.WeightError, "a weight spec"),
           "--backward": (errors.TreeSpecError, "a backward shift spec")}


def _text_mode_error(path, slot):
    """The error line for the file at ``path`` in ``slot`` when its text is
    read in text mode, as ``open(path, encoding="utf-8").read()`` gives it."""
    error, what = SPEC_OF[slot]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(error) as info:
        errors.decoded(text, error, what)
    return f"error: {error.__name__}: {info.value}\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
@pytest.mark.parametrize("slot", sorted(GOOD_FILES))
def test_a_json_error_past_line_ends_is_placed_as_a_text_mode_read_places_it(
        workdir, slot, newline):
    """Each line end counts as one "\\n": the line, the column and the
    character offset are those of the text-mode read, not of the bytes."""
    doc = json.loads((workdir / GOOD_FILES[slot]).read_text())
    text = json.dumps(doc, indent=1)[:-1] + ",\n}"  # a trailing comma on a line of its own
    bad = workdir / "line-ends.json"
    bad.write_bytes(text.replace("\n", newline).encode())
    code, err = _exit(_reading(workdir, slot, bad))
    assert code == 2 and err == _text_mode_error(bad, slot)
    with pytest.raises(json.JSONDecodeError) as raw:
        json.loads(bad.read_bytes().decode())
    assert "line 1 " not in err and str(raw.value) not in err


@pytest.mark.parametrize("slot", sorted(GOOD_FILES))
def test_a_byte_order_mark_is_reported_as_before(workdir, slot):
    bad = workdir / "bom.json"
    bad.write_bytes(b"\xef\xbb\xbf" + (workdir / GOOD_FILES[slot]).read_bytes())
    error, what = SPEC_OF[slot]
    code, err = _exit(_reading(workdir, slot, bad))
    assert code == 2 and err == _text_mode_error(bad, slot) == (
        f"error: {error.__name__}: {what} is not valid JSON: Unexpected UTF-8 BOM "
        f"(decode using utf-8-sig): line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("slot", sorted(GOOD_FILES))
def test_bytes_that_are_not_utf8_are_named_so(workdir, slot):
    bad = workdir / "latin1.json"
    bad.write_bytes((workdir / GOOD_FILES[slot]).read_bytes()[:-1] + b' "\xe9"}')
    code, err = _exit(_reading(workdir, slot, bad))
    assert code == 2 and err == (f"error: {SPEC_OF[slot][0].__name__}: "
                                 f"cannot read {str(bad)!r}: not UTF-8 text\n")


def test_read_input_gives_the_text_of_a_text_mode_read(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes("a\r\nb\rc\n\r\r\nd\r\u00e9\r".encode())
    with open(path, encoding="utf-8") as fh:
        assert errors.read_input(path, errors.WeightError) == fh.read() == "a\nb\nc\n\n\nd\n\u00e9\n"


@pytest.mark.parametrize("doc, got", [(None, "null"), ("null", "null"), ("[1, 2]", "[1, 2]"),
                                      (3, "3"), ('"tilde"', '"tilde"'), ("true", "true")])
@pytest.mark.parametrize("reader, error, what", [
    ("treeshift.trees.tree_from_json", errors.TreeSpecError, "a tree spec"),
    ("treeshift.weights.weights_from_json", errors.WeightError, "a weight spec"),
    ("treeshift.cyclicity.backward_spec_from_json", errors.TreeSpecError,
     "a backward shift spec")])
def test_a_spec_that_is_not_a_json_object_is_named_by_its_kind(reader, error, what, doc, got):
    """Each spec reader rejects a doc, or JSON text, that is not an object
    with the one message shape: what the spec is, then the value as JSON."""
    module, _, name = reader.rpartition(".")
    with pytest.raises(error) as info:
        getattr(importlib.import_module(module), name)(doc)
    assert info.type is error and str(info.value) == f"{what} must be a JSON object, got {got}"


# -- anything else is a bug -------------------------------------------------------

def test_an_error_that_is_not_a_treeshift_error_propagates(workdir, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("not an input error")

    monkeypatch.setattr(cli, "alpha_profile", broken)
    with pytest.raises(KeyError, match="not an input error"):
        _run(["analyze", "--tree", str(workdir / "tilde.json"),
              "--weights", str(workdir / "half.json"), "--levels=-2:2"])


def test_the_good_files_are_never_overwritten(workdir):
    """The flag and unreadable-file tests read these fixtures after the doc
    fuzz has run, so the fuzzed docs must go to files of their own."""
    assert json.loads((workdir / "backward.json").read_text()) == {"branches": 2}
    assert json.loads((workdir / "half.json").read_text()) == {"kind": "constant", "value": 0.5}
    assert json.loads((workdir / "tilde.json").read_text()) == TILDE
