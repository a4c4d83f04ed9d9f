"""The CLI contract under seeded mutation of its input files.

Divisor files of suite divisors, and the matrix files `lax build --out`
writes for some of them, are mutated three ways: a value swapped for one
of another JSON type, a key dropped or added, characters edited inside a
string (the polynomial strings of a matrix file; the labels and the mode
of a divisor file).  Every case must end in exit 0, 1 or 2, with no
exception escaping cli.main, within a wall-time bound.  Each case draws
its mutation from its own seeded generator, so the case list is the same
in every run and under every hash seed.  Fixed bracket edits of a point
label check that a label `lax build` accepts reads back from the matrix
file it writes.
"""

import json
import random
import time

import pytest

from laxkit import cli, suite

SEED = 30
PER_KIND = 6
CASE_SECONDS = 1.0

DIVISORS = {
    "toda": suite.toda_divisor,
    "dst": lambda: suite.rtt_rational_divisors()[1],
    "trig1": lambda: suite.trig_case_divisor(1),
    "trig-pizero": suite.trig_pizero_divisor,
}
# divisors whose `lax build --out` matrix files are mutated too
MATRICES = ("toda", "trig1")

# swapped-in values stay small, and edits add no digit, so no exponent,
# coefficient or rank grows and every case fails (or passes) fast
VALUES = (None, True, False, 0, 1, -1, 0.5, "", "x", [], {}, [0], {"k": 1})
NEW_KEYS = ("extra", "n", "mode", "points", "x", "coweight", "fundamental", "zero",
            "infinity", "signature", "entries", "slot_counts")
EDIT_CHARS = "()[]{}^*+-/, zpqvwxe"
KINDS = ("swap", "key", "edit")


def _nodes(doc, path=()):
    """(path, value) of every node below the root, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _nodes(v, path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutate(doc, kind: str, rng: random.Random):
    """doc with one mutation of the given kind, and a line naming it."""
    nodes = list(_nodes(doc))
    if kind == "swap":
        path, old = rng.choice(nodes)
        new = rng.choice([v for v in VALUES if type(v) is not type(old)])
        _at(doc, path[:-1])[path[-1]] = new
        return f"{path} -> {new!r}"
    if kind == "key":
        dicts = [()] + [p for p, v in nodes if isinstance(v, dict)]
        where = _at(doc, rng.choice(dicts))
        if where and rng.random() < 0.5:
            key = rng.choice(sorted(where))
            del where[key]
            return f"dropped {key!r}"
        key = rng.choice(NEW_KEYS)
        where[key] = rng.choice(VALUES)
        return f"set {key!r} to {where[key]!r}"
    strings = [(p, v) for p, v in nodes if isinstance(v, str)]
    # a matrix file's polynomial strings are its entries
    path, text = rng.choice([s for s in strings if s[0][0] == "entries"] or strings)
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" or not text:
            text = text[:at] + rng.choice(EDIT_CHARS) + text[at:]
        elif op == "delete":
            at = min(at, len(text) - 1)
            text = text[:at] + text[at + 1:]
        else:
            at = min(at, len(text) - 1)
            text = text[:at] + rng.choice(EDIT_CHARS) + text[at + 1:]
    _at(doc, path[:-1])[path[-1]] = text
    return f"{path} -> {text!r}"


CASES = [(f"{src}:{name}", kind, k) for src, names in (("divisor", sorted(DIVISORS)),
                                                       ("matrix", MATRICES))
         for name in names for kind in KINDS for k in range(PER_KIND)]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The unmutated files: each divisor as JSON, and the matrix files
    `lax build --out` writes for the divisors of MATRICES."""
    tmp = tmp_path_factory.mktemp("originals")
    out = {}
    for name, make in DIVISORS.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(make().to_json()), encoding="utf-8")
        out[f"divisor:{name}"] = path.read_text(encoding="utf-8")
        if name in MATRICES:
            mat = tmp / f"{name}.matrix.json"
            assert cli.main(["build", "--divisor", str(path), "--out", str(mat), "--quiet"]) == 0
            out[f"matrix:{name}"] = mat.read_text(encoding="utf-8")
    return out


# bracket edits of the label of a divisor's first point: a matrix file
# writes the label as x[label], so a label `lax build` accepts must be
# read back from the file it writes, and one whose brackets do not
# balance is refused (exit 2) when the divisor is made
LABEL_EDITS = {"[": False, "]": False, "][": False, "[[]": False, "[]": True, "[a]": True}
LABELLED = ("dst", "trig-pizero")


@pytest.mark.parametrize("name", LABELLED)
@pytest.mark.parametrize("edit", sorted(LABEL_EDITS))
def test_a_label_that_builds_reads_back(name, edit, originals, tmp_path, capsys):
    doc = json.loads(originals[f"divisor:{name}"])
    label = doc["points"][0]["x"] + edit
    doc["points"][0]["x"] = label
    path, matrix = tmp_path / "input.json", tmp_path / "matrix.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["build", "--divisor", str(path), "--raw", "--out", str(matrix), "--quiet"])
    if not LABEL_EDITS[edit]:
        assert code == 2 and "unbalanced brackets" in capsys.readouterr().err
        return
    assert code == 0
    assert cli.main(["verify-rtt", "--matrix", str(matrix)]) == 0
    assert f"x[{label}]" in matrix.read_text(encoding="utf-8")
    capsys.readouterr()


@pytest.mark.parametrize("base,kind,k", CASES, ids=[f"{b}-{t}-{k}" for b, t, k in CASES])
def test_mutated_input_keeps_the_exit_contract(base, kind, k, originals, tmp_path, capsys):
    rng = random.Random(SEED * 1000 + CASES.index((base, kind, k)))
    doc = json.loads(originals[base])
    what = _mutate(doc, kind, rng)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if base.startswith("divisor:"):
        argv = ["build", "--divisor", str(path), "--quiet"]
    else:
        argv = ["verify-rtt", "--matrix", str(path)]
    start = time.perf_counter()
    code = cli.main(argv)  # an exception escaping main fails the case
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2), what
    assert elapsed < CASE_SECONDS, (what, elapsed)
