"""Command-line surface: exit codes, file round trips, reports."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import laxkit
from laxkit.algebra import mat_equal
from laxkit import cli
from laxkit.cli import main
from laxkit.lax_rational import build_lax
from laxkit.suite import block_example_divisor, trig_case_divisor, trig_n3_divisor
from laxkit.textio import matrix_from_json

TODA = {
    "n": 2,
    "mode": "rational",
    "points": [],
    "infinity": {"fundamental": [-1, 2]},
    "zero": None,
}
DST = {
    "n": 2,
    "mode": "rational",
    "points": [{"x": "x1", "coweight": {"fundamental": [0, 1]}}],
    "infinity": {"fundamental": [-1, 1]},
    "zero": None,
}
TRIG1 = {
    "n": 2,
    "mode": "trig",
    "points": [],
    "infinity": {"fundamental": [1, 0]},
    "zero": {"fundamental": [-2, 2]},
}
BAD = {
    "n": 2,
    "mode": "rational",
    "points": [],
    "infinity": {"fundamental": [0, 1]},
    "zero": None,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_linear_prints_matrix(tmp_path, capsys):
    path = _write(tmp_path, "toda.json", TODA)
    assert main(["linear", "--divisor", path]) == 0
    out = capsys.readouterr().out
    assert "z - p[1,1]" in out
    assert "e^{-q[1,1]}" in out


def test_qdet_commands(tmp_path, capsys):
    path = _write(tmp_path, "trig1.json", TRIG1)
    assert main(["qdet", "--divisor", path]) == 0
    assert capsys.readouterr().out.strip() == "z^2*v^-2"
    path2 = _write(tmp_path, "dst.json", DST)
    assert main(["qdet", "--divisor", path2]) == 0
    assert capsys.readouterr().out.strip() == "z - x[x1] + 1"


def test_qdet_of_trig_rank_three(tmp_path, capsys):
    # the closed form v^-4 (z - x1): mu+ = (1, 0, 0) gives (v^-4 z)^1 at the
    # first row argument, the index-2 point (1 - x1/z) at the last
    path = _write(tmp_path, "trig3.json", trig_n3_divisor().to_json())
    assert main(["qdet", "--divisor", path]) == 0
    assert capsys.readouterr().out.strip() == "z*v^-4 - v^-4*x[x1]"


def test_verify_rtt_roundtrip(tmp_path, capsys):
    dst = _write(tmp_path, "dst.json", DST)
    mat_path = str(tmp_path / "dst_mat.json")
    assert main(["build", "--divisor", dst, "--out", mat_path, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["verify-rtt", "--matrix", mat_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    # in-process verification agrees with the file route
    assert main(["verify-rtt", "--divisor", dst]) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report2 == report


def test_verify_rtt_flags_corruption(tmp_path, capsys):
    dst = _write(tmp_path, "dst.json", DST)
    mat_path = str(tmp_path / "mat.json")
    assert main(["build", "--divisor", dst, "--out", mat_path, "--quiet"]) == 0
    data = json.loads((tmp_path / "mat.json").read_text())
    data["entries"][1][0] = "(2) * e^{-q[1,1]}"  # hand-corrupted entry
    (tmp_path / "mat.json").write_text(json.dumps(data))
    capsys.readouterr()
    report_path = str(tmp_path / "report.json")
    code = main(["verify-rtt", "--matrix", mat_path, "--report", report_path])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is False and report["failures"]
    # each failure is [i, a, j, b]: the coefficient of E_ij (x) E_ab
    n = report["n"]
    assert all(len(f) == 4 and all(0 <= x < n for x in f) for f in report["failures"])


def test_inadmissible_divisor_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", BAD)
    assert main(["build", "--divisor", path]) == 2


def test_divisor_past_the_summand_bound_is_usage_error(tmp_path, capsys):
    # a fundamental coefficient of 2^40 at one point is refused when the
    # divisor is made
    big = _write(tmp_path, "big.json", dict(
        DST, points=[{"x": "x1", "coweight": {"fundamental": [2 ** 40, 1]}}]))
    start = time.perf_counter()
    assert main(["build", "--divisor", big]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("error:") and "Traceback" not in err


def test_a_label_with_unbalanced_brackets_is_usage_error(tmp_path, capsys):
    # a matrix file writes a label as x[label] and reads it back up to
    # the ] that balances the brackets, so a label without that balance
    # is refused when the divisor is made, before any file is written
    for label in ("x[", "x]", "]x["):
        bad = _write(tmp_path, "bad.json", dict(DST, points=[dict(DST["points"][0], x=label)]))
        assert main(["build", "--divisor", bad, "--out", str(tmp_path / "m.json")]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: point label {label!r} has unbalanced brackets\n"
        assert not (tmp_path / "m.json").exists()


# Usage errors a command finds after parsing: exit 2, nothing on stdout
# and the message on stderr, like every other exit-2 path.
COMMAND_USAGE_ERRORS = {
    "degenerate-rational": ("degeneration starts from a trig divisor",
                            ["degenerate", "--divisor", "{toda}"]),
    "coproduct-one-divisor": ("coproduct takes exactly two divisors",
                              ["coproduct", "--divisor", "{toda}"]),
    # refused before either matrix is built or the exchange check runs
    "coproduct-trig-generators": ("generator-level checks run in rational mode",
                                  ["coproduct", "--divisor", "{trig}", "--divisor", "{trig}",
                                   "--verify-generators"]),
}


@pytest.mark.parametrize("case", sorted(COMMAND_USAGE_ERRORS))
def test_command_usage_errors_go_to_stderr(case, tmp_path, capsys):
    message, argv = COMMAND_USAGE_ERRORS[case]
    paths = {
        "toda": _write(tmp_path, "toda.json", TODA),
        "trig": _write(tmp_path, "trig1.json", TRIG1),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_yang_baxter_command(capsys):
    assert main(["yang-baxter", "--variant", "rational", "--n", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gt_compare_command(capsys):
    assert main(["gt-compare", "--young", "2,0", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_limit_and_degenerate(tmp_path, capsys):
    dst = _write(tmp_path, "dst.json", DST)
    assert main(["limit", "--divisor", dst]) == 0
    out = capsys.readouterr().out
    assert "z - p[1,1]" in out
    trig = _write(tmp_path, "trig1.json", TRIG1)
    assert main(["degenerate", "--divisor", trig]) == 0
    out = capsys.readouterr().out
    assert "z - p[1,1]" in out


def test_degenerate_writes_the_rational_matrix(tmp_path):
    for k in range(1, 7):
        div = trig_case_divisor(k)
        path = _write(tmp_path, f"trig{k}.json", div.to_json())
        out = tmp_path / f"rational{k}.json"
        assert main(["degenerate", "--divisor", path, "--out", str(out), "--quiet"]) == 0
        got = matrix_from_json(json.loads(out.read_text(encoding="utf-8")))
        want = build_lax(div.merge_framings_at_infinity())
        assert mat_equal(got.entries, want.entries), k


def test_limit_without_finite_point_is_usage_error(tmp_path, capsys):
    # TODA has no finite point; a numeric point has no variable to send
    path = _write(tmp_path, "toda.json", TODA)
    assert main(["limit", "--divisor", path]) == 2
    assert "no finite points" in capsys.readouterr().err
    numeric = dict(DST, points=[dict(DST["points"][0], x="3")])
    path = _write(tmp_path, "dst3.json", numeric)
    assert main(["limit", "--divisor", path]) == 2
    assert "symbolic last point" in capsys.readouterr().err


def test_trig_limit_without_finite_point_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "trig1.json", TRIG1)
    numeric = {
        "n": 2,
        "mode": "trig",
        "points": [{"x": "3", "coweight": {"fundamental": [0, 1]}}],
        "infinity": {"fundamental": [-1, 0]},
        "zero": {"fundamental": [0, 1]},
    }
    path3 = _write(tmp_path, "trig3.json", numeric)
    for direction in ("zero", "infinity"):
        assert main(["limit", "--divisor", path, "--direction", direction]) == 2
        assert "no finite points" in capsys.readouterr().err
        assert main(["limit", "--divisor", path3, "--direction", direction]) == 2
        assert "symbolic last point" in capsys.readouterr().err


def test_rational_limit_to_zero_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "dst.json", DST)
    assert main(["limit", "--divisor", path, "--direction", "zero"]) == 2
    captured = capsys.readouterr()
    assert "rational divisors only degenerate at infinity" in captured.err
    assert captured.out == ""


def test_limit_of_a_point_with_two_summands(tmp_path, capsys):
    # one point x with fundamental [0, 2]: its whole coweight leaves
    for mode in ("rational", "trig"):
        payload = {
            "n": 2,
            "mode": mode,
            "points": [{"x": "x", "coweight": {"fundamental": [0, 2]}}],
            "infinity": {"fundamental": [-1, 0]},
            "zero": {"fundamental": [0, 0]} if mode == "trig" else None,
        }
        path = _write(tmp_path, f"{mode}02.json", payload)
        directions = ["infinity"] + (["zero"] if mode == "trig" else [])
        for direction in directions:
            out = tmp_path / f"{mode}-{direction}.json"
            argv = ["limit", "--divisor", path, "--direction", direction,
                    "--out", str(out), "--quiet"]
            assert main(argv) == 0, (mode, direction)
            data = json.loads(out.read_text(encoding="utf-8"))
            assert data["divisor"]["points"] == [], (mode, direction)


def test_coproduct_command(tmp_path, capsys):
    toda = _write(tmp_path, "toda.json", TODA)
    code = main(
        [
            "coproduct",
            "--divisor",
            toda,
            "--divisor",
            toda,
            "--verify-generators",
            "--quiet",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "exchange relation: PASS" in out
    assert "FAIL" not in out


def test_fuse_command(tmp_path, capsys):
    toda = _write(tmp_path, "toda.json", TODA)
    out_path = str(tmp_path / "fused.json")
    assert main(
        ["fuse", "--divisor", toda, "--divisor", toda, "--out", out_path, "--quiet"]
    ) == 0
    data = json.loads((tmp_path / "fused.json").read_text())
    assert len(data["signature"]["slot_counts"]) == 2


def test_build_output_independent_of_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(laxkit.__file__)))
    for name, div in (("block", block_example_divisor()), ("trig3", trig_n3_divisor())):
        path = _write(tmp_path, f"{name}.json", div.to_json())
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "laxkit.cli", "build", "--divisor", path,
                 "--out", str(out), "--quiet"],
                env=env, check=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# Malformed input: each row is (files to write, argv).  In argv, {name}
# stands for the path of the written file name.json and {tmp} for a
# directory.  Every row must exit 2 with a message and no traceback.
MISSING_MODE = {k: v for k, v in DST.items() if k != "mode"}


def _matrix(mode, entry):
    """A 2x2 matrix file over slot counts [[1]] with `entry` at (1,1)."""
    sig = {"n": 2, "mode": mode, "slot_counts": [[1]]}
    return {"m": {"signature": sig, "entries": [[entry, "0"], ["0", "(1)"]]}}


def _signed(**fields):
    """The 2x2 identity matrix file over slot counts [[1]], with the given
    signature fields replaced."""
    sig = {"n": 2, "mode": "rational", "slot_counts": [[1]], **fields}
    return {"m": {"signature": sig, "entries": [["(1)", "0"], ["0", "(1)"]]}}


MALFORMED = {
    "truncated-json": ({"d": '{"n": 2, "mode": "rational", "points": ['},
                       ["build", "--divisor", "{d}"]),
    "missing-mode": ({"d": MISSING_MODE}, ["build", "--divisor", "{d}"]),
    "n-not-integer": ({"d": dict(DST, n="x")}, ["build", "--divisor", "{d}"]),
    "rational-with-zero": ({"d": dict(TODA, zero={"fundamental": [0, 0]})},
                           ["build", "--divisor", "{d}"]),
    "short-coweight": ({"d": dict(TODA, infinity={"fundamental": [-1]})},
                       ["qdet", "--divisor", "{d}"]),
    "matrix-missing-signature": ({"m": {"entries": [["(1)"]]}},
                                 ["verify-rtt", "--matrix", "{m}"]),
    "matrix-truncated-json": ({"m": '{"signature": '},
                              ["verify-rtt", "--matrix", "{m}"]),
    "matrix-wrong-shape": (
        {"m": {"signature": {"n": 2, "mode": "rational", "slot_counts": [[0]]},
               "entries": [["(1)"]]}},
        ["verify-rtt", "--matrix", "{m}"],
    ),
    "matrix-shift-outside-signature": (
        {"m": {"signature": {"n": 2, "mode": "rational", "slot_counts": [[1]]},
               "entries": [["(1) * e^{q[5,7]}", "0"], ["0", "(1)"]]}},
        ["verify-rtt", "--matrix", "{m}"],
    ),
    "matrix-unclosed-label": (_matrix("rational", "(x[a)"),
                              ["verify-rtt", "--matrix", "{m}"]),
    "matrix-zero-denominator": (_matrix("rational", "((1) / ((0)))"),
                                ["verify-rtt", "--matrix", "{m}"]),
    "matrix-zero-fraction": (_matrix("rational", "(1/0)"),
                             ["verify-rtt", "--matrix", "{m}"]),
    "matrix-slot-variable-outside-signature": (
        _matrix("rational", "(p[5,7])"), ["verify-rtt", "--matrix", "{m}"]),
    "matrix-slot-variable-of-other-mode": (
        _matrix("rational", "(wh[1,1])"), ["verify-rtt", "--matrix", "{m}"]),
    # exponents and multiplicities must fit a 16-bit field, integers are
    # at most 4300 digits, and a denominator must split into atoms
    "matrix-exponent-too-large": (_matrix("rational", "(z^40000)"),
                                  ["verify-rtt", "--matrix", "{m}"]),
    "matrix-exponent-sum-too-large": (_matrix("rational", "(z^20000*z^20000)"),
                                      ["verify-rtt", "--matrix", "{m}"]),
    "matrix-unit-exponent-too-large": (_matrix("trig", "(v^-40000)"),
                                       ["verify-rtt", "--matrix", "{m}"]),
    "matrix-exponent-overflows-in-check": (_matrix("rational", "(z^20000)"),
                                           ["verify-rtt", "--matrix", "{m}"]),
    "matrix-integer-too-long": (_matrix("rational", "(" + "7" * 5000 + ")"),
                                ["verify-rtt", "--matrix", "{m}"]),
    "matrix-multiplicity-too-large": (
        _matrix("rational", "((1) / ((z - p[1,1])^40000))"),
        ["verify-rtt", "--matrix", "{m}"]),
    "matrix-multiplicity-zero": (_matrix("rational", "((1) / ((z - p[1,1])^0))"),
                                 ["verify-rtt", "--matrix", "{m}"]),
    "matrix-denominator-not-atoms": (
        _matrix("rational", "((1) / ((z^2*p[1,1] + z + 1)))"),
        ["verify-rtt", "--matrix", "{m}"]),
    # (z - 1)*(z - p[1,1]): a denominator factor is one atom, not a product
    "matrix-denominator-product-of-atoms": (
        _matrix("rational", "((1) / ((z^2 - z*p[1,1] - z + p[1,1])))"),
        ["verify-rtt", "--matrix", "{m}"]),
    # (z - 1)*(z + 1): a rational atom is a linear form
    "matrix-denominator-atom-not-linear": (_matrix("rational", "((1) / ((z^2 - 1)))"),
                                           ["verify-rtt", "--matrix", "{m}"]),
    # w is the second spectral parameter of the exchange relation
    "matrix-holds-w": (_matrix("rational", "(w)"), ["verify-rtt", "--matrix", "{m}"]),
    "matrix-holds-w-in-an-atom": (_matrix("rational", "((1) / ((w - z)))"),
                                  ["verify-rtt", "--matrix", "{m}"]),
    # a signature reads its integers as a divisor does: no floats, no bools
    "matrix-rank-float": (_signed(n=2.7), ["verify-rtt", "--matrix", "{m}"]),
    "matrix-rank-bool": (
        {"m": {"signature": {"n": True, "mode": "rational", "slot_counts": [[]]},
               "entries": [["(1)"]]}},
        ["verify-rtt", "--matrix", "{m}"]),
    "matrix-rank-0": (
        {"m": {"signature": {"n": 0, "mode": "rational", "slot_counts": []},
               "entries": []}},
        ["verify-rtt", "--matrix", "{m}"]),
    "matrix-slot-count-float": (_signed(slot_counts=[[1.9]]),
                                ["verify-rtt", "--matrix", "{m}"]),
    "matrix-slot-count-negative": (_signed(slot_counts=[[-1]]),
                                   ["verify-rtt", "--matrix", "{m}"]),
    "matrix-no-slot-vector": (_signed(slot_counts=[]), ["verify-rtt", "--matrix", "{m}"]),
    "matrix-points-not-a-list": (_signed(points="ab"), ["verify-rtt", "--matrix", "{m}"]),
    "matrix-divisor-of-other-mode": (
        {"m": dict(_signed()["m"], divisor=TRIG1)}, ["verify-rtt", "--matrix", "{m}"]),
    # an embedded divisor that is there is read, whatever its value
    "matrix-divisor-empty-list": (
        {"m": dict(_signed()["m"], divisor=[])}, ["verify-rtt", "--matrix", "{m}"]),
    "matrix-divisor-false": (
        {"m": dict(_signed()["m"], divisor=False)}, ["verify-rtt", "--matrix", "{m}"]),
    "verify-rtt-no-source": ({}, ["verify-rtt"]),
    "yang-baxter-rank-0": ({}, ["yang-baxter", "--n", "0"]),
    "yang-baxter-rank-negative": ({}, ["yang-baxter", "--n", "-1"]),
    "young-not-integer": ({}, ["gt-compare", "--young", "a", "--n", "2"]),
    "young-wrong-size": ({}, ["gt-compare", "--young", "3,1", "--n", "2"]),
    "young-increasing": ({}, ["gt-compare", "--young", "1,2", "--n", "2"]),
    "fuse-mixed-modes": ({"r": TODA, "t": TRIG1},
                         ["fuse", "--divisor", "{r}", "--divisor", "{t}"]),
    "coproduct-mixed-modes": ({"r": TODA, "t": TRIG1},
                              ["coproduct", "--divisor", "{r}", "--divisor", "{t}"]),
    "divisor-is-directory": ({}, ["build", "--divisor", "{tmp}"]),
    # the eps window is exact, so degenerate takes no expansion order
    "degenerate-order-flag": ({"t": TRIG1},
                              ["degenerate", "--divisor", "{t}", "--order", "2"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    files, argv = MALFORMED[case]
    paths = {"tmp": str(tmp_path)}
    for name, payload in files.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert "error:" in err
    assert "Traceback" not in err and "identity failure" not in err


def test_divisor_past_the_build_degree_fails_fast(tmp_path, capsys):
    # one point carrying [32767, 0] is inside MAX_SUMMANDS, so the divisor
    # is made, but multiplying out (z - x1)^32767 had not ended after
    # 100 s: every command that builds it refuses it at once (exit 2)
    from laxkit.coweight import MAX_BUILD_DEGREE, MAX_SUMMANDS

    k = MAX_SUMMANDS
    path = _write(tmp_path, "d.json", {
        "n": 2, "mode": "rational",
        "points": [{"x": "x1", "coweight": {"fundamental": [k, 0]}}],
        "infinity": {"fundamental": [-k, 0]}})
    for argv in (["build", "--raw"], ["verify-rtt"], ["qdet"],
                 ["limit", "--direction", "infinity"]):
        start = time.perf_counter()
        assert main([*argv, "--divisor", path]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        out, err = capsys.readouterr()
        assert not out and f"builds take at most {MAX_BUILD_DEGREE}" in err, argv


@pytest.mark.parametrize("mode", ["rational", "trig"])
@pytest.mark.parametrize("k", [5, 32767])
def test_divisor_past_the_slot_bound_fails_fast(k, mode, tmp_path, capsys):
    # slot counts (k,) with no point: k = 5 took build_lax 26 s and k = 6
    # had not ended after 100 s; every command that builds such a divisor
    # refuses it at once (exit 2), inside the 1 s the contract allows
    from laxkit.coweight import MAX_SLOTS

    path = _write(tmp_path, "d.json", {
        "n": 2, "mode": mode, "points": [], "infinity": {"fundamental": [-k, 2 * k]}})
    for argv in (["build"], ["build", "--raw"], ["verify-rtt"], ["qdet"],
                 ["coproduct", "--divisor", path]):
        start = time.perf_counter()
        assert main([*argv, "--divisor", path]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        out, err = capsys.readouterr()
        assert not out and f"at most {MAX_SLOTS} slots in a row" in err, argv


def test_high_multiplicity_matrix_fails_without_lifting(tmp_path, capsys):
    # (z - p[1,1])^2000 alone at its highest power in an exchange sum: the
    # sum has a pole there, so no numerator is lifted to the common
    # denominator (which took seconds); the verdict is the lifted one
    path = _write(tmp_path, "m.json", _matrix("rational", "((1) / ((z - p[1,1])^2000))")["m"])
    assert main(["verify-rtt", "--matrix", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == [[0, 1, 1, 0], [1, 0, 0, 1]] and not report["ok"]


# Rendered JSON of build, build --raw, linear, limit (both directions in
# trig) and degenerate, pinned byte for byte on four n = 2 divisors: the
# first of the rational and of the trig (2, 2) families, trig case 4 and a
# trig divisor with two slots, whose slot atoms such as
# v^2*w[1,2] - w[1,1] are not prime.  The outputs are the ones trial
# division by every atom gives, so a cancellation shortcut must
# reproduce them; a command missing for a divisor exits 2 there (no
# linear form, no zero limit or degeneration in rational mode).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)
GOLDEN_COMMANDS = {
    "build": ["build"],
    "build --raw": ["build", "--raw"],
    "linear": ["linear"],
    "limit": ["limit"],
    "limit --direction zero": ["limit", "--direction", "zero"],
    "degenerate": ["degenerate"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendered_outputs_match_golden(name, tmp_path, capsys):
    case = GOLDEN[name]
    path = _write(tmp_path, "divisor.json", case["divisor"])
    out = tmp_path / "out.json"
    for command, argv in GOLDEN_COMMANDS.items():
        code = main(argv + ["--divisor", path, "--out", str(out), "--quiet"])
        expected = case["outputs"].get(command)
        assert code == (2 if expected is None else 0), command
        if expected is not None:
            assert out.read_text(encoding="utf-8") == expected, command
            out.unlink()


# One parser per process: main() builds it on its first call and every
# later call reuses it, so no call may leave state in it for the next.


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    make_parser = cli.make_parser

    def counting():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "make_parser", counting)
    toda = _write(tmp_path, "toda.json", TODA)
    for _ in range(5):
        assert main(["qdet", "--divisor", toda]) == 0
        assert main(["linear", "--divisor", toda, "--quiet"]) == 0
        assert main(["yang-baxter", "--n", "0"]) == 2
    assert built == [1]


def test_append_does_not_accumulate_across_calls(tmp_path, capsys):
    a = _write(tmp_path, "a.json", TODA)
    b = _write(tmp_path, "b.json", DST)
    outputs = []
    for _ in range(2):
        assert main(["fuse", "--divisor", a, "--divisor", b]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "p[2;1,1]" in outputs[0] and "p[3;1,1]" not in outputs[0]


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(laxkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "laxkit.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


def test_call_after_usage_error_matches_fresh_process(tmp_path, capsys):
    toda = _write(tmp_path, "toda.json", TODA)
    argv = ["linear", "--divisor", toda]
    # two sources of a mutually exclusive group, then a missing argument
    assert main(["verify-rtt", "--divisor", toda, "--matrix", toda]) == 2
    assert main(["build"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv) == 0
    assert _fresh_process(argv) == (0, capsys.readouterr().out)


def test_help_does_not_disturb_the_next_call(tmp_path, capsys):
    toda = _write(tmp_path, "toda.json", TODA)
    argv = ["qdet", "--divisor", toda]
    assert main(argv) == 0
    before = capsys.readouterr().out
    for help_argv in (["--help"], ["build", "--help"]):
        assert main(help_argv) == 0
        assert "usage: lax" in capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == before


def test_a_point_listed_twice_holds_the_sum(tmp_path, capsys):
    # x listed twice with [0, 1] is the one point x with [0, 2]: the
    # divisor round-trips to that one point and lax build writes the
    # same bytes for both files
    once = dict(DST, points=[{"x": "x", "coweight": {"fundamental": [0, 2]}}],
                infinity={"fundamental": [-1, 0]})
    twice = dict(once, points=[{"x": "x", "coweight": {"fundamental": [0, 1]}}] * 2)
    assert laxkit.Divisor.from_json(twice).to_json() == once
    outs = []
    for name, payload in (("once", once), ("twice", twice)):
        out = tmp_path / f"{name}.out.json"
        argv = ["build", "--divisor", _write(tmp_path, f"{name}.json", payload),
                "--out", str(out), "--quiet"]
        assert main(argv) == 0, name
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
