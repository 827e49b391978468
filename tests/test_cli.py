"""Command-line interface: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from bpsing.cli import main
from bpsing.tilting import hom_matrix, predicted_cartan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe(capsys):
    code, out, err = run(capsys, "describe", "-p", "2")
    data = json.loads(out)
    assert code == 0
    assert data["cuboid_size"] == 1
    assert data["specials"]["delta"] == {"coeffs": [0], "level": 0}


def test_tilt_listing(capsys):
    code, out, _ = run(capsys, "tilt", "-p", "3,4", "--kind", "koszul")
    assert code == 0
    assert len(json.loads(out)["summands"]) == 6


def test_endo_pass(capsys):
    code, out, _ = run(capsys, "endo", "-p", "3,4", "--kind", "cuboid")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["hom_matrix"] == data["predicted_cartan"]


def test_endo_replicated_kind_parsing(capsys):
    code, out, _ = run(capsys, "endo", "-p", "3,4", "--kind", "replicated:2")
    assert code == 0 and json.loads(out)["equal"]


def test_endo_csv_matches_json(capsys):
    code, out, _ = run(capsys, "endo", "-p", "3,4", "--kind", "koszul", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    _, listing, _ = run(capsys, "tilt", "-p", "3,4", "--kind", "koszul")
    labels = json.loads(listing)["summands"]
    assert rows[0] == [""] + labels
    assert [r[0] for r in rows[1:]] == labels
    _, endo, _ = run(capsys, "endo", "-p", "3,4", "--kind", "koszul")
    assert [[int(x) for x in r[1:]] for r in rows[1:]] == json.loads(endo)["hom_matrix"]


@pytest.mark.parametrize(
    "endo, quiver",
    [
        (["-p", "3,4", "--kind", "cuboid"], ["-p", "3,4", "--algebra", "lambda:2,3"]),
        (["-p", "3,4,5", "--kind", "replicated:2"], ["-p", "3,4,5", "--algebra", "gamma:2"]),
    ],
)
def test_endo_predicts_the_quiver_algebra(capsys, endo, quiver):
    code, out, _ = run(capsys, "endo", *endo)
    assert code == 0
    predicted = json.loads(out)
    code, out, _ = run(capsys, "quiver", *quiver)
    assert code == 0
    algebra = json.loads(out)
    assert predicted["predicted_algebra"] == algebra["name"]
    assert predicted["predicted_cartan"] == algebra["cartan"] == predicted["hom_matrix"]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "-p", "3,4", "--kind", "cuboid", "--window", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_ladder(capsys):
    code, out, _ = run(capsys, "ladder", "-p", "3,4", "--split", "3")
    assert code == 0
    assert json.loads(out)["composite_zero"] is True


def test_glue(capsys):
    code, out, _ = run(capsys, "glue", "-p", "3,4", "--variant", "both")
    assert code == 0
    data = json.loads(out)
    assert data["cuboid"]["equals_cuboid"] and data["koszul"]["equals_koszul"]


_C4 = [1, 1, 0, 1, 1]
_C6 = [1, 1, 0, -1, 0, 1, 1]
_C8 = [1, 1, 0, -1, -1, -1, 0, 1, 1]
_C9 = [1, 1, 0, 0, -2, -2, 0, 0, 1, 1]
_C24 = [1, 1, 1, 0, -1, -2, -2, -1, 0, 1, 1, 1, 1, 1, 1, 1, 0, -1, -2, -2, -1, 0, 1, 1, 1]

# (case, algebra names, the row's one Coxeter polynomial), pinned so that
# the same wrong algebra in every row of a suite cannot pass
COXETER_SUITE_ROWS = {
    "happel-seidel": [
        ([3, 3], ["A_m(3)", "A_m(3)", "tensor"], _C4),
        ([3, 4], ["A_m(3)", "A_m(4)", "tensor"], _C6),
        ([3, 5], ["A_m(3)", "A_m(5)", "tensor"], _C8),
        ([4, 4], ["A_m(4)", "A_m(4)", "tensor"], _C9),
        ([2, 7], ["A_m(2)", "A_m(7)", "tensor"], [1, 1, 1, 1, 1, 1, 1]),
    ],
    "replicated": [
        ([3, 4], ["cuboid", "Gamma^1", "Gamma^2"], _C6),
        ([3, 4, 5], ["cuboid", "Gamma^1", "Gamma^2", "Gamma^3"], _C24),
        ([2, 3, 4], ["cuboid", "Gamma^1", "Gamma^2", "Gamma^3"], _C6),
    ],
    "dynkin": [
        ([2, 2], ["A2xA2", "D4"], _C4),
        ([2, 3], ["A2xA3", "E6"], _C6),
        ([2, 4], ["A2xA4", "E8"], _C8),
        ([2, 2], ["A2xA2", "A2^(1)"], _C4),
        ([2, 3], ["A2xA3", "A3^(1)"], _C6),
        ([3, 3], ["A3xA3", "A3^(2)"], _C9),
    ],
}


@pytest.mark.parametrize("suite", ["happel-seidel", "replicated", "dynkin"])
def test_coxeter_suites(capsys, suite):
    code, out, _ = run(capsys, "coxeter", "--suite", suite)
    assert code == 0
    data = json.loads(out)
    assert data["all_equal"] is True
    rows = [(c["case"], [p["name"] for p in c["polynomials"]], c["polynomials"]) for c in data["cases"]]
    assert [(case, names) for case, names, _ in rows] == [(case, names) for case, names, _ in COXETER_SUITE_ROWS[suite]]
    for (case, _, polys), (_, _, coeffs) in zip(rows, COXETER_SUITE_ROWS[suite]):
        assert all(p["coeffs"] == coeffs for p in polys), (suite, case)


def test_oracle_check_small(capsys):
    code, out, _ = run(capsys, "oracle-check", "-p", "2,2", "--shift-window", "1")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "quiver", "-p", "3,4", "--algebra", "lambda:2,2", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_quiver_gamma_one_weight_names_its_arrows(capsys):
    # the connecting arrows of one weight are the empty product, 1
    code, out, _ = run(capsys, "quiver", "-p", "5", "--algebra", "gamma:1")
    assert code == 0
    assert json.loads(out)["arrows"] == [["1", "(4)@1", "(4)@0"], ["1", "(4)@2", "(4)@1"], ["1", "(4)@3", "(4)@2"]]
    code, out, _ = run(capsys, "quiver", "-p", "5", "--algebra", "gamma:1", "--dot")
    assert code == 0
    assert out.count('[label="1"];') == 3 and 'label=""' not in out


def test_quiver_csv(capsys):
    code, out, _ = run(capsys, "quiver", "--algebra", "nakayama:3,2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == ",1,2,3"


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["describe"])
    assert exc.value.code == 2


def test_quiver_dot_and_csv_exclude_each_other(capsys):
    # --csv used to be dropped silently in favour of --dot
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "--algebra", "nakayama:3,2", "--dot", "--csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_window_zero_checks_shift_zero_only(capsys):
    # --window 0 used to fall back to the default window +-(2n + 4)
    code, out, _ = run(capsys, "verify", "-p", "3,4", "--window", "0")
    assert code == 0 and json.loads(out)["window"] == [0, 0]
    code, out, _ = run(capsys, "verify", "-p", "3,4")
    assert code == 0 and json.loads(out)["window"] == [-8, 8]


def test_weight_cap():
    with pytest.raises(SystemExit):
        main(["describe", "-p", "100,100"])


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "-p", "a,b"],
        ["describe", "-p", "1,3"],
        ["describe", "-p", "100,100"],
        ["ladder", "-p", "3,4", "--split", "9"],
        ["oracle-check", "-p", "2,2", "--modulus", "32004"],
        ["oracle-check", "-p", "2,2", "--modulus", "4294967311"],
        ["oracle-check", "-p", "3,4", "--pair", "foo", "bar"],
        ["glue", "-p", "3,5"],
        ["endo", "-p", "3,4", "--kind", "replicated:9"],
        ["endo", "-p", "3,4", "--kind", "nonsense"],
        ["quiver", "--algebra", "nakayama:3"],
        ["verify", "-p", "3,4", "--window", "-3"],
        ["oracle-check", "-p", "3,4", "--shift-window", "-1"],
        ["oracle-check", "-p", "3,4", "--pair", "U[1,2,1]", "U[1,1]"],
        ["oracle-check", "-p", "3,4", "--pair", "U[1,2](1,1,1;0)", "U[1,1]"],
        ["oracle-check", "-p", "3,4", "--pair", "U[1]", "U[1,1]"],
        ["quiver", "-p", "3,4", "--algebra", "lambda:1"],
        ["quiver", "-p", "3,4", "--algebra", "lambda:1,2,1"],
        ["quiver", "--algebra", "dynkin:"],
        ["quiver", "--algebra", "dynkin:E"],
        ["quiver", "--algebra", "dynkin:7"],
        ["quiver", "--algebra", "dynkin:A0"],
        ["oracle-check", "-p", "2,2", "--modulus", "abc"],
        ["tilt", "-p", "3,4", "--kind", "extended:1,1"],
    ],
)
def test_unusable_arguments_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("bpsing: error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        # coordinates are typed 1-based, and named so in the error
        (["endo", "-p", "3,4", "--kind", "replicated:9"], "family kind 'replicated:9': coordinate t 9 outside 1..2"),
        (["endo", "-p", "3,4", "--kind", "extended:9"], "family kind 'extended:9': coordinate 9 outside 1..2"),
        (["quiver", "--algebra", "dynkin:A0"], "algebra 'dynkin:A0': Dynkin rank 0 is below 1"),
        (["quiver", "-p", "3,4", "--algebra", "gamma:3"], "algebra 'gamma:3': coordinate t 3 outside 1..2"),
        (["quiver", "-p", "3,4", "--algebra", "gamma:0"], "algebra 'gamma:0': coordinate t 0 outside 1..2"),
        (["tilt", "-p", "3,4", "--kind", "extended:2,2"], "family kind 'extended:2,2': subset 2,2 repeats a coordinate"),
    ],
)
def test_out_of_range_arguments_say_so(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"bpsing: error: {message}\n"


def test_modulus_option_used(capsys):
    code, out, _ = run(capsys, "oracle-check", "-p", "2,2", "--shift-window", "0", "--modulus", "65537")
    assert code == 0 and json.loads(out)["modulus"] == 65537


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "endo", "-p", "3,3", "--kind", "cuboid")
    _, out2, _ = run(capsys, "endo", "-p", "3,3", "--kind", "cuboid")
    assert out1 == out2


def test_oracle_check_single_pair(capsys):
    code, out, _ = run(capsys, "oracle-check", "-p", "3,4", "--pair", "U[2,3]", "U[1,1]")
    assert code == 0
    data = json.loads(out)
    assert data["calculus"] == data["oracle"] == 1


@pytest.mark.parametrize("pair", [("0", "U[1,1]"), ("U[1,1]", "0")])
def test_oracle_check_pair_with_zero_object(capsys, pair):
    code, out, _ = run(capsys, "oracle-check", "-p", "3,4", "--pair", *pair)
    assert code == 0
    data = json.loads(out)
    assert data["calculus"] == data["oracle"] == 0 and data["agree"]


def test_oracle_check_pair_at_level_minus_24(capsys):
    # two differentials of about 10^8 cells, ranked from their nonzeros
    code, out, _ = run(capsys, "oracle-check", "-p", "3,4,5", "--pair", "U[1,1,1](0,0,0;-24)", "U[1,1,1]")
    assert code == 0
    data = json.loads(out)
    assert data["calculus"] == data["oracle"] == 0 and data["agree"] is True


def _readme_command_lines():
    # the bpsing lines of the README's sh blocks, without comments or redirects
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["bpsing"]:
                lines.append(argv[1 : argv.index(">") if ">" in argv else None])
    return lines


README_LINES = _readme_command_lines()


def test_readme_shows_every_command():
    assert {argv[0] for argv in README_LINES} == {"describe", "tilt", "endo", "verify", "ladder", "glue", "coxeter", "oracle-check", "quiver"}


# sha256 of repr((exit code, stdout, stderr)) of each README command,
# first 16 hex digits: a change to any output byte shows here
README_DIGESTS = {
    "describe -p 3,4": "f43d22e4ad8a9a26",
    "tilt -p 3,4 --kind koszul": "10b8807e5d2fd757",
    "endo -p 3,4 --kind cuboid": "09e71c1793577a33",
    "endo -p 3,4,5 --kind replicated:2": "1c575d1d7e218580",
    "verify -p 3,4 --kind extended:1 --window 6": "6d852dc67a002939",
    "ladder -p 3,4 --split 3": "fd4061cd41e0a053",
    "glue -p 3,4": "5d4b979191671063",
    "coxeter --suite happel-seidel": "9cd85ecdbb6e0b91",
    "coxeter --suite replicated": "4da994d2e3b14bad",
    "coxeter --suite dynkin": "e5ff9a43912419b4",
    "oracle-check -p 2,3": "73cbf7eff9e1ec40",
    "quiver -p 3,4 --algebra lambda:2,2 --dot": "cad9ab0fff3f88ab",
    "quiver --algebra nakayama:6,3 --csv": "c889401687f043c1",
}


@pytest.mark.parametrize("argv", README_LINES, ids=" ".join)
def test_readme_command_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert hashlib.sha256(repr((code, out, err)).encode()).hexdigest()[:16] == README_DIGESTS[" ".join(argv)]


def test_readme_library_sketch(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(sketch, namespace)
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["(2,3;-1)", "1"]
    assert (hom_matrix(namespace["fam"]) == predicted_cartan(namespace["fam"]).cartan).all()
