import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cdgacalc import cli
from cdgacalc.algebra import AlgebraError
from cdgacalc.cli import main
from cdgacalc.engine import MAX_DEGREE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_table_output(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--space", "P2", "--r", "2",
                             "--c", "1", "--max-degree", "6")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert lines[0] == "model: A2(P2, c=x)"
    dims = [int(line.split()[1]) for line in lines[2:]]
    assert dims == [1, 1, 2, 3, 1, 4, 5]


def test_eight_points_on_p2_match_the_eager_output_lazily(capsys,
                                                          monkeypatch):
    # the golden is the stdout of the eager build, which filled all 6^8 =
    # 1,679,616 nonzero products of the tensor power (~40 s, 1.3 GB); the
    # lazy view computes only the pairs the slices to degree 6 meet
    built = []
    build = cli._build_model
    monkeypatch.setattr(cli, "_build_model",
                        lambda args: built.append(build(args)) or built[-1])
    code, out, err = run_cli(capsys, "cohomology", "--space", "P2", "--r",
                             "8", "--max-degree", "6", "--by-weight")
    assert code == 0 and not err
    golden = Path(__file__).parent / "data" / "p2_r8_cohomology_by_weight.txt"
    assert out == golden.read_text(encoding="utf-8")
    tensor = built[0].context.base
    assert tensor.dim == 3 ** 8
    assert len(tensor.table) < 5000


@pytest.mark.parametrize("golden, argv", [
    ("p1_r3_configuration_cohomology.json",
     "cohomology --space P1 --r 3 --model C --max-degree 5 --format json"),
    ("p2_r2_twisted_d2_cohomology_by_weight.txt",
     "cohomology --space P2 --r 2 --model AL --d 2 --max-degree 6 "
     "--by-weight"),
    ("s1_r3_verify.txt", "verify --space S1 --r 3 --max-degree 6"),
    # recorded before the free exterior factors were split off: on AL L^0
    # over S1 alpha_i has d = 0 but S_2 moves it; on AL L^2 over P1
    # e[X] = 0 and s[1] stays; on P3 s[1] splits off
    ("s1_r2_twisted_d0_trivial.txt",
     "invariants --space S1 --r 2 --model AL --d 0 --max-degree 5 "
     "--character trivial"),
    ("s1_r2_twisted_d0_sign.txt",
     "invariants --space S1 --r 2 --model AL --d 0 --max-degree 5 "
     "--character sign"),
    ("p1_r2_twisted_d2_cohomology_by_weight.txt",
     "cohomology --space P1 --r 2 --model AL --d 2 --max-degree 6 "
     "--by-weight"),
    ("p3_r2_cohomology_by_weight.json",
     "cohomology --space P3 --r 2 --max-degree 7 --by-weight --format json"),
])
def test_model_families_print_their_golden_stdout(capsys, golden, argv):
    # the model line and the JSON model fields, not only the dims
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and not err
    assert out == (Path(__file__).parent / "data" / golden).read_text(
        encoding="utf-8")


def test_cohomology_json_output(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--space", "P1", "--r", "2",
                           "--max-degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["result"]["dims"] == [1, 2, 2, 3, 4]
    assert doc["computed_range"]["max_degree"] == 4
    assert all(len(row) == 3 for row in doc["result"]["entries"])


def test_cohomology_csv_output(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--space", "P1", "--r", "1",
                           "--max-degree", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,weight,dim"
    assert lines[1] == "0,0,1"


def test_output_deterministic_across_runs(capsys):
    outputs = []
    for _ in range(3):
        code, out, _ = run_cli(capsys, "cohomology", "--space", "P1xP1",
                               "--r", "2", "--c", "[1:1]", "--max-degree", "5",
                               "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_configuration_model_flag(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--space", "P1", "--r", "3",
                           "--model", "C", "--max-degree", "4")
    assert code == 0
    dims = [int(line.split()[1]) for line in out.strip().splitlines()[2:]]
    assert dims == [1, 0, 0, 1, 0]


def test_twisted_model_flag(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--space", "P2", "--r", "1",
                           "--model", "AL", "--d", "2", "--max-degree", "4")
    assert code == 0
    dims = [int(line.split()[1]) for line in out.strip().splitlines()[2:]]
    assert dims == [1, 1, 1, 2, 1]


def test_euler_command(capsys):
    code, out, _ = run_cli(capsys, "euler", "--space", "P1", "--r", "2",
                           "--model", "C", "--w-max", "6")
    assert code == 0
    assert "1 + w^2" in out


def test_series_commands(capsys):
    code, out, _ = run_cli(capsys, "series", "--space", "P2", "--kind", "rho",
                           "--max", "12")
    assert code == 0 and out.strip().splitlines()[-1] == "0"
    code, out, _ = run_cli(capsys, "series", "--space", "P1", "--kind", "pr",
                           "--r", "2", "--max", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,1"
    assert out.splitlines()[3] == "2,-2"


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--space", "P1", "--r", "2",
                           "--max-degree", "4", "--subgroup", "full")
    assert code == 0
    dims = [int(line.split()[1]) for line in out.strip().splitlines()[2:]]
    assert dims == [1, 2, 1, 1, 3]
    code, out, _ = run_cli(capsys, "invariants", "--space", "P1", "--r", "2",
                           "--max-degree", "4", "--subgroup", "21",
                           "--character", "sign")
    assert code == 0
    dims = [int(line.split()[1]) for line in out.strip().splitlines()[2:]]
    assert dims == [0, 0, 1, 2, 1]


def test_invariants_sign_json_stdout(capsys):
    code, out, err = run_cli(capsys, "invariants", "--space", "P2", "--r",
                             "3", "--c=-8/5", "--max-degree", "7",
                             "--subgroup", "full", "--character", "sign",
                             "--format", "json")
    assert code == 0 and not err
    expected = {
        "command": "invariants",
        "computed_range": {"by_weight": True, "max_degree": 7},
        "model": {"c": "-8/5x", "character": "sign", "model": "A",
                  "name": "A3(P2, c=-8/5x)", "r": "3", "space": "P2",
                  "subgroup_order": "6"},
        "result": {"dims": [0, 0, 0, 0, 0, 0, 1, 1],
                   "entries": [[6, 8, 1], [7, 10, 1]]},
        "schema": 1,
        "weights_convention": "generator weights: G,alpha 2n; eta 2n+2; "
                              "shifted class of degree-i base class i+2",
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_invariants_sign_table_stdout(capsys):
    code, out, err = run_cli(capsys, "invariants", "--space", "S1", "--r",
                             "3", "--max-degree", "7", "--subgroup", "full",
                             "--character", "sign")
    assert code == 0 and not err
    assert out == ("model: A3(S1, c=X)\n"
                   "  i    dim\n"
                   "  0      0\n"
                   "  1      0\n"
                   "  2      3\n"
                   "  3     10\n"
                   "  4     20\n"
                   "  5     39\n"
                   "  6     73\n"
                   "  7    119\n")


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--space", "P1", "--r", "2",
                           "--max-degree", "6")
    assert code == 0
    assert "ok: d^2 = 0" in out


def test_negative_c_as_separate_token(capsys):
    argv = ["cohomology", "--space", "P3", "--r", "2", "--max-degree", "3"]
    joined = run_cli(capsys, *argv, "--c=-1/2")
    separate = run_cli(capsys, *argv, "--c", "-1/2")
    assert joined[0] == 0 and joined[1]
    assert separate[:2] == joined[:2]


def test_product_class_name_reads_one_way(capsys):
    # on a product base a coefficient meets a label that starts with a
    # digit: 2/3 times 1⊗x, not 2/31 times ⊗x
    code, out, err = run_cli(capsys, "cohomology", "--space", "P1xP1",
                             "--r", "2", "--c=[2/3:-5/2]", "--max-degree", "1",
                             "--format", "json")
    assert code == 0 and not err
    model = json.loads(out)["model"]
    assert model["c"] == "2/3·1⊗x-5/2·x⊗1"
    assert model["name"] == "A2(P1xP1, c=2/3·1⊗x-5/2·x⊗1)"
    # unit coefficients and single-factor bases print as they did
    for space, c, name in (("P1xP1", "[1:1]", "A2(P1xP1, c=1⊗x+x⊗1)"),
                           ("P2", "-1/2", "A2(P2, c=-1/2x)")):
        code, out, _ = run_cli(capsys, "cohomology", "--space", space,
                               "--r", "2", f"--c={c}", "--max-degree", "0")
        assert code == 0 and out.splitlines()[0] == f"model: {name}"


def test_bad_space_exits_2(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--space", "nope",
                             "--r", "2", "--max-degree", "4")
    assert code == 2
    assert err.startswith("cdgacalc: error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("space", ["P99999999", "S1xP99", "S64", "P127xP1"])
def test_oversized_space_exits_2_before_building(space):
    # dim H*(X) is read off the specification; a base this large would
    # take minutes to hours to build
    code, err = _run_quietly(["cohomology", "--space", space, "--r", "2",
                              "--max-degree", "2"])
    _assert_rejected(code, err)
    assert "above the limit of 128" in err


@pytest.mark.parametrize("argv", [
    # dim H*(X)^r is read off the base before the tensor power is built
    "cohomology --space P2 --r 30 --max-degree 2",
    "cohomology --space P1 --r 40 --max-degree 2",
    # S_12 is refused by its order; the two words generate S_10, which is
    # refused as soon as the closure passes 9! elements
    "invariants --space P1 --r 12 --max-degree 1",
    "invariants --space P1 --r 12 --max-degree 1 --subgroup full",
    "invariants --space P1 --r 10 --max-degree 1 --subgroup "
    "2.1.3.4.5.6.7.8.9.10,2.3.4.5.6.7.8.9.10.1",
])
def test_oversized_power_or_group_exits_2_at_once(argv):
    start = time.perf_counter()
    code, err = _run_quietly(argv.split())
    _assert_rejected(code, err)
    assert "above the limit" in err or "than the limit" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv, what", [
    # each degree or weight up to the bound is walked, so these ran for
    # minutes
    ("cohomology --space P2 --r 2 --max-degree 100000",
     "cohomology: max_degree"),
    ("euler --space P1 --r 2 --w-max 100000", "weightwise_euler: w_max"),
    ("verify --space P2 --r 2 --max-degree 100000", "verify: max_degree"),
    ("invariants --space P2 --r 2 --max-degree 100000",
     "isotypic_cohomology: max_degree"),
])
def test_runaway_range_exits_2_at_once(argv, what):
    start = time.perf_counter()
    code, err = _run_quietly(argv.split())
    _assert_rejected(code, err)
    assert err == (f"cdgacalc: error: {what} = 100000 is above the limit "
                   f"of {MAX_DEGREE}\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("kind", ["pu-weight", "pu-degree", "pr", "rho",
                                  "r1"])
def test_series_truncation_is_bounded(kind, capsys):
    # the series products are quadratic in the truncation: --kind pr at
    # P2 r=3 took 2.6 s at --max 10000 and ran past 30 s at 100000
    argv = ["series", "--space", "P2", "--kind", kind, "--r", "3"]
    for top in (MAX_DEGREE + 1, 100000):
        start = time.perf_counter()
        code, err = _run_quietly(argv + ["--max", str(top)])
        _assert_rejected(code, err)
        assert err == (f"cdgacalc: error: series truncation = {top} is "
                       f"above the limit of {MAX_DEGREE}\n")
        assert time.perf_counter() - start < 1
    code, out, err = run_cli(capsys, *argv, "--max", str(MAX_DEGREE),
                             "--format", "json")
    assert code == 0 and not err
    assert len(json.loads(out)["result"]["coefficients"]) == MAX_DEGREE + 1


def test_invalid_custom_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "n": 1,
        "basis": [{"label": "1", "degree": 0}, {"label": "u", "degree": 1},
                  {"label": "v", "degree": 1}, {"label": "w", "degree": 2}],
        "unit": "1", "fundamental": "w",
        "products": [{"left": "u", "right": "v", "value": []}],
    }))
    code, out, err = run_cli(capsys, "cohomology", "--space",
                             f"custom:{bad}", "--r", "1", "--max-degree", "2")
    assert code == 2
    assert "pairing" in err


def test_r1_series_on_a_point_exits_2_naming_alpha(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({
        "name": "point", "n": 0, "basis": [{"label": "1", "degree": 0}],
        "unit": "1", "fundamental": "1"}))
    code, out, err = run_cli(capsys, "series", "--kind", "r1", "--space",
                             f"custom:{point}", "--max", "4")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1
    assert "alpha would have degree 2n - 1 = -1" in err


def test_running_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    # exit 1 is kept for verification failures; the failing allocation is
    # simulated, not made
    def build(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_build_model", build)
    code, out, err = run_cli(capsys, "cohomology", "--space", "P1", "--r",
                             "17", "--max-degree", "10")
    assert code == 2 and not out
    assert err == ("cdgacalc: error: the request is too large for the "
                   "available memory\n")
    assert "Traceback" not in err


P1_CLONE = {
    "name": "clone", "n": 1,
    "basis": [{"label": "1", "degree": 0}, {"label": "h", "degree": 2}],
    "unit": "1", "fundamental": "h",
    "products": [{"left": "h", "right": "h", "value": []}],
}

# odd classes a1, b1: the sign action on the model meets Koszul signs
S1_CLONE = {
    "name": "clone", "n": 1,
    "basis": [{"label": "1", "degree": 0}, {"label": "a1", "degree": 1},
              {"label": "b1", "degree": 1}, {"label": "X", "degree": 2}],
    "unit": "1", "fundamental": "X",
    "products": [{"left": "a1", "right": "b1", "value": [["X", "1"]]},
                 {"left": "a1", "right": "a1", "value": []},
                 {"left": "b1", "right": "b1", "value": []}],
}


@pytest.mark.parametrize("doc, space, argv", [
    (P1_CLONE, "P1", ["cohomology", "--r", "2", "--c", "1",
                      "--max-degree", "5", "--format", "csv"]),
    (S1_CLONE, "S1", ["invariants", "--r", "2", "--character", "sign",
                      "--max-degree", "5", "--by-weight"]),
], ids=["P1", "S1"])
def test_custom_space_matches_builtin(tmp_path, capsys, doc, space, argv):
    path = tmp_path / "clone.json"
    path.write_text(json.dumps(doc))
    code, out_custom, _ = run_cli(capsys, *argv, "--space", f"custom:{path}")
    assert code == 0
    _, out_builtin, _ = run_cli(capsys, *argv, "--space", space)

    def without_model(out):
        return [ln for ln in out.splitlines() if not ln.startswith("model:")]
    assert without_model(out_custom) == without_model(out_builtin)


# H*(P^2) with "x⊗x" as the label of x^2: in the tensor square the pairs
# (x, x⊗x) and (x⊗x, x) must keep distinct labels
TENSOR_LABEL_P2 = {
    "name": "clone", "n": 2,
    "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2},
              {"label": "x⊗x", "degree": 4}],
    "unit": "1", "fundamental": "x⊗x",
    "products": [["x", "x", [["x⊗x", "1"]]]],
}


def test_custom_labels_holding_the_tensor_sign(tmp_path, capsys):
    path = tmp_path / "clone.json"
    path.write_text(json.dumps(TENSOR_LABEL_P2, ensure_ascii=False),
                    encoding="utf-8")
    argv = ["cohomology", "--r", "2", "--max-degree", "6"]
    code, out_custom, err = run_cli(capsys, *argv, "--space", f"custom:{path}")
    assert code == 0 and not err
    _, out_builtin, _ = run_cli(capsys, *argv, "--space", "P2")
    assert out_custom.splitlines()[1:] == out_builtin.splitlines()[1:]


def test_invariants_rejects_bad_subgroup_before_computing(monkeypatch,
                                                          capsys):
    def verify(*args):
        raise AssertionError("the model was verified before --subgroup")
    monkeypatch.setattr(cli, "verify_d_squared", verify)
    code, out, err = run_cli(capsys, "invariants", "--space", "S1", "--r",
                             "3", "--max-degree", "7", "--subgroup", "112")
    assert code == 2 and not out
    assert err.splitlines() == [
        "cdgacalc: error: subgroup word '112' is not a permutation of 1..3"]


def test_subgroup_words_with_dot_separated_images():
    swap10 = (1, 0) + tuple(range(2, 10))
    assert cli._parse_subgroup("2.1.3.4.5.6.7.8.9.10", 10) \
        == [tuple(range(10)), swap10]
    # digit words are read as before; for r <= 9 both spellings agree
    assert cli._parse_subgroup("231", 3) == cli._parse_subgroup("2.3.1", 3)
    assert len(cli._parse_subgroup("231,213", 3)) == 6
    for word, r in (("2.1.3", 10), ("2134567891", 10), ("2..1", 3),
                    ("2.1.x", 3), ("²1", 2), ("1.1", 2)):
        with pytest.raises(AlgebraError):
            cli._parse_subgroup(word, r)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--space", "P1", "--r", "1", "--max-degree", "3",
     "--threads", "2"],
    ["table1", "--threads", "1"],
])
def test_threads_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert captured.err.startswith("usage: cdgacalc")
    assert "unrecognized arguments: --threads" in captured.err


def test_thread_environment_variable_is_not_read(monkeypatch, capsys):
    argv = ("cohomology", "--space", "P1", "--r", "2", "--max-degree", "4")
    monkeypatch.delenv("CDGACALC_THREADS", raising=False)
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("CDGACALC_THREADS", "zap")
    assert run_cli(capsys, *argv) == plain
    assert plain[0] == 0 and not plain[2]


def test_cohomology_skew_product_example(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--space", "P1xP1",
                           "--r", "2", "--c", "[1:0]", "--max-degree", "10",
                           "--format", "json")
    assert code == 0
    dims = json.loads(out)["result"]["dims"]
    assert dims[9] == 19 and dims[10] == 17


def test_table1_exits_zero_when_all_match(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "all 44 entries match" in out


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _subprocess_env():
    """The environment with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cdgacalc.cli", "series", "--space", "P1",
         "--kind", "pu-degree", "--max", "4"],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("1 + t")


def test_package_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cdgacalc", "series", "--space", "P1",
         "--kind", "pu-weight", "--max", "4"],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("model: space=P1, kind=pu-weight\n"
                           "1 - w^2 - w^4\n")


def test_closed_stdout_exits_141_without_a_message():
    # the reader goes away before the first write, as `| head -c 0` would:
    # not invalid input, and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "cdgacalc", "table1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
        proc.kill()
    assert (code, err) == (141, b"")


def test_verify_negative_max_degree_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "cdgacalc", "verify", "--space", "P2", "--r",
         "2", "--max-degree", "-2"],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.splitlines() == [
        "cdgacalc: error: verify: max_degree must be >= 0"]


def test_invariants_negative_max_degree_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "cdgacalc", "invariants", "--space", "P2",
         "--r", "2", "--max-degree", "-1"],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.splitlines() == [
        "cdgacalc: error: isotypic_cohomology: max_degree must be >= 0"]


# -- input contract: malformed input exits 2 with one line, no traceback -----

P1_DOC = {
    "name": "p1", "n": 1,
    "basis": [{"label": "1", "degree": 0}, {"label": "h", "degree": 2}],
    "unit": "1", "fundamental": "h",
    "products": [{"left": "h", "right": "h", "value": []}],
}


def _without_degree(doc):
    doc["basis"][1].pop("degree")
    return doc


def _with_degree(value):
    def edit(doc):
        doc["basis"][1]["degree"] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, c", [
    (_without_degree, None),
    (_with_degree(1.5), None),
    (_with_degree("two"), None),
    (lambda doc: [doc], None),
    (None, "abc"),
    (None, "1/0"),
])
def test_malformed_input_exits_2_without_traceback(tmp_path, edit, c):
    space, extra = "P1", [f"--c={c}"]
    if edit is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(edit(json.loads(json.dumps(P1_DOC)))))
        space, extra = f"custom:{path}", []
    proc = subprocess.run(
        [sys.executable, "-m", "cdgacalc.cli", "cohomology", "--space", space,
         "--r", "1", "--max-degree", "2", *extra],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("cdgacalc: error:")


def _run_quietly(argv):
    """Exit code and stderr of an in-process run; a traceback escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_rejected(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("cdgacalc: error:")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=8)
NON_INTEGERS = JSON.filter(lambda v: isinstance(v, bool)
                           or not isinstance(v, int))
REQUIRED = ["name", "n", "basis", "unit", "fundamental"]


@st.composite
def malformed_documents(draw):
    doc = json.loads(json.dumps(P1_DOC))
    kind = draw(st.sampled_from(["not_object", "drop_field", "drop_degree",
                                 "bad_degree", "bad_weight", "bad_n"]))
    if kind == "not_object":
        return draw(JSON.filter(lambda v: not isinstance(v, dict)))
    if kind == "drop_field":
        del doc[draw(st.sampled_from(REQUIRED))]
    elif kind == "drop_degree":
        del doc["basis"][draw(st.integers(0, 1))]["degree"]
    elif kind == "bad_degree":
        doc["basis"][draw(st.integers(0, 1))]["degree"] = draw(NON_INTEGERS)
    elif kind == "bad_weight":
        doc["basis"][draw(st.integers(0, 1))]["weight"] = draw(NON_INTEGERS)
    else:
        doc["n"] = draw(NON_INTEGERS)
    return doc


def _series_of_document(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return _run_quietly(["series", "--space", f"custom:{path}",
                             "--kind", "pu-weight", "--max", "2"])


@settings(max_examples=150, deadline=None)
@given(malformed_documents())
def test_fuzz_malformed_custom_json_exits_2(doc):
    _assert_rejected(*_series_of_document(json.dumps(doc)))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_fuzz_arbitrary_custom_file_never_tracebacks(text):
    code, err = _series_of_document(text)
    if code != 0:
        _assert_rejected(code, err)


def _euler_with_class(c):
    return _run_quietly(["euler", "--space", "P1", "--r", "1", f"--c={c}",
                         "--w-max", "2"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    # a letter is never part of a rational
    st.tuples(st.text(max_size=8),
              st.characters(whitelist_categories=("Lu", "Ll")),
              st.text(max_size=8)).map("".join),
    st.integers().map(lambda p: f"{p}/0"),
    st.integers().map(lambda p: f"[{p}/0]")))
def test_fuzz_malformed_c_exits_2(c):
    _assert_rejected(*_euler_with_class(c))


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=12))
def test_fuzz_arbitrary_c_never_tracebacks(c):
    code, err = _euler_with_class(c)
    if code != 0:
        _assert_rejected(code, err)
