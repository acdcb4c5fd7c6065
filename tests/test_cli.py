import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowcw
from rainbowcw import cli
from rainbowcw.cli import main


def run(args):
    return main(args)


def test_initial_ideal(tmp_path, capsys):
    out = tmp_path / "ideal.json"
    assert run(["initial-ideal", "-n", "2", "-m", "3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["generators"] == [
        "x[1,1] * x[2,2]", "x[1,1] * x[2,3]", "x[1,2] * x[2,3]",
    ]
    assert data["manifest"]["command"] == "initial-ideal"

    assert run(["initial-ideal", "-n", "2", "-m", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 6


def test_validation_errors(tmp_path, capsys):
    assert run(["initial-ideal", "-n", "3", "-m", "2"]) == 2
    assert "error" in capsys.readouterr().err
    # C(8,4) = 70 sits exactly on the cap and passes
    assert run(["initial-ideal", "-n", "4", "-m", "8"]) == 0
    capsys.readouterr()


def test_size_caps(capsys):
    assert run(["sparse-en", "-n", "4", "-m", "9"]) == 2
    err = capsys.readouterr().err
    assert "caps" in err


def test_sparse_en_certify(tmp_path):
    out = tmp_path / "en.json"
    assert run(["sparse-en", "-n", "2", "-m", "4", "--certify-cw", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ranks"] == [1, 6, 8, 3]
    assert data["cw_certificate"]["verdict"] is True
    assert data["is_resolution"] is True


def test_sparse_en_dot(capsys):
    assert run(["sparse-en", "-n", "2", "-m", "3", "--export", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_strand_and_betti(tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]}))
    out = tmp_path / "strand.json"
    csv = tmp_path / "betti.csv"
    assert run(["strand", "--dual-file", str(dual), "-o", str(out), "--betti-csv", str(csv)]) == 0
    data = json.loads(out.read_text())
    assert data["ranks"] == [1, 8, 11, 4]
    assert data["betti_total"] == [1, 8, 11, 4]
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "i,j,alpha,rank"


def test_strand_delete(tmp_path):
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"n": 2, "m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    out = tmp_path / "strand.json"
    assert run(["strand", "--delta-file", str(delta), "--delete", "2,3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ranks"] == [1, 2, 1]


def test_betti_cmd(tmp_path):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(["x[1,1] * x[2,2]", "x[1,1] * x[2,3]", "x[1,2] * x[2,3]"]))
    out = tmp_path / "betti.csv"
    assert run(["betti", "--ideal-file", str(ideal), "-o", str(out)]) == 0
    import csv

    rows = list(csv.reader(out.read_text().splitlines()[2:]))
    totals = {}
    for i, j, alpha, rank in rows:
        totals[int(i)] = totals.get(int(i), 0) + int(rank)
    assert totals == {0: 1, 1: 3, 2: 2}


def test_free_seq_cmd(tmp_path, capsys):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]}))
    assert run(["free-seq", "--dual-file", str(dual)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True and len(data["ordering"]) == 2


def test_free_seq_of_an_empty_dual_is_the_empty_ordering(tmp_path, capsys):
    # The empty ordering once printed as "ordering": null beside "found": true.
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 2, "m": 4, "facets": []}))
    assert run(["free-seq", "--dual-file", str(dual)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True and data["ordering"] == [] and data["steps"] == []


def test_polarize_cmd(tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]}))
    out = tmp_path / "pol.json"
    assert run(["polarize", "--dual-file", str(dual), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["certified"] is True and data["power_of_maximal"] is False
    assert sorted(data["specialized"]) == sorted(
        ["x[1]^2", "x[3]^2", "x[1] * x[2] * x[3]", "x[1] * x[2]^2", "x[2]^2 * x[3]", "x[2]^3"]
    )


def test_polarize_setup_violated(tmp_path, capsys):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [1, 2, 4]]}))
    assert run(["polarize", "--dual-file", str(dual)]) == 2
    assert "SetupViolated" in capsys.readouterr().err


def test_power_of_maximal_flag(tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 2, "m": 3, "facets": []}))
    out = tmp_path / "pol.json"
    assert run(["polarize", "--dual-file", str(dual), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["power_of_maximal"] is True


def test_cw_check_cmd(tmp_path):
    out = tmp_path / "cw.json"
    assert run(["cw-check", "-n", "2", "-m", "4", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"]["verdict"] is True


def test_experiment_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["experiment", "-n", "2", "-m", "4", "--mode", "free-seq-necessity",
            "--samples", "6", "--seed", "5"]
    assert run(base + ["-o", str(a)]) == 0
    assert run(base + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()[2:]
    # tabulation only: no row may claim linear without a free sequence
    for row in rows:
        _, _, _, _, linear, free = row.split(",")
        assert not (linear == "1" and free == "0")


def test_experiment_manifest_records_the_diagonal_order(tmp_path):
    # The diagonal and the random-order runs once wrote equal manifests
    # above different rows.
    base = ["experiment", "-n", "3", "-m", "5", "--mode", "free-seq-necessity",
            "--samples", "6", "--seed", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(base + ["-o", str(a)]) == 0
    assert run(base + ["--random-orders", "-o", str(b)]) == 0
    diagonal = json.loads(a.read_text().splitlines()[0].removeprefix("# manifest: "))
    random_orders = json.loads(b.read_text().splitlines()[0].removeprefix("# manifest: "))
    assert diagonal != random_orders
    assert diagonal["order"] == rainbowcw.diagonal_order(3, 5).to_json()
    assert random_orders["order"] is None


@pytest.mark.parametrize("mode", ["free-seq-necessity", "free-vertex-orders"])
def test_experiment_negative_samples_rejected(capsys, mode):
    # --samples -3 once exited 0 with a header-only table.
    argv = ["experiment", "-n", "2", "-m", "4", "--mode", mode, "--samples", "-3",
            "--targets", "1,2"]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "RainbowError")


# Each of these once exited 0 with the option silently ignored: the output
# was byte-identical to the run without it.
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "-n", "2", "-m", "4", "--mode", "free-seq-necessity",
         "--samples", "1", "--targets", "1,2"],
        ["experiment", "-n", "2", "-m", "4", "--mode", "free-vertex-orders",
         "--samples", "1", "--targets", "1,2", "--random-orders"],
        ["sparse-en", "-n", "2", "-m", "4", "--export", "dot", "--certify-cw"],
    ],
)
def test_an_option_of_another_mode_is_refused(capsys, argv):
    assert run(argv) == 2
    _assert_one_error_line(capsys, "RainbowError")


def test_experiment_free_vertex_orders(tmp_path):
    out = tmp_path / "fvo.csv"
    assert run([
        "experiment", "-n", "2", "-m", "4", "--mode", "free-vertex-orders",
        "--samples", "4", "--seed", "7", "--targets", "1,2", "-o", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "sample,n,m,targets,all_free"
    assert len(lines) == 6


def test_json_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["sparse-en", "-n", "2", "-m", "4", "--certify-cw", "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@contextlib.contextmanager
def _umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def _mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)], ids=oct)
def test_a_new_output_file_takes_its_mode_from_the_umask(tmp_path, mask, mode):
    # As open(path, "w") would: 0o666 less the umask, for JSON and CSV alike.
    en, csv = tmp_path / "en.json", tmp_path / "betti.csv"
    with _umask(mask):
        assert run(["sparse-en", "-n", "2", "-m", "4", "-o", str(en)]) == 0
        assert run(["strand", "--dual-file", str(Path(__file__).parent / "data" / "dual35.json"),
                    "--betti-csv", str(csv), "-o", str(tmp_path / "strand.json")]) == 0
    assert [_mode(p) for p in (en, csv, tmp_path / "strand.json")] == [mode] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["betti.csv", "en.json", "strand.json"]


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o664], ids=oct)
def test_a_replaced_output_file_keeps_its_mode(tmp_path, mode):
    out = tmp_path / "en.json"
    out.write_text("old")
    out.chmod(mode)
    with _umask(0o022):
        assert run(["sparse-en", "-n", "2", "-m", "4", "-o", str(out)]) == 0
    assert _mode(out) == mode
    assert json.loads(out.read_text())["ranks"] == [1, 6, 8, 3]
    assert [p.name for p in tmp_path.iterdir()] == ["en.json"]


def test_prime_comes_from_the_flag_only(tmp_path, monkeypatch):
    # No environment variable sets the prime: --prime and its default do.
    monkeypatch.setenv("RAINBOW_PRIME", "9")
    out = tmp_path / "en.json"
    assert run(["sparse-en", "-n", "2", "-m", "3", "--certify-cw", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["manifest"]["prime"] == 32003
    assert data["cw_certificate"]["verdict"] is True


def test_bad_order_file(tmp_path, capsys):
    bad = tmp_path / "order.json"
    bad.write_text("{not json")
    assert run(["initial-ideal", "-n", "2", "-m", "3", "--order-file", str(bad)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_polarize_summary_csv(tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]}))
    out = tmp_path / "pol.json"
    csv_path = tmp_path / "summary.csv"
    assert main([
        "polarize", "--dual-file", str(dual), "-o", str(out),
        "--summary-csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "n,m,r,linear,free_seq,polarization,power_of_max"
    assert lines[2] == "3,5,2,1,1,1,0"


def _worked_dual(tmp_path):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": 3, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]}))
    return str(dual)


def _assert_one_error_line(capsys, kind):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind}:")


# Each of these once printed a plausible wrong answer with exit 0: a
# composite modulus, or one whose squares overflow the int64 dense ranks.
@pytest.mark.parametrize(
    "argv",
    [
        ["strand", "--dual-file", "DUAL", "--prime", "4"],
        ["strand", "--dual-file", "DUAL", "--prime", "4294967311"],
        ["sparse-en", "-n", "2", "-m", "4", "--certify-cw", "--prime", "6"],
        ["polarize", "--dual-file", "DUAL", "--prime", "1"],
    ],
)
def test_bad_prime_rejected(tmp_path, capsys, argv):
    argv = [_worked_dual(tmp_path) if a == "DUAL" else a for a in argv]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "RainbowError")


def test_largest_prime_accepted(tmp_path):
    out = tmp_path / "en.json"
    argv = ["sparse-en", "-n", "2", "-m", "4", "--certify-cw", "--prime", str(2**31 - 1)]
    assert run(argv + ["-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cw_certificate"]["verdict"] is True and data["is_resolution"] is True


@pytest.mark.parametrize("command", ["strand", "polarize"])
def test_malformed_delete_is_a_parse_error(tmp_path, capsys, command):
    argv = [command, "--dual-file", _worked_dual(tmp_path), "--delete", "a,b"]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "ParseError")


def test_malformed_targets_is_a_parse_error(capsys):
    argv = ["experiment", "-n", "2", "-m", "4", "--mode", "free-vertex-orders",
            "--targets", "1,x"]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "ParseError")


# "1,2,3" once exited 1 with a ValueError traceback, "1,9" with an IndexError,
# and "0,1" exited 0 with column 0 read as column 4.
@pytest.mark.parametrize("facet", ["1,2,3", "1,9", "0,1", "1,1,2"])
def test_targets_outside_the_matrix_are_parse_errors(capsys, facet):
    argv = ["experiment", "-n", "2", "-m", "4", "--mode", "free-vertex-orders",
            "--samples", "2", "--targets", facet]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "ParseError")


# Exit 0 with "regular_sequence_verified": true once, though no degree
# (or only degree 0, where 1 = 1) was checked.
@pytest.mark.parametrize("bound", ["-1", "0"])
def test_max_degree_below_one_rejected(tmp_path, capsys, bound):
    argv = ["polarize", "--dual-file", _worked_dual(tmp_path), "--max-degree", bound]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "RainbowError")


# A 10x21 dual once took 1.2 s and about 150 MB to list every 10-subset of
# [21] before the caps refused it; 15x30 would list C(30, 15) = 155M.
@pytest.mark.parametrize("command", ["strand", "polarize"])
def test_a_dual_past_the_caps_is_refused_before_it_is_dualized(
    tmp_path, capsys, monkeypatch, command
):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps({"n": 15, "m": 30, "facets": [list(range(1, 16))]}))
    monkeypatch.setattr(cli, "alexander_dual_complex", lambda _: pytest.fail("dualized"))
    assert run([command, "--dual-file", str(path)]) == 2
    _assert_one_error_line(capsys, "SizeCap")


@pytest.mark.parametrize("command", ["strand", "polarize"])
@pytest.mark.parametrize(
    "facet,kind",
    [
        ("9,9,9", "ParseError"),  # once ignored with exit 0
        ("1,2", "ParseError"),
        ("0,1,2", "ParseError"),
        ("1,2,3", "RainbowError"),  # a facet of the dual, not of Delta
    ],
)
def test_delete_of_a_non_facet_rejected(tmp_path, capsys, command, facet, kind):
    argv = [command, "--dual-file", _worked_dual(tmp_path), "--delete", facet]
    assert run(argv) == 2
    _assert_one_error_line(capsys, kind)


@pytest.mark.parametrize(
    "argv",
    [["betti", "--ideal-file", "DIR"], ["strand", "--dual-file", "DIR"]],
)
def test_directory_as_input_file(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    assert run(argv) == 2
    _assert_one_error_line(capsys, "IsADirectoryError")


# The two ideals mixing grid and plain variables once exited 1 with a
# TypeError traceback from sorting the variables of a monomial or the
# generators of the ideal.
@pytest.mark.parametrize(
    "content",
    [["x[1,1]", 3], {"x[1,1]": 1}, ["x[1] * x[1,1]"], ["x[1]", "x[1,1]"]],
)
def test_malformed_ideal_file_is_a_parse_error(tmp_path, capsys, content):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(content))
    assert run(["betti", "--ideal-file", str(ideal)]) == 2
    _assert_one_error_line(capsys, "ParseError")


@pytest.mark.parametrize("n", [2, 3])
def test_cw_check_refuses_an_oversized_interval_before_any_work(capsys, n):
    # At n x 8 the largest closed lower intervals have 15 to 18 atoms; the
    # check counts them first instead of running the interval homology.
    assert run(["cw-check", "-n", str(n), "-m", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SizeCap: interval with more than 12 atoms")


# Both once ended in a ValueError traceback with exit code 1.
@pytest.mark.parametrize(
    "content,kind",
    [(["1"], "UnitIdeal"), ([f"x[{i}]" for i in range(1, 42)], "SizeCap")],
)
def test_betti_refuses_the_unit_ideal_and_too_many_variables(tmp_path, capsys, content, kind):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(content))
    assert run(["betti", "--ideal-file", str(ideal)]) == 2
    _assert_one_error_line(capsys, kind)


# x[1]^99999999999 once exited 1 with a MemoryError traceback: its exponent
# code would be a 12.5 GB int.  x[1]^200000 fits under the cap.
def test_betti_refuses_an_exponent_past_the_code_width_cap(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(["x[1]^99999999999"]))
    assert run(["betti", "--ideal-file", str(ideal)]) == 2
    assert capsys.readouterr().err == (
        "error: SizeCap: the largest exponents add up to 99999999999; an exponent "
        "code has a bit per exponent step and is capped at 1048576 bits\n"
    )
    ideal.write_text(json.dumps(["x[1]^200000", "x[2]^3"]))
    assert run(["betti", "--ideal-file", str(ideal)]) == 0
    assert capsys.readouterr().out.endswith("2,200003,x[1]^200000 * x[2]^3,1\n")


# Once exited 1 with a MemoryError traceback from the Hilbert engine, which
# keeps max_degree + 1 ints on each of up to #variables + max_degree levels.
# Run in a child under a 1 GB address-space limit, so that a missing bound
# fails this test instead of exhausting the machine's memory.
def test_polarize_refuses_a_degree_bound_past_the_hilbert_cap():
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(rainbowcw.__file__).parent.parent))
    dual = Path(__file__).parent / "data" / "dual35.json"
    argv = [sys.executable, "-m", "rainbowcw.cli", "polarize", "--dual-file", str(dual),
            "--max-degree", "1000000000"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=limit,
                          timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: SizeCap:"), done.stderr


# At 2x4, [1,2] once exited 1 with an AttributeError traceback and
# {"weights": 5} with a TypeError one; a float, a bool and a string weight
# were coerced by int() to 1, 1 and 7, exiting 0 with an order never given.
@pytest.mark.parametrize(
    "content",
    [
        [1, 2],
        {"weights": 5},
        {"weights": [[1.5, 2, 3, 4], [1, 2, 3, 4]]},
        {"weights": [[True, 2, 3, 4], [1, 2, 3, 4]]},
        {"weights": [["7", 2, 3, 4], [1, 2, 3, 4]]},
        {"weights": [[1, 2, 3, 4], 5]},
        {"weights": [[1, 2, 3, 4], [1, 2, 3]]},
        {"n": 2.0, "m": 4, "weights": [[1, 2, 3, 4], [1, 2, 3, 4]]},
        {"n": 2, "m": "4", "weights": [[1, 2, 3, 4], [1, 2, 3, 4]]},
        {"m": 4},
        "7",
    ],
)
def test_malformed_order_file_is_a_parse_error(tmp_path, capsys, content):
    order = tmp_path / "order.json"
    order.write_text(json.dumps(content))
    assert run(["initial-ideal", "-n", "2", "-m", "4", "--order-file", str(order)]) == 2
    _assert_one_error_line(capsys, "ParseError")


# At 3x5, "n": 3.7 (and "n": "3") once exited 0 read as n = 3, "n": true
# with facets [[1]] exited 0 as a 1x5 complex, and a facet [1.5, 2, 3]
# exited 1 with a TypeError traceback.
@pytest.mark.parametrize(
    "content",
    [
        {"n": 3.7, "m": 5, "facets": [[1, 2, 3], [3, 4, 5]]},
        {"n": True, "m": 5, "facets": [[1]]},
        {"n": 3, "m": 5, "facets": [[1.5, 2, 3]]},
        {"n": "3", "m": 5, "facets": [[1, 2, 3]]},
        {"n": 3, "m": 5, "facets": [[1, 2, True]]},
        {"n": 3, "m": 5, "facets": [[1, 2, 3], 4]},
        {"n": 3, "m": 5, "facets": "123"},
        {"n": 3, "m": 5},
        [[1, 2, 3]],
    ],
)
def test_malformed_complex_file_is_a_parse_error(tmp_path, capsys, content):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps(content))
    assert run(["free-seq", "--dual-file", str(dual)]) == 2
    _assert_one_error_line(capsys, "ParseError")


def test_order_file_round_trips(tmp_path, capsys):
    order = tmp_path / "order.json"
    weights = [[0, 3, 1, 2], [0, 0, 0, 0]]
    order.write_text(json.dumps({"n": 2, "m": 4, "weights": weights}))
    assert run(["initial-ideal", "-n", "2", "-m", "4", "--order-file", str(order)]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert manifest["order"] == {"n": 2, "m": 4, "weights": weights, "tiebreak": "row-major"}


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    from rainbowcw.cli import build_parser

    assert build_parser() is build_parser()
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"n": 2, "m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    polarize = ["polarize", "--delta-file", str(delta)]

    def facets():
        return json.loads(capsys.readouterr().out)["manifest"]["input_facets"]

    assert run(polarize) == 0
    everything = facets()
    assert run(polarize + ["--delete", "2,3"]) == 0
    assert facets() == [[1, 2], [1, 3]]
    assert run(polarize + ["--delete", "1,3"]) == 0
    assert facets() == [[1, 2], [2, 3]]  # the earlier --delete is not carried over
    assert run(polarize) == 0
    assert facets() == everything
    # neither a ParseError nor a usage error leaves a trace in the next call
    assert run(polarize + ["--delete", "a,b"]) == 2
    _assert_one_error_line(capsys, "ParseError")
    assert run(polarize) == 0
    assert facets() == everything
    with pytest.raises(SystemExit) as usage:
        run(polarize + ["--no-such-flag"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert run(polarize + ["--delete", "1,2"]) == 0
    assert facets() == [[1, 3], [2, 3]]


def test_the_program_imports_without_numpy():
    # numpy is a test dependency only; the CLI must not load it, since every
    # call pays for the import.
    env = dict(os.environ, PYTHONPATH=str(Path(rainbowcw.__file__).parent.parent))
    code = "import sys, rainbowcw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Each of these once ran and silently dropped the option: the second input
# file, or an order or size override that the command never reads.
@pytest.mark.parametrize(
    "argv",
    [
        ["strand", "--delta-file", "DUAL", "--dual-file", "DUAL"],
        ["polarize", "--delta-file", "DUAL", "--dual-file", "DUAL"],
        ["strand"],
        ["polarize"],
        ["betti", "--ideal-file", "IDEAL", "--order-file", "ORDER"],
        ["betti", "--ideal-file", "IDEAL", "--force"],
        ["experiment", "-n", "2", "-m", "4", "--mode", "free-seq-necessity",
         "--samples", "1", "--order-file", "ORDER"],
    ],
)
def test_an_option_the_command_cannot_use_is_a_usage_error(tmp_path, capsys, argv):
    data = Path(__file__).parent / "data"
    files = {"DUAL": _worked_dual(tmp_path), "IDEAL": str(data / "ideal_plain.json"),
             "ORDER": str(data / "order_2x4.json")}
    with pytest.raises(SystemExit) as usage:
        run([files.get(a, a) for a in argv])
    assert usage.value.code == 2
    assert capsys.readouterr().out == ""


# Malformed bytes that json.load raises on with more than a JSONDecodeError:
# a UnicodeDecodeError, a ValueError past int()'s digit limit, and a
# RecursionError.  All but the two order-file ones once ended in a traceback
# with exit 1.
MALFORMED = {
    "non-utf8": b"\xff\xfe{\"n\": 3}",
    "digits": b"1" * 5000,
    "nesting": b"[" * 200_000 + b"]" * 200_000,
}
FILE_OPTIONS = {
    "--dual-file": ["free-seq", "--dual-file"],
    "--delta-file": ["strand", "--delta-file"],
    "--ideal-file": ["betti", "--ideal-file"],
    "--order-file": ["initial-ideal", "-n", "2", "-m", "4", "--order-file"],
}


@pytest.mark.parametrize("payload", sorted(MALFORMED))
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_malformed_bytes_in_an_input_file_are_a_parse_error(tmp_path, capsys, option, payload):
    path = tmp_path / "input.json"
    path.write_bytes(MALFORMED[payload])
    assert run(FILE_OPTIONS[option] + [str(path)]) == 2
    _assert_one_error_line(capsys, "ParseError")


# -- any file content exits 0 or 2 ----------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_columns = st.lists(st.integers(-1, 6) | st.booleans(), max_size=4)
_complexes = st.fixed_dictionaries(
    {"n": st.integers(-1, 3) | _json_values, "m": st.integers(-1, 5)},
    optional={"facets": st.lists(_columns, max_size=6) | _json_values},
)
_orders = st.fixed_dictionaries(
    {"weights": st.lists(st.lists(st.integers(-5, 5), max_size=5), max_size=3) | _json_values},
    optional={"n": st.integers(0, 3) | _json_values, "m": st.integers(0, 5),
              "tiebreak": st.sampled_from(["row-major", "lex"])},
)
_exponents = st.sampled_from(["", "^2", "^3", "^0", "^" + "9" * 5000, "^99999999999"])
_factors = st.builds(
    lambda i, j, e: f"x[{i}{j}]{e}",
    st.sampled_from(["1", "2", "3", "0", "9" * 5000]),
    st.sampled_from(["", ",1", ",2", ",17"]),
    _exponents,
)
_ideals = st.lists(
    st.lists(_factors, min_size=1, max_size=3).map(" * ".join) | st.sampled_from(["1", "y", ""]),
    max_size=4,
)


def _dump(value) -> bytes:
    return json.dumps(value).encode()


_contents = st.one_of(
    st.binary(max_size=40),
    st.integers(1, 6000).map(lambda k: b"7" * k),  # digit runs around int()'s limit
    st.integers(1, 200_000).map(lambda k: b"[" * k + b"]" * k),
    _json_values.map(_dump),
    _complexes.map(_dump),
    _orders.map(_dump),
    _ideals.map(_dump),
)
_commands = st.sampled_from([
    ["free-seq", "--dual-file", "FILE"],
    ["strand", "--dual-file", "FILE"],
    ["strand", "--delta-file", "FILE"],
    ["polarize", "--dual-file", "FILE"],
    ["betti", "--ideal-file", "FILE"],
    ["initial-ideal", "-n", "2", "-m", "4", "--order-file", "FILE"],
    ["free-seq", "--dual-file", "DUAL", "--order-file", "FILE"],
])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(content=_contents, command=_commands)
def test_any_input_file_exits_0_or_2(content, command):
    """Random bytes, long digit runs, deep nesting and wrongly shaped JSON at
    n <= 3 and m <= 5: never a traceback, so the exit is 0 or 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        dual = _worked_dual(Path(tmp))
        argv = [{"FILE": str(path), "DUAL": dual}.get(a, a) for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 2), err.getvalue()
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
