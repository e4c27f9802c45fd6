"""End-to-end command line behavior: output shape, exit codes, parity."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcmlattice
from lcmlattice import InertiaTriple, build_poset, cli, decompose_chains, \
    determinant_via_psi, divisors, doublechain, families, gcd_closure, \
    generates_double_chain, inertia_from_psi, psi, structural_inertia

CUBE = ["1", "2", "3", "5", "6", "10", "15", "30"]


def run_cli(args, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse paths exit instead of returning
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalyze:
    def test_cube_json(self, capsys):
        code, out, _ = run_cli(["analyze", "--json", *CUBE], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["n"] == 8
        assert rep["elements"] == CUBE
        assert rep["determinant"] == "3317760000/1"
        assert rep["inertia"] == {"plus": 4, "minus": 4, "zero": 0,
                                  "method": "oracle-verified"}
        top = rep["per_element"][-1]
        assert top["value"] == "30"
        assert top["psi"] == "-4/15" and top["psi_sign"] == "negative"
        assert top["generates_double_chain"] is False
        assert top["chain_a"] is None and top["mobius_source"] == "recursive"
        assert rep["classification"]["cube_isomorphic"] is True
        assert rep["classification"]["a_set"] is False
        assert rep["classification"]["r_fold"] == [0]

    def test_json_is_round_trippable(self, capsys):
        code, out, _ = run_cli(["analyze", "--json", *CUBE], capsys)
        rep = json.loads(out)
        assert json.loads(json.dumps(rep)) == rep

    def test_eta_keys_are_value_strings(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--json", "1", "2", "3", "4", "6", "9", "36"], capsys)
        assert code == 0
        rep = json.loads(out)
        top = rep["per_element"][-1]
        assert top["eta"] == {"1": 0, "2": 2, "3": 2}
        assert top["chain_a"] == ["1", "2"] and top["chain_b"] == ["3"]
        assert top["doubly_attached"] == "6"

    def test_not_closed_exits_two(self, capsys):
        code, _, err = run_cli(["analyze", "1", "2", "15", "42"], capsys)
        assert code == 2
        assert err == "error: set is not gcd closed; pass --close to analyze its closure\n"

    def test_close_flag_takes_closure(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--json", "--close", "1", "2", "15", "42"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["closure_applied"] is True
        assert rep["gcd_closed_input"] is False
        assert rep["input"] == ["1", "2", "15", "42"]
        assert rep["elements"] == ["1", "2", "3", "15", "42"]

    def test_text_output_mentions_key_facts(self, capsys):
        code, out, _ = run_cli(["analyze", *CUBE], capsys)
        assert code == 0
        assert "determinant: 3317760000/1" in out
        assert "inertia: +4 -4 0x0" in out

    def test_verify_flag(self, capsys):
        code, out, _ = run_cli(["analyze", "--json", "--verify", "--cap", "0",
                                "1", "2", "6"], capsys)
        assert code == 0
        assert json.loads(out)["inertia"]["method"] == "oracle-verified"

    def test_cap_zero_skips_oracle(self, capsys):
        code, out, _ = run_cli(["analyze", "--json", "--cap", "0",
                                "1", "2", "6"], capsys)
        assert code == 0
        assert json.loads(out)["inertia"]["method"] in ("structural", "psi")

    def test_stdin_dash(self, capsys, monkeypatch):
        code, out, _ = run_cli(["analyze", "--json", "-"], capsys,
                               monkeypatch, stdin_text="1, 2, 3, 6\n")
        assert code == 0
        assert json.loads(out)["elements"] == ["1", "2", "3", "6"]

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "elems.txt"
        f.write_text("1 2\n3, 6\n")
        code, out, _ = run_cli(["analyze", "--json", "--file", str(f)], capsys)
        assert code == 0
        assert json.loads(out)["elements"] == ["1", "2", "3", "6"]

    def test_bad_inputs_exit_one(self, capsys):
        assert run_cli(["analyze"], capsys)[0] == 1          # nothing given
        assert run_cli(["analyze", "0"], capsys)[0] == 1     # not positive
        assert run_cli(["analyze", "x"], capsys)[0] == 1     # not an integer
        code, _, err = run_cli(["analyze", "--", "--5"], capsys)
        assert code == 1 and "error: not an integer: '--5'" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    @pytest.mark.parametrize("oracle, wrong", [
        ("determinant_exact", lambda m: Fraction(0)),
        ("inertia_charpoly_oracle", lambda m: InertiaTriple(0, 0, 0)),
    ])
    def test_oracle_disagreement_exits_three(self, capsys, monkeypatch, oracle, wrong):
        monkeypatch.setattr(cli, oracle, wrong)
        code, out, err = run_cli(["analyze", *CUBE], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: verification failed: ")

    def test_structural_inertia_is_checked_above_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "structural_inertia", lambda p: InertiaTriple(8, 0, 0))
        code, out, err = run_cli(["analyze", "--json", "--cap", "0", *CUBE], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: verification failed: structural inertia")

    def test_each_core_is_built_once_per_route(self, capsys, monkeypatch):
        real = doublechain.meet_closure
        calls = []

        def counting(p, subset):
            calls.append(p)
            return real(p, subset)

        monkeypatch.setattr(doublechain, "meet_closure", counting)
        code, _, _ = run_cli(["analyze", "--json", *CUBE], capsys)
        assert code == 0
        # One per element for the report's decomposition, and one per element
        # for structural_inertia, which decides elements on its own.
        assert len(calls) == 16

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                        reason="this Python runs with no int <-> str digit limit")
    def test_results_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(["analyze", "--json",
                                *(str(2 ** k) for k in range(200))], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = "-" + str(2 ** 19900) + "/1"
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(out)["determinant"] == expected
        code, _, err = run_cli(["analyze", "1" * (limit + 1)], capsys)  # input keeps it
        assert code == 1 and "error: not an integer" in err


class TestFamily:
    def test_grid_inertia(self, capsys):
        code, out, _ = run_cli(["family", "grid", "--p", "2",
                                "--q", "3", "--m", "4", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert (rep["inertia"]["plus"], rep["inertia"]["minus"],
                rep["inertia"]["zero"]) == (10, 6, 0)

    def test_cube_index_two_is_singular(self, capsys):
        code, out, _ = run_cli(["family", "cube", "--index", "2",
                                "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["determinant"] == "0/1"
        assert rep["inertia"]["zero"] == 1

    def test_squarefree(self, capsys):
        code, out, _ = run_cli(["family", "squarefree-pairs",
                                "--primes", "2", "3", "5", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["elements"] == ["1", "2", "3", "5", "6", "10", "15"]

    def test_triple_prime(self, capsys):
        code, out, _ = run_cli(["family", "triple-prime",
                                "--primes", "5", "7", "--q", "2", "--r", "3",
                                "--m", "2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_classical(self, capsys):
        code, out, _ = run_cli(["family", "classical", "--n", "12",
                                "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["inertia"] == {"plus": 4, "minus": 8, "zero": 0,
                                  "method": "oracle-verified"}

    def test_incomparable_tops(self, capsys):
        code, out, _ = run_cli(["family", "incomparable-tops",
                                "--json"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 10

    def test_missing_params_exit_one(self, capsys):
        code, _, err = run_cli(["family", "grid", "--p", "2"], capsys)
        assert code == 1
        assert "needs" in err

    def test_bad_cube_index(self, capsys):
        assert run_cli(["family", "cube", "--index", "9"], capsys)[0] == 1

    def test_unknown_kind_exit_one(self, capsys):
        assert run_cli(["family", "mystery"], capsys)[0] == 1


class TestMobius:
    def test_column_text(self, capsys):
        code, out, _ = run_cli(["mobius", "1", "2", "3", "4", "6", "9", "36",
                                "--column", "36"], capsys)
        assert code == 0
        assert "mu(1, 36) = 0" in out
        assert "mu(2, 36) = 1" in out
        assert "mu(6, 36) = -1" in out
        assert "mu(36, 36) = 1" in out

    def test_column_methods_agree(self, capsys):
        cols = {}
        for method in ("recursive", "zeta", "closed-form"):
            code, out, _ = run_cli(
                ["mobius", "1", "2", "3", "4", "6", "9", "36",
                 "--column", "36", "--method", method, "--json"], capsys)
            assert code == 0
            cols[method] = json.loads(out)["column"]
        assert cols["recursive"] == cols["zeta"] == cols["closed-form"]

    @pytest.mark.parametrize("method", ["recursive", "zeta", "closed-form"])
    def test_table_json(self, capsys, method):
        code, out, _ = run_cli(["mobius", "1", "2", "6", "--json",
                                "--method", method], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["method"] == method
        assert rep["table"] == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]

    def test_table_text(self, capsys):
        # Row j, column i holds mu(x_j, x_i); every cell is as wide as the
        # widest element or value plus one.
        code, out, _ = run_cli(["mobius", "1", "2", "5", "10", "100"], capsys)
        assert code == 0
        assert out == ("       1   2   5  10 100\n"
                       "   1   1  -1  -1   1   0\n"
                       "   2   0   1   0  -1   0\n"
                       "   5   0   0   1  -1   0\n"
                       "  10   0   0   0   1  -1\n"
                       " 100   0   0   0   0   1\n")

    def test_closed_form_fails_cleanly_on_non_generator(self, capsys):
        code, _, err = run_cli(["mobius", *CUBE, "--column", "30",
                                "--method", "closed-form"], capsys)
        assert code == 1
        assert "width" in err

    def test_not_closed_exits_two(self, capsys):
        code, _, err = run_cli(["mobius", "2", "3"], capsys)
        assert code == 2
        assert err == "error: set is not gcd closed; pass --close to use its closure\n"
        assert run_cli(["mobius", "2", "3", "--close"], capsys)[0] == 0

    def test_column_value_missing_exits_one(self, capsys):
        assert run_cli(["mobius", "1", "2", "--column", "7"], capsys)[0] == 1


class TestDotAndClosure:
    def test_dot(self, capsys):
        code, out, _ = run_cli(["dot", "1", "2", "6"], capsys)
        assert code == 0
        assert out == ('digraph hasse {\n'
                       '  rankdir=BT;\n'
                       '  "1";\n'
                       '  "2";\n'
                       '  "6";\n'
                       '  "1" -> "2";\n'
                       '  "2" -> "6";\n'
                       '}\n')

    def test_dot_accepts_non_closed(self, capsys):
        code, out, _ = run_cli(["dot", "15", "42"], capsys)
        assert code == 0
        assert '"15";' in out and '"42";' in out

    def test_closure_text(self, capsys):
        code, out, _ = run_cli(["closure", "1", "2", "15", "42"], capsys)
        assert code == 0
        assert out.strip() == "1 2 3 15 42"

    def test_closure_json(self, capsys):
        code, out, _ = run_cli(["closure", "2", "3", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep == {"input": ["2", "3"], "closure": ["1", "2", "3"]}


class TestSearch:
    def test_size_four(self, capsys):
        code, out, _ = run_cli(["search", "--n", "4", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["max_iplus"] == 2
        assert rep["lower_bound"] is True
        assert len(rep["witness"]) == 4

    def test_text_labels_lower_bound(self, capsys):
        code, out, _ = run_cli(["search", "--n", "3"], capsys)
        assert code == 0
        assert "lower bound" in out

    def test_explicit_universe(self, capsys):
        code, out, _ = run_cli(["search", "--n", "3", "--universe", "30",
                                "--json"], capsys)
        assert code == 0
        assert json.loads(out)["universes"] == ["30"]

    def test_max_prime(self, capsys):
        code, out, _ = run_cli(["search", "--n", "2", "--max-prime", "5",
                                "--json"], capsys)
        assert code == 0
        assert json.loads(out)["universes"] == ["30"]

    def test_impossible_exits_one(self, capsys):
        assert run_cli(["search", "--n", "20", "--universe", "6"], capsys)[0] == 1

    def test_weight_route_disagreement_exits_three(self, capsys, monkeypatch):
        real = families._w_by_crosscut
        monkeypatch.setattr(families, "_w_by_crosscut",
                            lambda x, covers: real(x, covers) + 1)
        code, out, err = run_cli(["search", "--n", "4"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: verification failed: the two Psi routes")


def test_console_script_entry_point():
    # pytest's pythonpath setting does not reach child processes.
    src = Path(lcmlattice.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lcmlattice.cli", "analyze", "1", "2", "6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "determinant" in proc.stdout


def test_verification_survives_optimized_mode():
    # -O strips assert statements; the report's oracle checks must not vanish.
    src = Path(lcmlattice.__file__).parents[1]
    script = ("import sys\n"
              "from lcmlattice import cli\n"
              "cli.determinant_exact = lambda m: 0\n"
              "sys.exit(cli.main(['analyze', '1', '2', '6']))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: verification failed: determinant oracle")


def test_text_and_json_numbers_agree(capsys):
    _, text_out, _ = run_cli(["analyze", *CUBE], capsys)
    _, json_out, _ = run_cli(["analyze", "--json", *CUBE], capsys)
    rep = json.loads(json_out)
    assert f"determinant: {rep['determinant']}" in text_out
    inertia = rep["inertia"]
    assert f"+{inertia['plus']} -{inertia['minus']} 0x{inertia['zero']}" in text_out
    for rec in rep["per_element"]:
        assert f"psi {rec['psi']} ({rec['psi_sign']})" in text_out


def _frac(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def _json_report(args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--json", *args]) == 0
    return json.loads(out.getvalue())


@given(st.sampled_from([2310, 720]).flatmap(
    lambda u: st.lists(st.sampled_from(divisors(u)), min_size=1, max_size=8)))
@settings(max_examples=40, deadline=None)
def test_report_equals_library(xs):
    p = build_poset(gcd_closure(xs))
    psis = psi(p)
    inertia = inertia_from_psi(p)
    structural = structural_inertia(p)
    elements = [str(x) for x in p.elements]
    for cap, method in ((["--cap", "0"], "psi" if structural is None else "structural"),
                        ([], "oracle-verified")):
        rep = _json_report([*cap, *elements])
        assert rep["elements"] == elements
        assert rep["determinant"] == _frac(determinant_via_psi(p))
        assert rep["inertia"] == {"plus": inertia.plus, "minus": inertia.minus,
                                  "zero": inertia.zero, "method": method}
        for i, rec in enumerate(rep["per_element"]):
            v = psis[i]
            gen = generates_double_chain(p, i)
            assert rec["value"] == elements[i]
            assert rec["covers"] == [elements[j] for j in p.covered(i)]
            assert rec["generates_double_chain"] is gen
            assert rec["mobius_source"] == ("closed-form" if gen else "recursive")
            assert rec["psi"] == _frac(v)
            assert rec["psi_sign"] == ("positive" if v > 0 else
                                       "negative" if v < 0 else "zero")
            if gen:
                dec = decompose_chains(p, i)
                assert rec["chain_a"] == [elements[j] for j in dec.chain_a]
                assert rec["chain_b"] == [elements[j] for j in dec.chain_b]
                assert rec["eta"] == {elements[j]: dec.eta[j] for j in dec.core.members}
                assert rec["doubly_attached"] == (
                    None if dec.doubly_attached is None else elements[dec.doubly_attached])
            else:
                assert rec["chain_a"] is None and rec["chain_b"] is None
                assert rec["eta"] is None and rec["doubly_attached"] is None
