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
from hypothesis import event, example, find, given, settings
from hypothesis import strategies as st

import lcmlattice
from lcmlattice import InertiaTriple, build_poset, cli, cube_instances, decompose_chains, \
    determinant_via_psi, divisors, doublechain, families, gcd_closure, \
    generates_double_chain, inertia_from_psi, matrices, moebius, psi, structural_inertia

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
        # One elimination gives both results; each half is named by the
        # oracle that computes it alone.
        ("determinant_exact", lambda triple, det, pivots: (triple, Fraction(0), pivots)),
        ("inertia_charpoly_oracle",
         lambda triple, det, pivots: (InertiaTriple(0, 0, 0), det, pivots)),
    ])
    def test_oracle_disagreement_exits_three(self, capsys, monkeypatch, oracle, wrong):
        real = cli.lcm_congruence_oracle
        monkeypatch.setattr(cli, "lcm_congruence_oracle", lambda p: wrong(*real(p)))
        code, out, err = run_cli(["analyze", *CUBE], capsys)
        assert code == 3 and out == ""
        check = oracle.split("_")[0]
        assert err.startswith(f"error: verification failed: {check} oracle")

    @pytest.mark.parametrize("flags, calls", [([], 0), (["--verify"], 0), (["--cap", "0"], 1)])
    def test_moebius_table_only_where_no_oracle_runs(self, capsys, monkeypatch, flags, calls):
        # The oracle's pivots check every weight, so a report at or below the
        # cap builds no Mobius table; with --cap 0, one table checks them.
        # Either way the report takes its weights as ints and never calls psi.
        real, real_psi, seen, psi_calls = moebius.mobius_recursive, matrices.psi, [], []

        def spy(p):
            seen.append(p)
            return real(p)

        for module in (matrices, moebius, cli):
            monkeypatch.setattr(module, "mobius_recursive", spy)
        monkeypatch.setattr(matrices, "psi", lambda p: psi_calls.append(p) or real_psi(p))
        code, _, _ = run_cli(["family", "grid", "--p", "2", "--q", "3", "--m", "8",
                              "--json", *flags], capsys)
        assert code == 0
        assert len(seen) == calls
        assert psi_calls == []

    def test_each_core_is_built_once_per_route(self, capsys, monkeypatch):
        real = doublechain.meet_closure
        calls = []

        def counting(p, subset):
            calls.append(p)
            return real(p, subset)

        monkeypatch.setattr(doublechain, "meet_closure", counting)
        code, _, _ = run_cli(["analyze", "--json", *CUBE], capsys)
        assert code == 0
        # One per element for the report's decomposition; the weight's sign
        # check and the structural label both read that one split.
        assert len(calls) == 8

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
        for token in ["1" * (limit + 1), "-" + "1" * (limit + 1)]:  # input keeps the limit
            code, out, err = run_cli(["analyze", "1", "--", token], capsys)
            assert code == 1 and out == ""
            assert err == (f"error: integer too long: {len(token)} characters, "
                           f"past this Python's limit of {limit} digits\n")

    @pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                        reason="this Python runs with no int <-> str digit limit")
    def test_family_elements_past_the_digit_limit(self, capsys):
        # Two 25-digit primes and exponents up to 14: the largest of the 225
        # elements has 687 digits, past a limit of 640, yet prints in full.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run_cli(["family", "grid", "--p", "3317044064679887385961813",
                                    "--q", "3317044064679887385961801", "--m", "15", "--json"],
                                   capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert '"n": 225' in out
        assert max(map(len, json.loads(out)["elements"])) == 687

    def test_a_long_bad_token_is_cut_in_the_message(self, capsys):
        token = "1" * (sys.get_int_max_str_digits() + 100) + "x"
        code, out, err = run_cli(["analyze", "1", token], capsys)
        assert code == 1 and out == ""
        assert err == f"error: not an integer: '{token[:20]}'... ({len(token)} characters)\n"
        assert len(err) < 200
        _, _, err = run_cli(["analyze", "1", "x" * 20], capsys)  # 20 characters: shown whole
        assert err == f"error: not an integer: '{'x' * 20}'\n"

    @pytest.mark.parametrize("command", ["analyze", "closure", "dot"])
    def test_a_long_rejected_element_is_cut_in_the_message(self, capsys, command):
        # A negative integer of 4,300 digits reads as an int, so the poset's
        # own check rejects it and shows 20 characters of it and its length.
        token = "-" + "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
        code, out, err = run_cli([command, "1", "--", token], capsys)
        assert code == 1 and out == ""
        assert err == ("error: elements must be positive integers, "
                       f"got {token[:20]}... ({len(token)} characters)\n")
        assert len(err) < 200


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

    def test_grid_with_a_large_prime(self, capsys):
        # Trial division up to the square root of 10^18 + 3 would not finish.
        code, out, _ = run_cli(["family", "grid", "--p", "1000000000000000003",
                                "--q", "3", "--m", "2", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["elements"] == ["1", "3", "1000000000000000003",
                                   "3000000000000000009"]
        assert rep["inertia"]["method"] == "oracle-verified"

    def test_prime_beyond_the_exact_test_exits_one(self, capsys):
        code, out, err = run_cli(["family", "grid", "--p", str(2 ** 127 - 1),
                                  "--q", "3", "--m", "2"], capsys)
        assert code == 1 and out == ""
        assert "exact only below" in err

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

    @pytest.mark.parametrize("method", ["recursive", "zeta"])
    @pytest.mark.parametrize("xs", [divisors(36), (1, 2, 3, 9, 10, 14, 51, 99, 117, 1531530),
                                    tuple(map(int, CUBE))])
    def test_each_column_is_the_tables_column(self, capsys, method, xs):
        code, out, _ = run_cli(["mobius", "--json", "--method", method, *map(str, xs)], capsys)
        assert code == 0
        table = json.loads(out)["table"]
        for i, x in enumerate(xs):
            code, out, _ = run_cli(["mobius", "--json", "--method", method, "--column", str(x),
                                    *map(str, xs)], capsys)
            assert code == 0
            assert json.loads(out) == {"element": str(x), "method": method,
                                       "column": {str(y): row[i] for y, row in zip(xs, table)}}

    @pytest.mark.parametrize("column", [[], ["--column", "30"]])
    def test_closed_form_at_the_cube_top_exits_one(self, capsys, column):
        code, out, err = run_cli(["mobius", "--json", "--method", "closed-form", *column, *CUBE],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == "error: element 30: core of its covered set has width > 2\n"

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


@pytest.mark.parametrize("command", ["analyze", "mobius", "dot", "closure"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_file_exits_one(capsys, tmp_path, command, kind):
    path = tmp_path / "absent.txt" if kind == "missing" else tmp_path
    code, out, err = run_cli([command, "--file", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: ")
    assert "Traceback" not in err


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

    def test_no_subset_of_that_size_exits_one(self, capsys):
        code, out, err = run_cli(["search", "--n", "33", "--universe", "2310"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: no gcd-closed subset of size 33 inside universes"
                       " [2310]\n")

    def test_universe_with_a_large_square_root(self, capsys):
        # 10^18 has only 361 divisors but a square root of 10^9.
        code, out, _ = run_cli(["search", "--json", "--n", "2", "--universe",
                                str(10 ** 18)], capsys)
        assert code == 0
        assert json.loads(out)["max_iplus"] == 1

    def test_semiprime_universe_answers_at_once(self):
        # 998244353 * 1000000007 has 4 divisors; trial division up to the
        # smaller factor would take minutes, Pollard's rho takes milliseconds.
        src = Path(lcmlattice.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "lcmlattice.cli", "search", "--json", "--n", "2",
             "--universe", "998244359987710471"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["max_iplus"] == 1 and rep["witness"] == ["1", "998244353"]

    def test_universe_past_the_primality_bound_exits_one(self, capsys):
        # No Miller-Rabin base witnesses either: 2^89 - 1 is prime, and the
        # bound itself, 1287836182261 * 2575672364521, is a strong pseudoprime
        # to all 13 bases.
        for u in ("3317044064679887385961981", "618970019642690137449562111"):
            code, out, err = run_cli(["search", "--n", "2", "--universe", u], capsys)
            assert (code, out) == (1, "")
            assert f"cannot decide whether {u} is prime" in err

    def test_composite_past_the_primality_bound_rho_cannot_split_exits_one(self, capsys):
        # 10000000000037 * 20000000000021: a witness proves it composite, but
        # rho needs about 3 * 10^6 steps, past its budget.
        u = str(10000000000037 * 20000000000021)
        code, out, err = run_cli(["search", "--n", "2", "--universe", u], capsys)
        assert (code, out) == (1, "")
        assert f"cannot factor {u}" in err
        assert "cannot decide" not in err

    def test_universe_past_the_primality_bound_split_by_rho(self, capsys):
        # 1009^9 has 10 divisors; rho splits it within its budget.
        code, out, _ = run_cli(["search", "--json", "--n", "2", "--universe",
                                str(1009 ** 9)], capsys)
        assert code == 0
        assert json.loads(out)["witness"] == ["1", "1009"]

    def test_huge_universe_is_counted_not_refused_as_undecidable(self, capsys):
        # The primes up to 1000 multiply to about 10^416; their count gives
        # the divisor count, so the product is never factored.
        code, out, err = run_cli(["search", "--n", "2", "--max-prime", "1000"], capsys)
        assert (code, out) == (1, "")
        assert "divisors, more than the 4096 allowed" in err
        assert "cannot decide" not in err

    def test_too_many_divisors_exits_one(self, capsys):
        # The primes up to 53 give 2^16 divisors, past the 4096 allowed; the
        # gcd of every pair of them, which its poset takes, would not finish.
        code, out, err = run_cli(["search", "--json", "--n", "2", "--max-prime",
                                  "53"], capsys)
        assert (code, out) == (1, "")
        assert "has 65536 divisors, more than the 4096 allowed" in err

    def test_max_prime_past_the_limit_exits_one_at_once(self):
        # The primes up to P multiply to a number with 2^(number of primes)
        # divisors, so P is refused before anything is multiplied or
        # factored.  Only the 168 primes up to 1000 are counted past that.
        src = Path(lcmlattice.__file__).parents[1]
        for p, count in (("53", "65536"), ("10000", f"at least {2 ** 168}"),
                         ("1000000000", f"at least {2 ** 168}")):
            proc = subprocess.run(
                [sys.executable, "-m", "lcmlattice.cli", "search", "--n", "2",
                 "--max-prime", p],
                capture_output=True, text=True, timeout=10,
                env={**os.environ, "PYTHONPATH": str(src)})
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr.startswith(
                f"error: the product of the primes up to {p} has {count}")
            assert proc.stderr.endswith("divisors, more than the 4096 allowed\n")

    def test_universe_and_max_prime_exclude_each_other(self, capsys):
        code, out, err = run_cli(["search", "--n", "3", "--universe", "6",
                                  "--max-prime", "5"], capsys)
        assert (code, out) == (1, "")
        assert "--max-prime: not allowed with argument --universe" in err

    def test_weight_route_disagreement_exits_three(self, capsys, monkeypatch):
        real = families._w_by_crosscut
        monkeypatch.setattr(families, "_w_by_crosscut",
                            lambda x, covers: real(x, covers) + 1)
        code, out, err = run_cli(["search", "--n", "4"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: verification failed: the two Psi routes")


def test_repeated_calls_print_what_a_first_call_prints(capsys):
    # Each parser is built once per process; parse_args must keep nothing from
    # one call to the next, also after a usage error or --help exits.
    commands = [["analyze", "--json", *CUBE],
                ["search", "--json", "--n", "4", "--universe", "210"],
                ["mobius", "--json", "--method", "zeta", "1", "2", "3", "6"],
                ["closure", "--json", "6", "10", "15"]]
    cli._build_parser.cache_clear()
    first = [run_cli(c, capsys) for c in commands]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]
    for interruption, want in [(["analyze", "--bogus"], 1), (["--help"], 0)]:
        with pytest.raises(SystemExit) as exc:
            cli.main(interruption)
        assert exc.value.code == want
        capsys.readouterr()
        assert [run_cli(c, capsys) for c in commands] == first
    assert cli._build_parser() is cli._build_parser()


#: Help and usage errors: main must print what the full parser prints.
PARITY_ARGVS = [[command, "--help"] for command in cli._COMMANDS] + [
    [], ["--help"], ["bogus"], ["analyze", "--bogus", "1"], ["search"],
    ["search", "--n", "x"], ["family", "nope"], ["mobius", "--method", "nope", "1"],
    ["search", "--n", "3", "--universe", "6", "--max-prime", "5"],
    ["search", "--n", "4", "--universe", "210", "extra"]]


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_errors_are_the_full_parsers(argv, capsys):
    # main reads a plain command line from the command table and goes to the
    # full parser for help and for anything else.
    assert cli._fast_parse(argv) is None
    assert _exit(cli.main, argv, capsys) == _exit(cli._build_parser().parse_args, argv, capsys)


def test_a_valid_command_builds_no_parser(capsys):
    cli._build_parser.cache_clear()
    assert run_cli(["search", "--json", "--n", "4", "--universe", "210"], capsys)[0] == 0
    assert run_cli(["analyze", "--json", *CUBE], capsys)[0] == 0
    assert cli._build_parser.cache_info().currsize == 0


def test_valid_commands_import_no_argparse():
    # argparse's first parser imports gettext and locale; the JSON writer
    # needs only _json's C function, a report builds no Fraction, and an int
    # goes through Decimal only past the digit limit.  -S keeps site hooks
    # from loading any of them.
    src = Path(lcmlattice.__file__).parents[1]
    commands = [["analyze", "--json", *CUBE], ["analyze", "--cap", "0", *CUBE],
                ["family", "grid", "--p", "2", "--q", "3", "--m", "3", "--json"],
                *(["mobius", "--method", m, *"1 2 3 4 6 9 12 18 36".split()]
                  for m in ["recursive", "zeta", "closed-form"]),
                ["closure", "--json", "6", "10", "15"], ["dot", *CUBE],
                ["search", "--json", "--n", "4", "--universe", "210"]]
    script = ("import contextlib, io, sys\n"
              "from lcmlattice import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [cli.main(argv) for argv in {commands!r}]\n"
              "print(codes, sorted({'argparse', 'gettext', 'locale', 'json', 'fractions',\n"
              "                     'decimal'} & set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{[0] * 9} []\n", "")


def _full_parse(argv):
    with contextlib.redirect_stderr(io.StringIO()):  # a usage error fails the test
        return vars(cli._build_parser().parse_args(list(argv)))


def _options(command):
    return [name for entry in cli._COMMANDS[command][1]
            for name, _ in (entry if isinstance(entry[0], tuple) else (entry,))
            if name.startswith("-")]


_OPTIONS = sorted({name for command in cli._COMMANDS for name in _options(command)})
_VALUES = ["1", "2", "6", "30", "210", "grid", "cube", "classical", "zeta", "closed-form"]
_ODD = ["0", "x", "1.5", "", " 7", "+3", "1_0", "٣", "-5", "-", "--", "--cap=3", "--ver", "-h",
        "--help", "--nope", *_OPTIONS]


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_fast_parse_agrees_with_the_full_parser(data):
    # The command's own options and good values, with at most one bad value,
    # odd spelling or other command's option put in.
    command = data.draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h"]))
    own = _options(command) if command in cli._COMMANDS else _OPTIONS
    tokens = data.draw(st.lists(st.sampled_from(own) | st.sampled_from(_VALUES), max_size=8))
    for odd in data.draw(st.lists(st.sampled_from(_ODD), max_size=1)):
        tokens.insert(data.draw(st.integers(0, len(tokens))), odd)
    fast = cli._fast_parse([command, *tokens])
    event("read with no parser" if fast else "left to the full parser")
    if fast is not None:
        assert vars(fast) == _full_parse([command, *tokens])


#: Command lines that the CI workflow, the README and the benchmark run: each is
#: read with no parser built.  (The CI line that reads stdin through '-' is
#: left out: '-' goes to the full parser.)
_PLAIN_ARGVS = [line.split() for line in [
    # CI
    "analyze --json 1 2 3 5 6 10 15 30", "search --json --n 6 --universe 2310",
    "family cube --index 2 --json", "search --json --n 64 --universe 30030",
    "analyze --verify --json 1 2 3 5 11 70 78 255 418 759 1595 46410",
    "search --json --n 2 --universe 1000000000000000000",
    "analyze --json --verify --close " + " ".join(map(str, range(1, 121))),
    "family grid --p 2 --q 3 --m 16 --verify --json", "family grid --p 2 --q 3 --m 8 --json",
    "family grid --p 2 --q 3 --m 8 --json --cap 0",
    "analyze --json --cap 0 1 2 3 4 6 9 12 18 36", "search --json --n 2 --max-prime 37",
    "family grid --p 1000000000000000003 --q 3 --m 2 --json",
    "closure --json 6 10 15", "mobius --json 1 2 3 4 6 9 12 18 36",
    "mobius --json --method closed-form 1 2 3 4 6 9 12 18 36",
    "mobius --json --method zeta --column 36 1 2 3 4 6 9 36",
    "search --json --n 6 --universe 2310 --universe 30",
    "family triple-prime --primes 5 7 11 --q 2 --r 3 --m 4",
    # README
    "analyze 1 2 3 5 6 10 15 30", "analyze --json 1 2 15 42 --close",
    "family grid --p 2 --q 3 --m 4 --json",
    "mobius 1 2 3 4 6 9 36 --column 36 --method closed-form",
    "dot 1 2 3 6", "closure 2 3", "search --n 6",
    # the benchmark's operations
    "analyze --json --close 2 3 5 7 11", "mobius --json --method recursive 1 2 3 6",
    "search --json --n 8"]]


@pytest.mark.parametrize("argv", _PLAIN_ARGVS, ids=lambda argv: " ".join(argv)[:60])
def test_plain_command_lines_are_read_with_no_parser(argv):
    fast = cli._fast_parse(argv)
    assert fast is not None and vars(fast) == _full_parse(argv)


@pytest.mark.parametrize("plain, other, stdin", [
    (["analyze", "--json", "--cap", "0", *CUBE], ["analyze", "--json", "--cap=0", *CUBE], None),
    (["analyze", "--verify", "1", "2", "6"], ["analyze", "--ver", "1", "2", "6"], None),
    (["analyze", "--json", *CUBE], ["analyze", "--json", "-"], " ".join(CUBE)),
], ids=["equals", "abbreviation", "stdin"])
def test_other_spellings_run_through_the_full_parser(capsys, monkeypatch, plain, other, stdin):
    assert cli._fast_parse(other) is None
    assert run_cli(other, capsys, monkeypatch, stdin)[:2] == run_cli(plain, capsys)[:2]


def test_console_script_entry_point():
    # pytest's pythonpath setting does not reach child processes.
    src = Path(lcmlattice.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lcmlattice.cli", "analyze", "1", "2", "6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "determinant" in proc.stdout


@pytest.mark.parametrize("args", [
    ["family", "cube", "--index", "3", "--json"],
    ["search", "--json", "--n", "2", "--universe", "30"],
    ["analyze", "1", "2", "6"],
], ids=["family", "search", "analyze"])
def test_closed_stdout_exits_one_quietly(args):
    # The read end is closed before the child starts, as when `| head -c 10`
    # has already exited: every write fails with EPIPE.
    src = Path(lcmlattice.__file__).parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lcmlattice.cli", *args], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_verification_survives_optimized_mode():
    # -O strips assert statements; the report's oracle checks must not vanish.
    src = Path(lcmlattice.__file__).parents[1]
    script = ("import sys\n"
              "from lcmlattice import InertiaTriple, cli\n"
              "cli.lcm_congruence_oracle = lambda p: (InertiaTriple(1, 2, 0), 0, [1, -2, -12])\n"
              "sys.exit(cli.main(['analyze', '1', '2', '6']))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: verification failed: determinant oracle")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_swapped_pivots_exit_three(flags):
    # The cube's second and third pivots, -2 and -6, have the same sign, so the
    # swap keeps the oracle's inertia and determinant; only the pivot check
    # sees it.
    pivots = cli.lcm_congruence_oracle(build_poset([int(x) for x in CUBE]))[2]
    assert pivots[1] != pivots[2] and (pivots[1] > 0) == (pivots[2] > 0)
    src = Path(lcmlattice.__file__).parents[1]
    script = ("import sys\n"
              "from lcmlattice import cli\n"
              "real = cli.lcm_congruence_oracle\n"
              "def swapped(p):\n"
              "    inertia, det, pivots = real(p)\n"
              "    pivots[1], pivots[2] = pivots[2], pivots[1]\n"
              "    return inertia, det, pivots\n"
              "cli.lcm_congruence_oracle = swapped\n"
              f"sys.exit(cli.main(['analyze', *{CUBE!r}]))\n")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: verification failed: "
                           "an oracle pivot disagreed with the weight at 2\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("cap", [[], ["--cap", "0"]], ids=["at-cap", "cap-0"])
@pytest.mark.parametrize("factor", [-1, 0], ids=["negated", "zeroed"])
def test_a_generator_weight_of_the_wrong_sign_exits_three(flags, cap, factor):
    # The cube's top generates no double chain; 6 does, covers two members
    # and weighs 2.  Every divisor of 36 generates, so above the cap the sign
    # counts are reported as the structural inertia; 2 covers one member and
    # weighs -1.  The weights are patched and the Mobius check passes them
    # through, so the sign check, not the Mobius sum or the oracle, is what
    # fails.
    cube, all_generate = build_poset(map(int, CUBE)), build_poset(divisors(36))
    assert generates_double_chain(cube, 4) and not generates_double_chain(cube, 7)
    assert all(generates_double_chain(all_generate, i) for i in range(all_generate.n))
    src = Path(lcmlattice.__file__).parents[1]
    for xs, x in ((CUBE, 6), ([str(d) for d in all_generate.elements], 2)):
        script = ("import sys\n"
                  "from lcmlattice import cli\n"
                  "def flip(real):\n"
                  "    def route(p):\n"
                  "        vs = list(real(p))\n"
                  f"        vs[p.index({x})] *= {factor}\n"
                  "        return vs\n"
                  "    return route\n"
                  "cli._weights = flip(cli._weights)\n"
                  "cli._checked_by_mobius = lambda p, ws: ws\n"
                  f"sys.exit(cli.main(['analyze', *{cap!r}, *{xs!r}]))\n")
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == ("error: verification failed: "
                               f"the weight's sign disagreed with the double chain at {x}\n")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Each module costs every command its import time: dataclasses pulls in
    # inspect, ast, dis and tokenize, and json its decoder and scanner; no
    # command needs json, fractions or decimal.  -S keeps site hooks from
    # loading any.
    src = Path(lcmlattice.__file__).parents[1]
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import lcmlattice.cli\n"
              "new = set(sys.modules) - before\n"
              "gone = {'dataclasses', 'inspect', 'json', 'json.decoder', 'fractions', 'decimal'}\n"
              "print(sorted(gone & new), 'lcmlattice.cli' in new)\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] True\n", "")


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


class TestIntegerWeights:
    """The report keeps the weights w = x * Psi as ints and prints Psi with no Fraction."""

    @given(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 4400, 10 ** 4400)),
           st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 4400)))
    @example(0, 7)
    @example(-12, 30)
    @example(12, 30)
    @example(-(2 ** 19900), 3 ** 9000)  # both past 4,300 digits
    @example(6 * 10 ** 4400, 4 * 10 ** 4400)
    @example(10 ** 4400, 1)
    @settings(max_examples=200, deadline=None)
    def test_psi_printer_matches_the_fraction(self, w, x):
        assert cli._frac(w, x) == cli._frac(Fraction(w, x))

    def test_psi_strings_and_signs_are_the_weights_over_the_elements(self, corpus):
        for _, p in corpus:
            ws = matrices._weights(p)
            values = psi(p)
            for flags in ([], ["--cap", "0"]):
                rep = _json_report([*flags, *map(str, p.elements)])
                for x, w, v, rec in zip(p.elements, ws, values, rep["per_element"]):
                    assert Fraction(w, x) == v
                    assert rec["psi"] == _frac(Fraction(w, x))
                    assert rec["psi_sign"] == ("positive" if w > 0 else
                                               "negative" if w < 0 else "zero")
        cube_2 = _json_report(map(str, cube_instances()[1].elements))
        assert cube_2["per_element"][-1]["psi"] == "0/1"
        assert cube_2["per_element"][-1]["psi_sign"] == "zero"
        assert cube_2["determinant"] == "0/1"

    @pytest.mark.parametrize("flags, failure", [
        ([], "an oracle pivot disagreed with the weight at 66"),
        (["--cap", "0"], "the two Psi definitions disagreed at 66"),
    ])
    def test_a_weight_off_by_one_exits_three(self, capsys, monkeypatch, flags, failure):
        # Cube 2's top weighs 0, so raising the weight 12 of 66 by one keeps
        # the determinant at 0 and every sign: at the cap only the oracle's
        # pivots see it, with --cap 0 only the Mobius sum.
        real = matrices._weights

        def off_by_one(p):
            ws = real(p)
            ws[p.index(66)] += 1
            return ws

        for module in (cli, matrices):
            monkeypatch.setattr(module, "_weights", off_by_one)
        xs = [str(x) for x in cube_instances()[1].elements]
        code, out, err = run_cli(["analyze", *flags, *xs], capsys)
        assert code == 3 and out == ""
        assert err == f"error: verification failed: {failure}\n"


_JSON_STRINGS = st.text() | st.sampled_from(
    ["", "\"", "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600", "a\"b\\c\n\t"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=30)


class TestJsonWriter:
    """cli._dumps writes what json.dumps(obj, indent=2) writes, for what the CLI prints."""

    @given(_JSON_VALUES)
    @example([[], {}, {"a": []}, [{}], ""])
    @example([True, 1, False, 0, None, -1, 2 ** 100, -(2 ** 100)])
    @example({"\"": "\\", "\x00": "\u00e9\U0001f600", "": {"": [[]]}})
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("container", [list, dict])
    def test_values_reach_str_items_at_depth_two(self, container):
        # _dumps quotes the str items of a list or dict in place, with no
        # recursive call, so the strategy must reach such items below the top.
        def str_items(obj, depth=0):
            kids = obj if type(obj) is list else obj.values() if type(obj) is dict else ()
            for v in kids:
                if type(v) is str:
                    yield type(obj), depth + 1
                yield from str_items(v, depth + 1)

        find(_JSON_VALUES, lambda obj: any(kind is container and depth >= 2
                                           for kind, depth in str_items(obj)),
             settings=settings(database=None, max_examples=2000))

    @pytest.mark.parametrize("obj", [1.5, (1, 2), {1}, {1: "a"}, {None: 1}, ["a", {"b": 0.0}]],
                             ids=["float", "tuple", "set", "int key", "None key", "nested"])
    def test_any_other_type_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            cli._dumps(obj)

    @pytest.mark.parametrize("args", [
        ["analyze", "--json", *CUBE],
        ["analyze", "--json", "--cap", "0", "--close", "1", "2", "15", "42"],
        ["family", "cube", "--index", "2", "--json"],
        ["mobius", "--json", *map(str, divisors(36))],
        ["mobius", "--json", "--column", "12", *map(str, divisors(36))],
        ["closure", "--json", "6", "10", "15"],
        ["search", "--json", "--n", "6", "--universe", "2310"],
    ], ids=["analyze", "analyze-close-cap-0", "family", "mobius", "mobius-column", "closure",
            "search"])
    def test_every_json_command_prints_json_dumps_indent_2(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
