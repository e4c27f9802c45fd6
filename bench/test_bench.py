"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import run_worker  # noqa: E402

CUBE = next(op for op in workloads.operations("analyze-verified", 0) if op["id"] == "cube-1")


@pytest.fixture(scope="module")
def cube_report() -> dict:
    r = run_worker([CUBE])["ops"][0]
    assert check.check(CUBE, r["code"], r["out"], check.load_expected()) is None
    return json.loads(r["out"])


def _flagged(rep: dict) -> str | None:
    op = dict(CUBE, fixed=False)  # the reference checks alone, without the digest
    return check.check(op, 0, json.dumps(rep), {})


def test_flags_one_flipped_psi_sign(cube_report):
    rep = copy.deepcopy(cube_report)
    rec = rep["per_element"][-1]
    rec["psi"] = rec["psi"][1:] if rec["psi"].startswith("-") else "-" + rec["psi"]
    assert "psi" in _flagged(rep)


def test_flags_wrong_determinant(cube_report):
    rep = copy.deepcopy(cube_report)
    num, den = rep["determinant"].split("/")
    rep["determinant"] = f"{int(num) + 1}/{den}"
    assert "determinant" in _flagged(rep)


def test_flags_skipped_oracle_at_or_below_cap(cube_report):
    rep = copy.deepcopy(cube_report)
    rep["inertia"]["method"] = "psi"
    assert "oracle-verified" not in json.dumps(rep["inertia"])
    assert "inertia.method" in _flagged(rep)


def test_digest_ignores_added_keys_but_not_changed_ones(cube_report):
    rep = copy.deepcopy(cube_report)
    want = check.digest("analyze", rep)
    rep["route"] = "psi"
    rep["per_element"][0]["verified_by"] = "oracle"
    assert check.digest("analyze", rep) == want
    rep["classification"]["a_set"] = not rep["classification"]["a_set"]
    assert check.digest("analyze", rep) != want


def test_flags_wrong_mobius_entry():
    op = {"id": "mobius-36", "kind": "mobius", "method": "zeta", "fixed": False,
          "input": workloads.divisors(36),
          "argv": ["mobius", "--json", "--method", "zeta",
                   *map(str, workloads.divisors(36))]}
    r = run_worker([op])["ops"][0]
    assert check.check(op, r["code"], r["out"], {}) is None
    doc = json.loads(r["out"])
    doc["table"][0][-1] += 1
    assert "mu(1, 36)" in check.check(op, 0, json.dumps(doc), {})


def test_decimal_has_no_digit_limit():
    assert check.decimal(-1234567) == "-1234567"
    assert check.decimal(10 ** 5000) == "1" + "0" * 5000


def test_inputs_are_deterministic_and_sized_independently_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.operations(name, 7) == workloads.operations(name, 7)
    sizes = {(len(workloads.seeded_verified_set(s)),
              len(check.gcd_closure(workloads.seeded_large_generators(s))))
             for s in range(25)}
    assert sizes == {(48, 196)}
    assert 48 <= workloads.CAP < 196
    large = workloads.seeded_large_generators(3)
    assert check.gcd_closure(large) != sorted(large)  # --close has work to do
    assert workloads.seeded_verified_set(1) != workloads.seeded_verified_set(2)
    assert workloads.operations("search-small", 1) == workloads.operations("search-small", 2)


def _bindings() -> dict:
    import lcmlattice  # loads every submodule

    out = {(mod, name): value for mod in list(sys.modules) if mod.startswith("lcmlattice")
           for name, value in vars(sys.modules[mod]).items()}
    out.update({("DivisorPoset", k): v
                for k, v in vars(lcmlattice.lattice.DivisorPoset).items()})
    return out


def test_traced_run_counts_calls_through_every_namespace_and_restores_them():
    import lcmlattice.cli as cli

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.psi is not before[("lcmlattice.cli", "psi")]
        tracer.op = CUBE["id"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(CUBE["argv"]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    totals = tracer.layer_totals()
    # psi directly from cli, then via determinant_via_psi and inertia_from_psi
    # inside matrices: the cube's top does not generate a double chain.
    assert totals["matrices.psi_calls"] == 3
    assert totals["moebius.recursive_calls"] == 3
    assert totals["matrices.oracle_n"] == 8
    assert totals["doublechain.r_fold_calls"] == 8
    assert set(totals) == set(tracing.METRICS)
    assert {s[4] for s in tracer.spans} == {CUBE["id"]}


def _traced_counts(op: dict) -> dict:
    import lcmlattice.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.layer_totals().items() if not k.endswith("_s")}


def test_traced_counts_repeat_for_the_same_input():
    op = next(op for op in workloads.operations("analyze-large", 1)
              if op["id"] == "seeded-close-196")
    counts = _traced_counts(op)
    assert counts == _traced_counts(op)
    assert counts["matrices.psi_calls"] == 3
    assert counts["doublechain.r_fold_calls"] == 196


def test_self_time_subtracts_child_spans():
    spans = [("cli.main", 0.0, 10.0, -1, "a"), ("matrices.psi", 1.0, 5.0, 0, "a"),
             ("moebius.mobius_recursive", 2.0, 4.0, 1, "a")]
    totals = tracing.layer_totals(spans)
    assert totals["cli.self_s"] == 6.0
    assert totals["matrices.psi_s"] == 2.0
    assert totals["moebius.recursive_s"] == 2.0
    assert totals["matrices.psi_calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search-small"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    layer_units = {name: "s" if name.endswith("_s") else "count" for name in tracing.METRICS}
    layer_units |= {"cli.output_bytes": "bytes", "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_units
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "pass_s", "peak_rss_mb"]
