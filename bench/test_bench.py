"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

They check that BENCHMARK.json and the runner agree, that a short run emits
every named metric with its unit, that each output check accepts the
program's real output and rejects a corrupted one, and that the oracles
agree with independent computations.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in SPEC["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_emits_every_metric_with_its_unit(trace):
    done = bench("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {
        f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in expected
    } == {name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace == "1":
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["extract-noisy.schema.eval_property.calls"] > 0
        for other in ("topsim-sampled", "game-population", "synth-noisy"):
            assert values[f"{other}.schema.eval_property.calls"] == 0
        heavy = {"extract-noisy": {"rules", "schema"}, "topsim-sampled": {"metrics"},
                 "game-population": {"game"}, "synth-noisy": {"corpus"}}
        for workload, layers in heavy.items():
            busiest = max(tracing.LAYERS, key=lambda l: values[f"{workload}.layer.{l}.self_s"])
            assert busiest in layers, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "game-population", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def real_output(name: str, work: Path) -> tuple[workloads.Prepared, str]:
    prepared = workloads.WORKLOADS[name](3, work)
    out = work / "out"
    subprocess.run([sys.executable, "-m", "emlang", *prepared.argv(3000, out)], cwd=ROOT,
                   env=run.child_env(), check=True, timeout=300)
    return prepared, out.read_text(encoding="utf-8")


def rejects(prepared: workloads.Prepared, text: str) -> bool:
    try:
        prepared.check(text)
    except workloads.CheckFailed:
        return True
    return False


def test_extract_check_rejects_a_missing_rule(tmp_path):
    prepared, text = real_output("extract-noisy", tmp_path)
    prepared.check(text)
    doc = json.loads(text)
    doc["rules"].pop(3)
    doc["rule_count"] -= 1
    assert rejects(prepared, json.dumps(doc))


def test_topsim_check_rejects_an_inexact_rho(tmp_path):
    prepared, text = real_output("topsim-sampled", tmp_path)
    prepared.check(text)
    assert rejects(prepared, json.dumps(dict(json.loads(text), rho=0.99)))


def test_game_check_rejects_a_coin_flip_cell(tmp_path):
    prepared, text = real_output("game-population", tmp_path)
    prepared.check(text)
    doc = json.loads(text)
    doc["values"][1][2] = 0.5
    assert rejects(prepared, json.dumps(doc))


def test_synth_check_rejects_a_missing_synonym(tmp_path):
    prepared, text = real_output("synth-noisy", tmp_path)
    prepared.check(text)
    lines = text.splitlines()
    base = json.loads(lines[1])
    synonym = next(i for i, line in enumerate(lines[1:], 1)
                   if json.loads(line)["sample"] == base["sample"] and json.loads(line)["count"] == 1)
    assert rejects(prepared, "\n".join(lines[:synonym] + lines[synonym + 1:]) + "\n")


def test_rule_oracle_matches_the_program_ground_truth():
    from emlang.report import render_rule_table
    from emlang.rules import Pattern
    from emlang.schema import parse_schema
    from emlang.synth import Codebook, ground_truth_table

    lang = workloads.make_language(workloads.GRID, 12, 40, random.Random(5))
    schema = parse_schema(workloads.GRID.document())
    encoders = {
        name: {value: ((pos,), (codes[i],)) for i, value in enumerate(domain)}
        for (name, domain), pos, codes in zip(workloads.GRID.attributes, lang.positions, lang.codes)
    }
    codebook = Codebook(schema=schema, message_length=lang.length,
                        fixed=Pattern.from_dict(dict(lang.fixed)), encoders=encoders)
    truth = json.loads(render_rule_table(ground_truth_table(codebook), "structured"))
    assert truth == workloads.expected_rule_table(lang)


def test_game_closed_form_matches_enumeration():
    rng = random.Random(2)
    rows = []
    for i in range(6):
        messages = {(rng.randrange(3),): rng.randint(1, 4) for _ in range(2)}
        rows.append(workloads.Row(f"s{i}", {}, tuple(messages.items())))
    k = 3
    shares = {r.sample: {m: c / sum(dict(r.messages).values()) for m, c in r.messages} for r in rows}
    hits, cases = 0.0, 0
    for target in shares:
        for distractors in itertools.combinations([s for s in shares if s != target], k - 1):
            cases += 1
            for message, p in shares[target].items():
                # the listener keeps the first best score in id order
                best = max(sorted((target, *distractors)), key=lambda s: shares[s].get(message, 0.0))
                hits += p * (best == target)
    assert workloads.expected_game_accuracy(rows, k) == pytest.approx(hits / cases, abs=1e-12)


def test_self_time_subtracts_child_spans_and_hot_calls():
    doc = {
        "import_s": 0.1,
        "spans": [
            ["cli.main", 0.0, 10.0, -1, 0.0],
            ["rules.extract_rules", 1.0, 9.0, 0, 2.0],
            ["rules.coverage_summary", 2.0, 5.0, 1, 1.5],
        ],
        "hot": {"schema.eval_property": [7, 3.5]},
        "counters": {},
    }
    metrics = tracing.summarize(doc)
    assert metrics["cli.main.self_s"] == pytest.approx(2.0)
    assert metrics["rules.extract_rules.self_s"] == pytest.approx(3.0)
    assert metrics["layer.rules.self_s"] == pytest.approx(3.0 + 1.5)
    assert metrics["layer.schema.self_s"] == pytest.approx(3.5)
    assert metrics["schema.eval_property.calls"] == 7
    assert sum(metrics[f"layer.{name}.self_s"] for name in tracing.LAYERS) == pytest.approx(10.0)
