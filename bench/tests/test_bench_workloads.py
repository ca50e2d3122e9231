"""The seeded generator: same seed, same inputs; another seed, other inputs."""

import json
from pathlib import Path

import pytest

import compare
import oracles
import run
import spantrace
import workloads


def _snapshot(name, seed, work: Path):
    commands = workloads.build(name, seed, work)
    argv = [[a.replace(str(work), "<work>") for a in c.argv] for c in commands]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return argv, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = _snapshot(name, 7, tmp_path / "a")
    assert _snapshot(name, 7, tmp_path / "b") == first
    if name != "selfcheck":  # the suite has no inputs
        assert _snapshot(name, 8, tmp_path / "c") != first


def test_expand_synthesizes_after_its_input_is_written(tmp_path):
    commands = workloads.build("expand", 3, tmp_path)
    synth = next(i for i, c in enumerate(commands) if c.argv[0] == "synthesize")
    source = commands[synth].argv[commands[synth].argv.index("--in") + 1]
    assert any(c.argv[-1] == source for c in commands[:synth])
    assert synth == len(commands) - 1


def test_rule_sizes_repeat_within_an_expand_pass(tmp_path):
    degrees = [c.argv[c.argv.index("--degree") + 1]
               for c in workloads.build("expand", 5, tmp_path) if c.argv[0] == "analyze"]
    assert len(set(degrees)) < len(degrees)
    assert max(int(d) for d in degrees) + 16 > 400


def test_only_laguerre_fields_are_kept_out_of_accuracy_digits(tmp_path):
    commands = workloads.build("expand", 2, tmp_path)
    for c in commands:
        field = c.argv[c.argv.index("--fn") + 1] if "--fn" in c.argv else ""
        assert c.in_digits == (not field.startswith("l:"))
    assert sum(not c.in_digits for c in commands) > 0


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_calculus_holds_the_same_number_of_overflowing_norms_on_every_seed(seed, tmp_path):
    beyond = []
    for c in workloads.build("calculus", seed, tmp_path):
        if c.argv[0] != "norms":
            continue
        flag = dict(zip(c.argv[1::2], c.argv[2::2]))
        _, _, idx, vals = oracles.read_coefficients(Path(flag["--in"]))
        log_norm = oracles.log_weighted_norm(idx, vals, float(flag["--alpha"]),
                                             float(flag["--h"]), float(flag["--p"]))
        if log_norm > oracles.LOG_DBL_MAX:
            beyond.append(flag["--p"])
    assert beyond == ["1"] * workloads.NORM_OVERFLOWS


def _fails_on_second(argv):
    if argv[0] == "second":
        raise OverflowError("second")
    return 0


def test_a_failing_command_counts_once_however_many_passes_run():
    commands = [workloads.Command([name], lambda _out: None, label=name)
                for name in ("first", "second", "third")]
    tally = run.Tally(len(commands))
    for _ in range(3):
        run.run_pass(_fails_on_second, commands, tally)
    assert (tally.attempted, tally.failed, tally.passes, tally.wrong) == (3, 1, 3, 0)
    assert tally.failures == {"second: raised OverflowError": 3}


_PASS_STATE = []


def _mutate_state():
    _PASS_STATE.append(1)
    return len(_PASS_STATE)


def test_a_forked_pass_leaves_no_state_behind():
    assert run.forked(_mutate_state)[0] == 1
    assert run.forked(_mutate_state)[0] == 1
    assert _PASS_STATE == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spantrace.metric_units()
    for w in spec["workloads"]:
        for layer in workloads.IDLE_LAYERS[w["name"]]:
            assert layer in w["why"]


def _record(scale, spread):
    e2e = {name: {"median": 10.0 * scale, "spread": spread} for name in run.END_TO_END}
    return {"workloads": {"expand": {"end_to_end": e2e}}}


def test_compare_flags_a_worsening_beyond_the_bound(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(_record(1.0, 0.02)))
    b.write_text(json.dumps(_record(1.01, 0.03)))
    c.write_text(json.dumps(_record(1.5, 0.02)))
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main([str(a), str(c)]) == 1


def test_compare_flags_a_spread_beyond_the_bound_on_every_metric(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record(1.0, 0.02)))
    wide = _record(1.0, 0.02)
    wide["workloads"]["expand"]["end_to_end"]["setup_s"]["spread"] = 0.3
    b.write_text(json.dumps(wide))
    assert compare.main([str(a), str(b)]) == 1
