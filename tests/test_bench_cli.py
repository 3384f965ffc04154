"""CLI driver: config handling, CSV format, checksum stability, oracle."""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from fuseforge.bench import (
    COLUMNS,
    MetricsRow,
    RunConfig,
    _config_from,
    append_rows,
    main,
    run,
    sweep,
)
from fuseforge.errors import UsageError
from fuseforge.graphgen import erm, save_graph


def small_config(**overrides) -> RunConfig:
    base = RunConfig(workload="gol", agents=100, partitions=4, mode="full",
                     rounds=5, seed=7, repetitions=1)
    for k, v in overrides.items():
        setattr(base, k, v)
    return base


def test_unopt_and_full_checksums_match():
    a = run(small_config(mode="unopt"))
    b = run(small_config(mode="full"))
    assert a.checksum == b.checksum
    assert len(a.checksum) == 16
    int(a.checksum, 16)  # 16 hex digits


def test_zero_rounds_row_has_initial_checksum_and_no_timing():
    row = run(small_config(rounds=0))
    assert row.mean_time_per_round_ms is None
    assert row.total_rounds == 0
    assert len(row.checksum) == 16
    cells = row.as_csv().split(",")
    assert cells[COLUMNS.index("mean_time_per_round_ms")] == ""


def test_same_config_twice_identical_checksum():
    assert run(small_config()).checksum == run(small_config()).checksum


def test_mode_sweep_identical_checksums():
    rows = [run(small_config(mode=m)) for m in
            ("unopt", "merge", "merge+cache", "+local", "+remote", "full")]
    assert len({r.checksum for r in rows}) == 1


def test_invalid_mode_rejected():
    with pytest.raises(UsageError):
        run(small_config(mode="turbo"))


def test_csv_append_only_header_stable(tmp_path):
    path = str(tmp_path / "rows.csv")
    row = run(small_config())
    append_rows(path, [row])
    append_rows(path, [row])
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 3
    assert lines[1] == lines[2] == row.as_csv()
    assert len(row.as_csv().split(",")) == len(COLUMNS)


def test_sweep_single_value_single_row(tmp_path):
    path = str(tmp_path / "sweep.csv")
    rows = sweep(small_config(), "agents", [100], path)
    assert len(rows) == 1
    lines = open(path).read().splitlines()
    assert len(lines) == 2


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workload=gol\nagents=100\nrounds=3\nmode=unopt\npartitions=2\nrepetitions=1\n")
    out = tmp_path / "out.csv"
    rc = main(["run", "--config", str(cfg), "--mode", "full", "--out", str(out)])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[COLUMNS.index("mode")] == "full"  # CLI wins over file
    assert cells[COLUMNS.index("agents")] == "100"


def test_setup_columns_follow_checksum(tmp_path):
    out = tmp_path / "out.csv"
    rc = main(["run", "--workload", "gol", "--agents", "100", "--partitions", "2",
               "--rounds", "2", "--repetitions", "1", "--out", str(out)])
    assert rc == 0
    header, row = open(out).read().splitlines()
    names = header.split(",")
    assert names[-3:] == ["checksum", "partition_ms", "engine_compile_ms"]
    cells = row.split(",")
    assert len(cells) == len(names)
    for column in ("partition_ms", "engine_compile_ms"):
        assert float(cells[names.index(column)]) >= 0.0


def test_active_fraction_column():
    """gol's tracked group skips agents at a fixed point, with mail in
    ``unopt`` as without it in ``full``; economics has no tracked group, so
    it runs every agent every round."""
    def active(row) -> float:
        return float(row.as_csv().split(",")[COLUMNS.index("active_fraction")])

    assert 0 < active(run(small_config(rounds=30))) < 1
    assert 0 < active(run(small_config(mode="unopt", rounds=30))) < 1
    assert active(run(small_config(workload="economics", rounds=5))) == 1
    assert run(small_config(rounds=0)).as_csv().split(",")[COLUMNS.index("active_fraction")] == ""


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wave_speed=3\n")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2


def test_save_and_load_graph_roundtrip(tmp_path):
    saved = tmp_path / "graph.edges"
    # dense enough that no vertex is isolated (pagerank needs out-degree >= 1)
    first = run(small_config(workload="pagerank", agents=60, partitions=3,
                             rounds=4, pagerank_p=0.2, save_graph=str(saved)))
    second = run(small_config(workload="pagerank", agents=60, partitions=3,
                              rounds=4, pagerank_p=0.2, load_graph=str(saved)))
    assert first.checksum == second.checksum


@pytest.mark.parametrize("workload", ["economics", "epidemics-erm", "epidemics-sbm"])
def test_load_graph_rejected_where_the_workload_builds_its_graph(tmp_path, workload):
    saved = tmp_path / "graph.edges"
    save_graph(erm(50, 0.2, 3), str(saved))
    with pytest.raises(UsageError, match=workload):
        run(small_config(workload=workload, agents=40, rounds=1, load_graph=str(saved)))


@pytest.mark.parametrize("overrides", [{"rounds": -5}, {"repetitions": 0}, {"repetitions": -1}],
                         ids=["rounds-5", "repetitions0", "repetitions-1"])
def test_out_of_range_counts_rejected(overrides):
    with pytest.raises(UsageError, match=next(iter(overrides))):
        run(small_config(**overrides))


def exit_code(argv: list[str]) -> int:
    """``main``'s return code, or argparse's exit code for arguments it rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, config", [
    (["run", "--threads", "2"], ""),
    (["run"], "threads=2\n"),
    (["sweep", "--axis", "threads", "--values", "1"], ""),
], ids=["run-flag", "config-key", "sweep-axis"])
def test_thread_settings_rejected(tmp_path, argv, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert exit_code([*argv, "--config", str(cfg), "--workload", "gol", "--agents", "16",
                      "--rounds", "1", "--repetitions", "1",
                      "--out", str(tmp_path / "out.csv")]) == 2


@pytest.mark.parametrize("argv, config, named", [
    (["run"], "agents=ten\n", "'agents': 'ten'"),
    (["run"], "erm_p=abc\n", "'erm_p': 'abc'"),
    (["sweep", "--axis", "agents", "--values", "16,x"], "", "--values: 'x'"),
], ids=["int-key", "float-key", "sweep-values"])
def test_malformed_numbers_rejected(tmp_path, capsys, argv, config, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert exit_code([*argv, "--config", str(cfg), "--workload", "gol", "--rounds", "1",
                      "--repetitions", "1", "--out", str(tmp_path / "out.csv")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config, named", [
    ("window=0\n", "window=0"),
    ("jitter=2.5\n", "jitter=2.5"),
], ids=["window0", "jitter2.5"])
def test_out_of_range_market_constants_rejected(tmp_path, capsys, config, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert exit_code(["run", "--config", str(cfg), "--workload", "economics", "--agents", "16",
                      "--rounds", "1", "--repetitions", "1",
                      "--out", str(tmp_path / "out.csv")]) == 2
    assert named in capsys.readouterr().err


def config_file(tmp_path, text: str) -> RunConfig:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return _config_from(argparse.Namespace(config=str(cfg)))


@pytest.mark.parametrize("text, want", [
    ("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False),
])
def test_boolean_config_values(tmp_path, text, want):
    assert config_file(tmp_path, f"pagerank_tolerance={text}\n").pagerank_tolerance is want


@pytest.mark.parametrize("text", ["ture", "", "2", "on"])
def test_boolean_config_typo_rejected(tmp_path, text):
    with pytest.raises(UsageError, match="pagerank_tolerance"):
        config_file(tmp_path, f"pagerank_tolerance={text}\n")


def test_agents_column_counts_the_agents_that_ran(tmp_path):
    """gol at 1000 agents runs a 32x31 torus; a loaded graph sets its own size."""
    row = run(small_config(agents=1000, partitions=1, rounds=1))
    assert row.agents == 992
    assert row.as_csv().split(",")[COLUMNS.index("agents")] == "992"
    saved = tmp_path / "graph.edges"
    save_graph(erm(60, 0.2, 7), str(saved))
    row = run(small_config(workload="pagerank", partitions=3, rounds=1, load_graph=str(saved)))
    assert row.as_csv().split(",")[COLUMNS.index("agents")] == "60"


@pytest.mark.parametrize("requested, ran", [(7, 6), (40, 16)])
def test_partitions_column_counts_the_partitions_that_ran(requested, ran):
    """Greedy partitioning of a 4x4 torus into parts of ceil(16 / requested)
    agents: 7 requested make 6 parts of 3, 3, 3, 3, 3 and 1; 40 make one
    part per agent."""
    row = run(small_config(agents=16, partitions=requested, rounds=1))
    assert row.partitions == ran
    assert row.as_csv().split(",")[COLUMNS.index("partitions")] == str(ran)


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "gol", "--rounds", "1", "--config"],
    ["oracle", "reduce"],
], ids=["config-file", "process-file"])
def test_missing_input_file_is_a_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.txt")
    assert exit_code([*argv, missing]) == 2
    assert missing in capsys.readouterr().err


def test_cli_entrypoint_oracle_reduce(tmp_path):
    source = tmp_path / "proc.pi"
    source.write_text(
        "(defs (B (in i (x) (sum (out o (x) (ref B)) (ref B)))))\n"
        "(new (i o) (par (ref B) (out i (5) (out i (6) (in o (x) 0)))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "fuseforge.bench", "oracle", "reduce", str(source)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "irreducible steps=3" in proc.stdout
    assert "'o': 6" in proc.stdout
    assert "explored 4 states" in proc.stdout


def test_cli_oracle_reduce_output_does_not_depend_on_hash_seed(tmp_path):
    """Process terms and names hash by address and strings by the hash seed,
    so an order taken from a set of any of them would differ between
    processes; the race of three senders for two receivers prints its six
    irreducible states in one order under two hash seeds."""
    source = tmp_path / "race.pi"
    source.write_text(
        "(new (c) (par (out c (1) 0) (out c (2) 0) (out c (3) 0)\n"
        "              (in c (x) (out o (x) 0)) (in c (y) (out q (y) 0))))\n"
    )
    outputs = []
    for seed in ("0", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "fuseforge.bench", "oracle", "reduce", str(source)],
            env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1]
    assert sum(line.startswith("irreducible") for line in outputs[0]) == 6


def oracle_reduce(tmp_path, capsys, text: str) -> list[str]:
    """``fuseforge oracle reduce`` on ``text``, run in this process."""
    source = tmp_path / "proc.pi"
    source.write_text(text)
    code = main(["oracle", "reduce", str(source)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.splitlines()


def printed_values(line: str) -> dict:
    return ast.literal_eval(re.search(r"values=(\{.*?\})", line).group(1))


def test_cli_oracle_reduce_reports_only_observable_channels(tmp_path, capsys):
    """An unread output on the restricted channel c is not a final value:
    each state of the race reports what o and q received, and nothing for c
    (which canonical renaming prints as %0)."""
    lines = oracle_reduce(
        tmp_path, capsys,
        "(new (c) (par (out c (1) 0) (out c (2) 0) (out c (3) 0)\n"
        "              (in c (x) (out o (x) 0)) (in c (y) (out q (y) 0))))\n",
    )
    states = [printed_values(line) for line in lines if line.startswith("irreducible")]
    assert sorted((v["o"], v["q"]) for v in states) == \
        [(o, q) for o in (1, 2, 3) for q in (1, 2, 3) if o != q]
    assert all(set(v) == {"o", "q"} for v in states)


def ring_text(values: list[int], steps: int) -> str:
    """A ring in the process grammar, translated as the oracle translates a
    superstep: agent a reads agent a-1, even agents add what they read, odd
    ones subtract it; the states of the last superstep stay free."""
    k = len(values)

    def state(a, step):
        return f"s{a % k}g{step}"

    def equation(a, step):
        args = "m1 x" if a % 2 == 0 else "x m1"
        op = "add" if a % 2 == 0 else "sub"
        return (f"(in {state(a, step)} (x) (new (d m) (par (in {state(a - 1, step)} (m) "
                f"(out d (m) 0)) (in d (m1) (apply {op} ({args}) y "
                f"(bang (out {state(a, step + 1)} (y) 0)))))))")

    def inputs(step):
        return " ".join(state(a, step) for a in range(k))

    system = " ".join(f"(bang (out {state(a, 0)} ({v}) 0))" for a, v in enumerate(values))
    system = f"(new ({inputs(0)}) (par {system} {' '.join(equation(a, 0) for a in range(k))}))"
    for step in range(1, steps):
        system = (f"(new ({inputs(step)}) (par {system} "
                  f"{' '.join(equation(a, step) for a in range(k))}))")
    return system


def test_cli_oracle_reduce_prints_chained_steps(tmp_path, capsys):
    """Ring 3 x 2 runs as one chain of 24 confluent steps from the start to
    its one final state."""
    lines = oracle_reduce(tmp_path, capsys, ring_text([5, 6, 7], 2))
    (final,) = [line for line in lines if line.startswith("irreducible")]
    assert "irreducible steps=24 " in final
    # (5, 6, 7) -> (5 + 7, 6 - 5, 7 + 6) = (12, 1, 13) -> (25, -11, 14)
    assert {k: v for k, v in printed_values(final).items() if k.endswith("g2")} == \
        {"s0g2": 25, "s1g2": -11, "s2g2": 14}
    assert lines[-1] == "explored 2 states, chained 24 confluent steps"


def test_cli_rejects_unknown_mode_with_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "fuseforge.bench", "run", "--mode", "warp"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "warp" in proc.stderr


def test_economics_pushdown_row_wire_counts():
    config = RunConfig(workload="economics", agents=1001, partitions=10,
                       mode="full+pushdown", rounds=5, seed=3, repetitions=1)
    row = run(config)
    # price caches toward trader partitions plus one aggregate per non-owner
    # partition; trader-to-market caches are replaced by the aggregates
    assert row.wire_messages_per_round == 9 + 9
