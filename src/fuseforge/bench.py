"""Benchmark driver: build graph, partition, optimize, execute, emit CSV.

Subcommands:

* ``fuseforge run``: one configuration, one MetricsRow (printed and
  optionally appended to a CSV).
* ``fuseforge sweep``: sweep the agent count over a list of values.
* ``fuseforge oracle reduce``: reduce a process expression exhaustively and
  print every irreducible state with its final value environment.

Config values come from ``--config key=value`` files with CLI-flag
overrides.  CSV columns are fixed (see COLUMNS); floats use 6 significant
digits, checksums are 16 hex digits.  The default output directory can be
set with the FUSEFORGE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import FuseForgeError, ResourceLimitError, UsageError
from .graphgen import (
    erm,
    load_graph,
    partition_greedy,
    partition_hash,
    partition_random,
    save_graph,
)
from .optimizer import MODE_PASSES, default_pipeline, validate_options
from .runtime import Engine
from .workloads import (
    Workload,
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    state_checksum,
)

WORKLOADS = ("gol", "epidemics-erm", "epidemics-sbm", "economics", "pagerank")
PARTITIONERS = ("random", "hash-div", "hash-mod", "greedy")

DEFAULT_ROUNDS = {
    "gol": 200,
    "economics": 200,
    "epidemics-erm": 50,
    "epidemics-sbm": 50,
    "pagerank": 50,
}


@dataclass
class RunConfig:
    workload: str = "gol"
    agents: int = 1000
    partitions: int = 1
    partitioner: str = "greedy"
    mode: str = "full"
    rounds: int = -1  # -1: workload default
    seed: int = 0
    repetitions: int = 3
    # workload constants
    gol_width: int = 0  # 0: near-square grid from agents
    erm_p: float = 0.01
    sbm_blocks: int = 5
    beta: float = 0.05
    recovery_rounds: int = 5
    jitter: float = 0.05
    window: int = 10
    initial_price: int = 10000
    pagerank_p: float = 0.05
    pagerank_tolerance: bool = False  # allow pushdown regrouping of float sums
    save_graph: str = ""
    load_graph: str = ""

    def resolved_rounds(self) -> int:
        if self.rounds >= 0:
            return self.rounds
        return DEFAULT_ROUNDS[self.workload]

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise UsageError(f"unknown workload {self.workload!r}; choose from {WORKLOADS}")
        if self.mode not in MODE_PASSES:
            raise UsageError(
                f"unknown mode {self.mode!r}; valid modes: {', '.join(MODE_PASSES)}"
            )
        if self.partitioner not in PARTITIONERS:
            raise UsageError(
                f"unknown partitioner {self.partitioner!r}; choose from {PARTITIONERS}"
            )
        if self.partitions < 1 or self.agents < 2:
            raise UsageError("partitions must be >= 1 and agents >= 2")
        if self.rounds < -1:
            raise UsageError(f"rounds must be >= 0, or -1 for the workload default, "
                             f"not {self.rounds}")
        if self.repetitions < 1:
            raise UsageError(f"repetitions must be >= 1, not {self.repetitions}")
        validate_options(MODE_PASSES[self.mode])


COLUMNS = [
    "workload", "agents", "partitions", "partitioner", "mode", "rounds",
    "seed", "mean_time_per_round_ms", "total_rounds",
    "logical_messages_per_round", "wire_messages_per_round",
    "header_units_per_round", "opt_refine_ms", "opt_cache_ms", "opt_remote_ms",
    "opt_local_ms", "opt_merge_ms", "opt_pushdown_ms", "opt_total_ms",
    "graph_build_ms", "checksum", "partition_ms", "engine_compile_ms",
]


@dataclass
class MetricsRow:
    config: RunConfig
    agents: int  # the agents that ran, which the requested count need not be
    partitions: int  # the partitions that ran, which the requested count need not be
    mean_time_per_round_ms: float | None
    total_rounds: int
    logical_messages_per_round: float
    wire_messages_per_round: float
    header_units_per_round: float
    optimizer_ms: dict[str, float]
    graph_build_ms: float
    checksum: str
    partition_ms: float
    engine_compile_ms: float

    def as_csv(self) -> str:
        c = self.config
        def num(x) -> str:
            if x is None:
                return ""
            return f"{x:.6g}"
        cells = [
            c.workload, str(self.agents), str(self.partitions), c.partitioner, c.mode,
            str(c.resolved_rounds()), str(c.seed),
            num(self.mean_time_per_round_ms), str(self.total_rounds),
            num(self.logical_messages_per_round), num(self.wire_messages_per_round),
            num(self.header_units_per_round),
            num(self.optimizer_ms.get("refine", 0.0)),
            num(self.optimizer_ms.get("cache", 0.0)),
            num(self.optimizer_ms.get("remote", 0.0)),
            num(self.optimizer_ms.get("local", 0.0)),
            num(self.optimizer_ms.get("merge", 0.0)),
            num(self.optimizer_ms.get("pushdown", 0.0)),
            num(sum(self.optimizer_ms.values())),
            num(self.graph_build_ms), self.checksum,
            num(self.partition_ms), num(self.engine_compile_ms),
        ]
        return ",".join(cells)


def build_workload(config: RunConfig) -> tuple[Workload, float]:
    if config.load_graph and config.workload != "pagerank":
        raise UsageError(f"{config.workload} builds its own graph; --load-graph unsupported")
    t0 = time.perf_counter()
    if config.workload == "gol":
        width = config.gol_width or max(3, int(round(config.agents ** 0.5)))
        height = max(3, config.agents // width)
        wl = build_gol(width, height, seed=config.seed)
    elif config.workload in ("epidemics-erm", "epidemics-sbm"):
        model = config.workload.split("-", 1)[1]
        wl = build_epidemics(
            config.agents, seed=config.seed, model=model, p=config.erm_p,
            blocks=config.sbm_blocks, beta=config.beta,
            recovery_rounds=config.recovery_rounds,
        )
    elif config.workload == "economics":
        wl = build_economics(
            config.agents, seed=config.seed, initial_price=config.initial_price,
            window=config.window, jitter=config.jitter,
        )
    elif config.workload == "pagerank":
        graph = (load_graph(config.load_graph) if config.load_graph
                 else erm(config.agents, config.pagerank_p, config.seed))
        wl = build_pagerank(graph, allow_regroup=config.pagerank_tolerance)
    else:
        raise UsageError(f"unknown workload {config.workload!r}")
    if config.save_graph:
        save_graph(wl.graph, config.save_graph)
    return wl, (time.perf_counter() - t0) * 1000.0


def build_partitions_for(config: RunConfig, wl: Workload):
    n = wl.graph.vertex_count
    target = (n + config.partitions - 1) // config.partitions
    if config.partitioner == "random":
        return partition_random(wl.graph, target, config.seed)
    if config.partitioner == "hash-div":
        return partition_hash(wl.graph, target, "div")
    if config.partitioner == "hash-mod":
        return partition_hash(wl.graph, target, "mod")
    return partition_greedy(wl.graph, target, config.seed)


def run(config: RunConfig) -> MetricsRow:
    """Graph build -> partition -> optimize -> compile -> repeated timed execution."""
    config.validate()
    wl, graph_ms = build_workload(config)
    t0 = time.perf_counter()
    parts = build_partitions_for(config, wl)
    partition_ms = (time.perf_counter() - t0) * 1000.0
    opt_times: dict[str, float] = {}

    def record(name: str, seconds: float) -> None:
        opt_times[name] = seconds * 1000.0

    plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES[config.mode],
                             wl.contracts, wl.pushdown_targets, record)
    t0 = time.perf_counter()
    engine = Engine(wl, plans)
    compile_ms = (time.perf_counter() - t0) * 1000.0
    rounds = config.resolved_rounds()

    per_rep = []
    for _ in range(config.repetitions):
        state, metrics = engine.run(rounds)
        per_rep.append(metrics.mean_wall_seconds_per_round)
    mean_ms: float | None = None
    logical = wire = header = 0.0
    if rounds:
        mean_ms = 1000.0 * sum(per_rep) / len(per_rep)
        logical = sum(metrics.logical_messages_per_round) / rounds
        wire = sum(metrics.wire_units_per_round) / rounds
        header = sum(metrics.header_units_per_round) / rounds
    return MetricsRow(
        config=config,
        agents=wl.graph.vertex_count,
        partitions=len(parts),
        mean_time_per_round_ms=mean_ms,
        total_rounds=rounds,
        logical_messages_per_round=logical,
        wire_messages_per_round=wire,
        header_units_per_round=header,
        optimizer_ms=opt_times,
        graph_build_ms=graph_ms,
        checksum=state_checksum(wl, state.agent_values),
        partition_ms=partition_ms,
        engine_compile_ms=compile_ms,
    )


def append_rows(path: str, rows: list[MetricsRow]) -> None:
    """Append rows atomically; write the header only on a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    payload = ""
    if fresh:
        payload += ",".join(COLUMNS) + "\n"
    payload += "".join(r.as_csv() + "\n" for r in rows)
    with open(path, "a") as fh:
        fh.write(payload)
        fh.flush()


def sweep(base: RunConfig, axis: str, values: list[int], out_path: str) -> list[MetricsRow]:
    if axis != "agents":
        raise UsageError(f"sweep axis must be 'agents', not {axis!r}")
    rows = [run(replace(base, agents=v)) for v in values]
    if out_path:
        append_rows(out_path, rows)
    return rows


# CLI -----------------------------------------------------------------------------


def _read(path: str, what: str) -> str:
    """The text of the file at ``path``; a UsageError naming ``what`` and
    the path when it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc.strerror}") from None


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for line in _read(path, "config file").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        values[k.strip()] = v.strip()
    return values


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def _parse(where: str, kind: str, text: str):
    """``text`` read as a value of the type named ``kind``; a UsageError
    naming ``where`` and the text when it is not one."""
    if kind == "bool":
        value = _BOOLS.get(text.lower())
        if value is None:
            raise UsageError(f"{where}: {text!r} is not a boolean; use 1/0, true/false or yes/no")
        return value
    if kind not in _NUMBERS:
        return text
    parse, what = _NUMBERS[kind]
    try:
        return parse(text)
    except ValueError:
        raise UsageError(f"{where}: {text!r} is not {what}") from None


def _config_from(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    by_name = {f.name: f for f in fields(RunConfig)}
    for k, v in file_values.items():
        if k not in by_name:
            raise UsageError(f"unknown config key {k!r}")
        # field types are strings under postponed annotations
        setattr(config, k, _parse(f"config key {k!r}", by_name[k].type, v))
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(config, f.name, v)
    return config


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--agents", type=int)
    p.add_argument("--partitions", type=int)
    p.add_argument("--partitioner", choices=PARTITIONERS)
    p.add_argument("--mode", choices=sorted(MODE_PASSES))
    p.add_argument("--rounds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--erm-p", dest="erm_p", type=float)
    p.add_argument("--pagerank-p", dest="pagerank_p", type=float)
    p.add_argument("--pagerank-tolerance", dest="pagerank_tolerance", action="store_const", const=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--save-graph", dest="save_graph")
    p.add_argument("--load-graph", dest="load_graph")
    p.add_argument("--out", help="CSV output path (default dir: $FUSEFORGE_OUT)")


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    base = os.environ.get("FUSEFORGE_OUT", ".")
    return os.path.join(base, default_name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fuseforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one benchmark configuration")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep the agent count")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("agents",), required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 1,2,4,8")

    p_oracle = sub.add_parser("oracle", help="pi-calculus oracle tools")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_reduce = oracle_sub.add_parser("reduce", help="exhaustively reduce a process")
    p_reduce.add_argument("file", help="process file (s-expression grammar), '-' for stdin")
    p_reduce.add_argument("--max-steps", type=int, default=10_000)
    p_reduce.add_argument("--max-states", type=int, default=200_000)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            row = run(_config_from(args))
            out = _out_path(args, "fuseforge.csv")
            append_rows(out, [row])
            print(",".join(COLUMNS))
            print(row.as_csv())
        elif args.command == "sweep":
            values = [_parse("--values", "int", v) for v in args.values.split(",") if v]
            out = _out_path(args, "fuseforge-sweep.csv")
            rows = sweep(_config_from(args), args.axis, values, out)
            print(",".join(COLUMNS))
            for row in rows:
                print(row.as_csv())
        elif args.command == "oracle":
            return _oracle_reduce(args)
    except FuseForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _oracle_reduce(args: argparse.Namespace) -> int:
    from .pi import final_values, initial_state, reduce_all
    from .pi.parse import BUILTIN_COMPUTES, parse_process

    text = sys.stdin.read() if args.file == "-" else _read(args.file, "process file")
    process, defs = parse_process(text)
    state = initial_state(process, defs=defs, computes=dict(BUILTIN_COMPUTES))
    try:
        result = reduce_all(state, max_steps=args.max_steps, max_states=args.max_states)
    except ResourceLimitError as exc:
        result = exc.partial
        print(f"resource limit: {exc}", file=sys.stderr)
    for s in result.irreducible:
        env = {repr(k): v for k, v in sorted(final_values(s).items(), key=lambda kv: repr(kv[0]))}
        print(f"irreducible steps={s.step_count} values={env} process={s.process!r}")
    print(f"explored {result.explored} states, chained {result.chained} confluent steps")
    if result.non_terminating:
        print("non-terminating: frontier still active after bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
