"""Command-line interface: ``repro-dup``.

Subcommands:

- ``repro-dup list`` — show available experiments and schemes.
- ``repro-dup run EXPERIMENT`` — regenerate a paper table/figure (or an
  ablation) and print the rows plus the shape checks; ``--record DIR``
  also writes them to ``DIR/<id>.txt`` and ``DIR/BENCH_<id>.json``.
- ``repro-dup simulate`` — one ad-hoc simulation with explicit
  parameters, printing the metrics report (``--trace-out`` /
  ``--metrics-out`` export JSONL traces and registry snapshots).
- ``repro-dup observe`` — an instrumented run: per-query tracing plus
  periodic metric snapshots, exported as JSONL, with a tail-latency and
  hop-attribution summary printed at the end.
- ``repro-dup trace`` — synthesize a reusable query trace, or replay a
  saved one against a scheme.
- ``repro-dup chaos`` — replay a named chaos scenario (partitions,
  authority crash, failover, consistency auditor) against a scheme;
  ``repro-dup chaos --list`` shows the stock scenarios.
- ``repro-dup top`` — render a sweep telemetry stream (written by
  ``run --telemetry-out``) as a one-screen progress dashboard.
  ``simulate`` and ``chaos`` take ``--flight-out`` (protocol flight
  recorder dump) and ``--telemetry-out`` (tree-evolution timeline).
- ``repro-dup profile`` — run an experiment under :mod:`cProfile`
  (serial, ``workers=1``) and print the hottest functions; the raw
  profile can be dumped for ``snakeviz``/``pstats`` with ``--out``.

Examples
--------
::

    repro-dup list
    repro-dup run figure4 --scale bench --replications 2
    repro-dup run churn --scale quick --replications 1 --record results/
    repro-dup profile figure4 --top 20
    repro-dup profile table2 --scale quick --sort tottime --out prof.bin
    repro-dup run table3 --scale paper          # hours, full fidelity
    repro-dup run partition --scale smoke --replications 1
    repro-dup simulate --scheme dup --nodes 2048 --rate 10 --duration 36000
    repro-dup simulate --scheme dup --trace-out traces.jsonl
    repro-dup observe --scheme dup --nodes 512 --duration 14400
    repro-dup trace make workload.trace --nodes 512 --rate 5
    repro-dup trace replay workload.trace --scheme dup --nodes 512
    repro-dup chaos --list
    repro-dup chaos blackout --scheme dup --retry-budget 4 --lease-ttl 300
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Optional, Sequence

from repro.engine import SimulationConfig, run_simulation
from repro.core.interest import AdaptivePlan
from repro.engine.config import INTEREST_POLICIES, TOPOLOGIES
from repro.errors import ConfigError
from repro.experiments import get_experiment, list_experiments
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan, PartitionWindow
from repro.net.overload import OverloadPlan
from repro.net.reliable import RetryPlan
from repro.schemes import available_schemes
from repro.workload.churn import ChurnConfig
from repro.workload.sessions import SessionPlan
from repro.workload.storms import STORM_KINDS, StormPhase, StormPlan

#: Every config flag, one row each: ``(flag, config path, help)``.  The
#: flag's type, default and choices come from the dataclass field the
#: path names (:func:`_field_kwargs`); adding a flag is adding a row.
#: Rows under ``None`` are ungrouped, and each subcommand picks those it
#: takes; the other keys are argument groups, taken whole.
_TABLE = {
    None: (
        ("--scheme", "scheme", None),
        ("--nodes", "num_nodes", None),
        ("--degree", "max_degree", None),
        ("--rate", "query_rate", "queries/second network-wide"),
        ("--arrival", "pareto.arrival", None),
        ("--pareto-alpha", "pareto.alpha", None),
        ("--theta", "zipf_theta", None),
        ("--threshold", "threshold_c", None),
        ("--ttl", "ttl", None),
        ("--push-lead", "push_lead", None),
        ("--duration", "duration", None),
        ("--warmup", "warmup", None),
        ("--topology", "topology", None),
        ("--seed", "seed", None),
        ("--churn-rate", "churn.join_rate",
         "network-wide join and leave rate in events/second "
         "(0 disables churn; failures stay off)"),
    ),
    "resilience": (
        ("--loss-rate", "faults.loss_rate",
         "probability each transmission is lost (default: 0)"),
        ("--duplicate-rate", "faults.duplicate_rate",
         "probability a control/push hop is delivered twice (default: 0)"),
        ("--silent-failures", "faults.silent_failures",
         "crashed nodes blackhole traffic until suspected instead of "
         "being oracle-announced to the scheme"),
        ("--retry-budget", "retry.budget",
         "retransmissions per reliable delivery for hard-state "
         "schemes (0 disables the reliable channel)"),
        ("--ack-timeout", "ack_timeout",
         "initial ack timeout in simulated seconds (default: 2)"),
        ("--retry-timeout-cap", "retry.timeout_cap",
         "ceiling on the exponential retry backoff in simulated "
         "seconds (0: uncapped)"),
        ("--lease-ttl", "lease_ttl",
         "lease duration for DUP subscriptions (0 disables leases)"),
        ("--partition-at", "partition.start",
         "open a network partition at this simulated time (0: none)"),
        ("--partition-duration", "partition.duration",
         "how long the partition lasts before healing (default: 300)"),
        ("--partition-components", "partition.components",
         "how many components the partition splits into (default: 2)"),
        ("--standbys", "replication.standbys",
         "authority standbys receiving replicated version state "
         "(0 disables replication and failover)"),
        ("--failover-timeout", "replication.failover_timeout",
         "authority silence a standby tolerates before promoting "
         "itself (default: 120)"),
        ("--authority-crash-at", "replication.crash_at",
         "deliberately crash the authority at this simulated time "
         "(0: never; needs --standbys >= 1)"),
        ("--audit-interval", "audit_interval",
         "cadence of the runtime consistency auditor (0 disables; "
         "DUP-family schemes only)"),
    ),
    "overload": (
        ("--service-rate", "overload.service_rate",
         "per-node message service rate in messages/second; enables "
         "the bounded priority inboxes (0 keeps the instant-service "
         "model and the whole overload layer off)"),
        ("--inbox-capacity", "overload.inbox_capacity",
         "queued messages per node inbox (default: 64)"),
        ("--max-subscribers", "overload.max_subscribers",
         "graceful-degradation fanout cap: DUP interior nodes refuse "
         "fresh subscribers past this many branches, CUP caps its "
         "registration tables (0: uncapped)"),
        ("--breaker-threshold", "overload.breaker_threshold",
         "consecutive delivery failures before a per-peer circuit "
         "breaker trips (0 disables breakers)"),
        ("--breaker-cooldown", "overload.breaker_cooldown",
         "seconds an open breaker waits before its half-open probe "
         "(default: 60)"),
        ("--coalesce-gap", "overload.authority_coalesce_gap",
         "minimum gap between forced authority updates; faster "
         "force_update calls coalesce into one deferred issue "
         "(0 disables)"),
        ("--storm", "storm.kind",
         "inject an overload storm phase (repeatable); shaped by the "
         "--storm-* flags, which apply to every phase"),
        ("--storm-start", "storm.start",
         "storm phase onset in simulated seconds (default: warmup)"),
        ("--storm-duration", "storm.duration",
         "storm phase length in simulated seconds (default: the "
         "post-warmup window)"),
        ("--storm-rate", "storm.rate",
         "storm events per simulated second (default: 1)"),
        ("--storm-rank-flips", "storm.rank_flips",
         "flash-crowd: nodes promoted to the Zipf head (default: 8)"),
        ("--storm-burst", "storm.burst",
         "thrash: queries per burst (default: threshold_c + 1)"),
    ),
    "peer fluctuation": (
        ("--mean-session", "sessions.mean_session",
         "mean alive-session length in simulated seconds (Pareto); "
         "enables the crash-restart lifecycle (0 keeps it off)"),
        ("--mean-downtime", "sessions.mean_downtime",
         "mean downtime (MTTR) in simulated seconds (log-normal); "
         "required whenever anything crashes"),
        ("--session-alpha", "sessions.session_alpha",
         "Pareto tail index of session lengths (default: 1.5)"),
        ("--downtime-sigma", "sessions.downtime_sigma",
         "log-space shape of the downtime distribution (default: 0.75)"),
        ("--diurnal-amplitude", "sessions.diurnal_amplitude",
         "relative amplitude of the diurnal arrival-rate curve in "
         "[0, 1) (0 disables it)"),
        ("--diurnal-period", "sessions.diurnal_period",
         "period of the diurnal curve in seconds (default: one day)"),
        ("--regional-rate", "sessions.regional_rate",
         "correlated regional failure bursts per simulated second "
         "(0 disables them)"),
        ("--regional-radius", "sessions.regional_radius",
         "BFS radius of the neighborhood a burst crashes (default: 2)"),
        ("--damp-suppress", "sessions.damp_suppress",
         "flap-damping penalty at which a peer is suppressed "
         "(0 disables damping)"),
        ("--damp-reuse", "sessions.damp_reuse",
         "penalty below which a suppressed peer is released"),
        ("--damp-penalty", "sessions.damp_penalty",
         "penalty charged per crash (default: 1)"),
        ("--damp-half-life", "sessions.damp_half_life",
         "exponential half-life of the penalty decay (default: 300)"),
    ),
    "interest policy": (
        ("--interest-policy", "interest_policy",
         "per-node interest estimator: the paper's sliding window, "
         "the EWMA ablation, or the self-tuning adaptive policy "
         "(dup-adaptive forces 'adaptive' regardless)"),
        ("--threshold-floor", "adaptive.floor",
         "adaptive policy: lower bound on the per-node threshold"),
        ("--threshold-ceiling", "adaptive.ceiling",
         "adaptive policy: upper bound on the per-node threshold"),
        ("--adaptive-gain", "adaptive.gain",
         "adaptive policy: threshold per observed query-per-window "
         "(a node seeing r queries/TTL settles near round(gain * r))"),
    ),
}
_ROWS = {row[0]: row for rows in _TABLE.values() for row in rows}

#: The dataclass each path prefix names.  ``partition``, ``storm``,
#: ``churn``, ``adaptive`` and ``pareto`` are the derived inputs
#: :func:`_config_from_args` assembles; ``pareto`` has no class.
_CLASSES = {
    "": SimulationConfig,
    "faults": FaultPlan,
    "retry": RetryPlan,
    "replication": ReplicationPlan,
    "overload": OverloadPlan,
    "sessions": SessionPlan,
    "churn": ChurnConfig,
    "partition": PartitionWindow,
    "storm": StormPhase,
    "adaptive": AdaptivePlan,
}
_CHOICES = {
    "scheme": available_schemes(),
    "topology": TOPOLOGIES,
    "interest_policy": (*INTEREST_POLICIES, "adaptive"),
    "storm.kind": STORM_KINDS,
}
#: The Pareto tail index ``--arrival pareto`` takes by default.
_PARETO_ALPHA = 1.05
#: Where a derived input's flag departs from its field: the fields with
#: no default (0 reads "unset": no retries, no standbys, no partition,
#: the warm-up, the rest of the run), --storm-rank-flips's 8, the
#: repeatable --storm, and the arrival flags, which have no field.
_DERIVED = {
    "pareto.arrival": {"default": "exponential",
                       "choices": ("exponential", "pareto")},
    "pareto.alpha": {"type": float, "default": _PARETO_ALPHA},
    "retry.budget": {"default": 0},
    "replication.standbys": {"default": 0},
    "partition.start": {"default": 0.0},
    "partition.duration": {"default": 300.0},
    "storm.kind": {"action": "append", "metavar": "KIND"},
    "storm.start": {"default": 0.0},
    "storm.duration": {"default": 0.0},
    "storm.rate": {"default": 1.0},
    "storm.rank_flips": {"default": 8},
}


def _field_kwargs(path: str) -> dict:
    """``add_argument`` keywords for the dataclass field ``path`` names."""
    prefix, _, name = path.rpartition(".")
    if prefix not in _CLASSES:
        return _DERIVED[path]
    field = next(
        f for f in dataclasses.fields(_CLASSES[prefix]) if f.name == name
    )
    if field.type == "bool":
        return {"action": "store_true"}
    kwargs = {
        "type": {"int": int, "float": float}.get(field.type),
        "default": (
            None if field.default is dataclasses.MISSING else field.default
        ),
        "choices": _CHOICES.get(path),
    }
    kwargs.update(_DERIVED.get(path, {}))
    return kwargs


def _positive_int(text: str) -> int:
    """An ``argparse`` type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_flags(parser, flags: Sequence[str], described: bool = True) -> None:
    """Add the table rows of ``flags`` to ``parser`` (or a group)."""
    for flag in flags:
        _, path, text = _ROWS[flag]
        parser.add_argument(
            flag, help=text if described else None, **_field_kwargs(path)
        )


def _add_groups(parser: argparse.ArgumentParser, *titles: str) -> None:
    """Add the table's argument groups ``titles``, every row of each."""
    for title in titles:
        group = parser.add_argument_group(title)
        _add_flags(group, [row[0] for row in _TABLE[title]])


#: The flags that switch each layer (each path prefix) on.
_SWITCHES = {
    "churn": "--churn-rate",
    "faults": "--loss-rate, --duplicate-rate, --silent-failures or "
    "--partition-at",
    "retry": "--retry-budget",
    "replication": "--standbys",
    "partition": "--partition-at",
    "storm": "--storm",
    "overload": "--service-rate, --max-subscribers, --breaker-threshold "
    "or --coalesce-gap",
    "sessions": "--mean-session, --diurnal-amplitude or --regional-rate",
    "adaptive": "--interest-policy adaptive or --scheme dup-adaptive",
    "pareto": "--arrival pareto",
}


def _refuse_set(args: argparse.Namespace, flags: Sequence[str],
                why: str) -> None:
    """Refuse the first of ``flags`` set off its default: ``why`` it
    would change nothing."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) != args.parser.get_default(dest):
            raise ConfigError(f"{flag} has no effect: {why}")


def _config_from_args(
    args: argparse.Namespace, flags: Sequence[str] = tuple(_ROWS), **fixed
) -> SimulationConfig:
    """The one ``SimulationConfig`` the table flags in ``args`` describe.

    Values group by the dotted prefix of their path; each plan is built
    from its group and kept only when enabled (``None`` otherwise), and
    a flag set in a group whose plan stays off is refused; a non-zero
    ``--retry-budget`` or ``--standbys`` switches its plan on.  Five
    inputs are derived: ``--partition-at`` > 0 opens one
    ``PartitionWindow``; each ``--storm`` is one ``StormPhase`` that
    starts at the warm-up and lasts the rest of the run unless told
    otherwise; ``--churn-rate`` joins and leaves at the same rate;
    ``--interest-policy adaptive`` (or ``--scheme dup-adaptive``) makes
    the ``AdaptivePlan`` of the bound flags the policy; ``--arrival
    pareto`` sets ``pareto_alpha``.  ``fixed`` sets fields outright.
    """
    groups: dict = {}
    owners: dict = {}
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        if hasattr(args, dest):
            prefix, _, name = _ROWS[flag][1].rpartition(".")
            groups.setdefault(prefix, {})[name] = getattr(args, dest)
            owners.setdefault(prefix, []).append(flag)

    def on(enabled: bool, prefix: str) -> bool:
        """``enabled``, once a layer left off refuses its flags set."""
        if not enabled:
            _refuse_set(args, owners[prefix], f"the {prefix} layer is off "
                        f"(it needs {_SWITCHES[prefix]})")
        return enabled

    fields = {**groups.pop("", {}), **fixed}
    partition = groups.pop("partition", None)
    if partition and on(partition["start"] > 0, "partition"):
        groups["faults"]["partitions"] = (PartitionWindow(**partition),)
    storm = groups.pop("storm", None)
    if storm and on(bool(storm["kind"]), "storm"):
        kinds = storm.pop("kind")
        storm["start"] = storm["start"] or fields["warmup"]
        storm["duration"] = storm["duration"] or max(
            fields["duration"] - storm["start"], 1.0
        )
        fields["storms"] = StormPlan(
            tuple(StormPhase(kind, **storm) for kind in kinds)
        )
    adaptive = groups.pop("adaptive", None)
    if adaptive and on(
        fields["interest_policy"] == "adaptive"
        or fields["scheme"] == "dup-adaptive",
        "adaptive",
    ):
        fields["interest_policy"] = AdaptivePlan(**adaptive)
    pareto = groups.pop("pareto", None)
    if pareto and on(pareto["arrival"] == "pareto", "pareto"):
        fields["pareto_alpha"] = pareto.get("alpha", _PARETO_ALPHA)
    for prefix, switch in (("retry", "budget"), ("replication", "standbys")):
        values = groups.pop(prefix, None)
        if values and on(values[switch] != 0, prefix):
            fields[prefix] = _CLASSES[prefix](**values)
    if "churn" in groups:
        groups["churn"]["leave_rate"] = groups["churn"]["join_rate"]
    for prefix, values in groups.items():
        plan = _CLASSES[prefix](**values)
        fields[prefix] = plan if on(plan.enabled, prefix) else None
    return SimulationConfig(**fields)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dup",
        description=(
            "Reproduction of 'DUP: Dynamic-tree Based Update Propagation "
            "in Peer-to-Peer Networks' (Yin & Cao, ICDE 2005)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list experiments and schemes"
    ).set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser(
        "run", help="regenerate a paper table/figure or ablation"
    )
    run_parser.add_argument(
        "experiment",
        help=f"one of: {', '.join(list_experiments())}",
    )
    run_parser.add_argument(
        "--scale",
        default="bench",
        choices=("smoke", "quick", "bench", "paper"),
        help=(
            "parameter scale (default: bench; 'smoke' is a CI-sized "
            "variant supported by the resilience study)"
        ),
    )
    run_parser.add_argument(
        "--replications",
        type=_positive_int,
        default=2,
        help="seeds per data point",
    )
    run_parser.add_argument("--seed", help="root seed", **_field_kwargs("seed"))
    run_parser.add_argument(
        "--workers",
        default="auto",
        metavar="N",
        help=(
            "worker processes for the trial fan-out: an integer or 'auto' "
            "(default) for one per core; results are bit-identical for "
            "every worker count, and --workers 1 runs the serial path"
        ),
    )
    run_parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help=(
            "stream structured per-trial progress events as JSONL to "
            "PATH (render live with 'repro-dup top PATH')"
        ),
    )
    run_parser.add_argument(
        "--record",
        metavar="DIR",
        help="also write each result to DIR/<id>.txt (the render) and "
        "DIR/BENCH_<id>.json (rows, wall, peak RSS; history kept)",
    )
    run_parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "continue past failing trials/experiments and print a "
            "per-experiment failure table at the end ('all' only "
            "continues to the next experiment)"
        ),
    )
    run_parser.set_defaults(handler=_command_run)

    sim_parser = subparsers.add_parser(
        "simulate", help="run one ad-hoc simulation"
    )
    _add_flags(
        sim_parser,
        ("--scheme", "--nodes", "--degree", "--rate", "--arrival",
         "--pareto-alpha", "--theta", "--threshold", "--ttl",
         "--duration", "--warmup", "--topology", "--seed"),
    )
    sim_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="enable per-query tracing and export JSONL traces to PATH",
    )
    sim_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="export periodic metric-registry snapshots as JSONL to PATH",
    )
    sim_parser.add_argument(
        "--snapshot-interval",
        type=float,
        default=600.0,
        help="simulated seconds between registry snapshots (default: 600)",
    )
    _add_flags(sim_parser, ("--churn-rate",))
    _add_groups(
        sim_parser,
        "resilience", "overload", "peer fluctuation", "interest policy",
    )
    _add_telemetry_arguments(sim_parser)
    sim_parser.set_defaults(
        handler=_command_simulate,
        nodes=1024,
        duration=3600.0 * 6,
        warmup=3600.0 * 2,
    )

    observe_parser = subparsers.add_parser(
        "observe", help="run one fully instrumented simulation"
    )
    _add_flags(
        observe_parser,
        ("--scheme", "--nodes", "--degree", "--rate", "--theta",
         "--threshold", "--ttl", "--duration", "--warmup", "--topology",
         "--seed"),
        described=False,
    )
    observe_parser.add_argument(
        "--trace-out", default="traces.jsonl", metavar="PATH"
    )
    observe_parser.add_argument(
        "--metrics-out", default="metrics.jsonl", metavar="PATH"
    )
    observe_parser.add_argument(
        "--snapshot-interval", type=float, default=600.0
    )
    observe_parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="slowest traces to print (default: 5)",
    )
    _add_groups(observe_parser, "resilience")
    observe_parser.set_defaults(
        handler=_command_observe, nodes=512, duration=3600.0 * 4
    )

    trace_parser = subparsers.add_parser(
        "trace", help="synthesize or replay a query trace"
    )
    trace_parser.add_argument("action", choices=("make", "replay"))
    trace_parser.add_argument("path", help="trace file path")
    _add_flags(
        trace_parser,
        ("--scheme", "--nodes", "--rate", "--duration", "--theta",
         "--arrival", "--seed"),
        described=False,
    )
    trace_parser.set_defaults(
        handler=_command_trace, nodes=512, duration=3600.0 * 5
    )

    chaos_parser = subparsers.add_parser(
        "chaos", help="replay a named chaos scenario"
    )
    chaos_parser.add_argument(
        "scenario",
        nargs="?",
        help="scenario name (omit or use --list to see them)",
    )
    chaos_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the stock scenarios and exit",
    )
    _add_flags(
        chaos_parser,
        ("--scheme", "--nodes", "--degree", "--rate", "--theta",
         "--threshold", "--ttl", "--push-lead", "--duration", "--warmup",
         "--topology", "--seed"),
    )
    _add_groups(
        chaos_parser,
        "resilience", "overload", "peer fluctuation", "interest policy",
    )
    _add_telemetry_arguments(chaos_parser)
    chaos_parser.set_defaults(
        handler=_command_chaos,
        nodes=64,
        rate=3.0,
        ttl=600.0,
        duration=3600.0,
        warmup=900.0,
    )

    top_parser = subparsers.add_parser(
        "top", help="render a sweep telemetry stream as a dashboard"
    )
    top_parser.add_argument(
        "path", help="telemetry JSONL file (from run --telemetry-out)"
    )
    top_parser.add_argument(
        "--tail",
        type=int,
        default=5,
        help="recent trials to list (default: 5)",
    )
    top_parser.set_defaults(handler=_command_top)

    profile_parser = subparsers.add_parser(
        "profile", help="profile an experiment run under cProfile"
    )
    profile_parser.add_argument(
        "experiment",
        help=f"one of: {', '.join(list_experiments())}",
    )
    profile_parser.add_argument(
        "--scale",
        default="quick",
        choices=("smoke", "quick", "bench", "paper"),
        help="parameter scale (default: quick)",
    )
    profile_parser.add_argument(
        "--replications",
        type=_positive_int,
        default=1,
        help="seeds per data point",
    )
    profile_parser.add_argument(
        "--seed", help="root seed", **_field_kwargs("seed")
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="number of functions to print (default: 20)",
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: cumulative)",
    )
    profile_parser.add_argument(
        "--out",
        metavar="PATH",
        help="also dump the raw profile (pstats format) to PATH",
    )
    profile_parser.add_argument(
        "--nodes",
        type=int,
        help=(
            "override the population size (scale experiment only; "
            "e.g. --nodes 100000 for the 10^5-node tier)"
        ),
    )
    profile_parser.add_argument(
        "--keys",
        type=int,
        help="override the key count (scale experiment only)",
    )
    profile_parser.set_defaults(handler=_command_profile)
    # A ConfigError in a subcommand is reported as its usage error.
    for subparser in subparsers.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Flight-recorder / timeline flags shared by simulate and chaos."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--flight-out",
        metavar="PATH",
        help=(
            "arm the protocol flight recorder and dump its event ring "
            "as JSONL to PATH after the run"
        ),
    )
    group.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help=(
            "sample the tree-evolution timeline and export the windowed "
            "series as JSONL to PATH"
        ),
    )
    group.add_argument(
        "--timeline-window",
        type=float,
        default=600.0,
        help="simulated seconds per timeline window (default: 600)",
    )


def _command_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for name in list_experiments():
        print(f"  {name}")
    print("schemes:")
    for name in available_schemes():
        print(f"  {name}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.engine.parallel import resolve_workers, set_default_event_sink
    from repro.engine.telemetry import TelemetryWriter
    from repro.errors import ExperimentError
    from repro.experiments.record import write_records
    from repro.experiments.registry import format_failure_table, run_all

    runner = get_experiment(args.experiment)
    workers = resolve_workers(args.workers)
    writer = TelemetryWriter(args.telemetry_out) if args.telemetry_out else None

    def sink(event) -> None:
        if event.kind == "trial-done":
            print(
                f"[{event.done}/{event.total}] {event.trial} "
                f"done in {event.wall_seconds:.1f}s",
                file=sys.stderr,
                flush=True,
            )
        if writer is not None:
            writer(event)

    kwargs = dict(
        scale=args.scale,
        replications=args.replications,
        seed=args.seed,
        workers=workers,
    )
    failures: list = []
    if args.keep_going and runner is run_all:
        kwargs.update(keep_going=True, failures=failures)
    previous_sink = set_default_event_sink(sink)
    start = time.perf_counter()
    try:
        outcome = runner(**kwargs)
    except ExperimentError as error:
        if not args.keep_going:
            raise
        failures.extend(getattr(error, "trial_failures", ()) or ())
        outcome = []
    finally:
        set_default_event_sink(previous_sink)
        if writer is not None:
            for failure in failures:
                writer.write_record(failure.to_record())
            writer.close()
            print(
                f"wrote {writer.written} telemetry records to "
                f"{args.telemetry_out}",
                file=sys.stderr,
            )
    wall = time.perf_counter() - start
    results = outcome if isinstance(outcome, list) else [outcome]
    failed = bool(failures)
    for result in results:
        print(result.render())
        print()
        failed = failed or not result.all_shapes_hold
    if args.record:
        write_records(results, args.record, wall, workers)
    if failures:
        print(format_failure_table(failures))
    return 1 if failed else 0


def _instrumented_run(
    config,
    trace_out,
    metrics_out,
    snapshot_interval,
    flight_out=None,
    telemetry_out=None,
    timeline_window=600.0,
):
    """Run one simulation with the requested observability attached.

    Returns ``(result, tracer)``; ``tracer`` is ``None`` when tracing
    was not requested.  ``flight_out`` dumps the protocol flight
    recorder as JSONL after the run; ``telemetry_out`` samples the
    tree-evolution timeline every ``timeline_window`` simulated seconds
    and exports every retained sample.
    """
    from repro.engine.simulation import Simulation
    from repro.metrics.export import export_registry, export_traces, write_jsonl
    from repro.metrics.windows import timeline_records

    # Fail on an unwritable output path now, not after an hours-long run.
    for path in (trace_out, metrics_out, flight_out, telemetry_out):
        if path:
            open(path, "w", encoding="utf-8").close()
    if flight_out and not config.flight_recorder:
        config = dataclasses.replace(config, flight_recorder=True)
    sim = Simulation(config)
    tracer = sim.enable_tracing() if trace_out else None
    if metrics_out:
        sim.enable_snapshots(interval=snapshot_interval)
    if telemetry_out:
        sim.enable_timeline(window=timeline_window)
    result = sim.run()
    if trace_out:
        count = export_traces(tracer, trace_out)
        print(f"wrote {count} trace records to {trace_out}")
    if metrics_out:
        count = export_registry(sim.registry, metrics_out)
        print(f"wrote {count} snapshot records to {metrics_out}")
    if flight_out:
        count = sim.dump_flight(flight_out)
        print(f"wrote {count} flight records to {flight_out}")
    if telemetry_out:
        count = write_jsonl(telemetry_out, timeline_records(sim.timeline))
        print(f"wrote {count} timeline records to {telemetry_out}")
    return result, tracer


def _command_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(f"config: {config.describe()}")
    if (
        args.trace_out
        or args.metrics_out
        or args.flight_out
        or args.telemetry_out
    ):
        result, _ = _instrumented_run(
            config,
            args.trace_out,
            args.metrics_out,
            args.snapshot_interval,
            flight_out=args.flight_out,
            telemetry_out=args.telemetry_out,
            timeline_window=args.timeline_window,
        )
    else:
        result = run_simulation(config)
    print(result)
    if result.extras:
        print(f"extras: {dict(result.extras)}")
    print(f"wall: {result.wall_seconds:.1f}s")
    return 0


def _command_observe(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(f"config: {config.describe()}")
    result, tracer = _instrumented_run(
        config, args.trace_out, args.metrics_out, args.snapshot_interval
    )
    print(result)
    summary = tracer.summary()
    print(
        f"traces: {summary['completed']} complete, "
        f"{summary['incomplete']} incomplete, {summary['open']} open "
        f"({tracer.untraced} in warm-up)"
    )
    tails = " ".join(
        f"{name}={value:g}" for name, value in tracer.percentiles().items()
    )
    print(f"latency percentiles (hops): {tails}")
    levels = tracer.hops_by_level()
    if levels:
        rendered = " ".join(
            f"L{level}:{hops}" for level, hops in levels.items()
        )
        print(f"request hops by tree level: {rendered}")
    if args.top > 0:
        for trace in tracer.slowest(args.top):
            print(f"  {trace}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.engine.simulation import Simulation
    from repro.workload.trace import QueryTrace

    if args.action == "make":
        _config_from_args(args, warmup=0.0)  # refuse bad numbers up front
        trace = QueryTrace.synthesize(
            nodes=list(range(1, args.nodes)),  # node 0 is the authority
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            arrival=args.arrival,
            zipf_theta=args.theta,
        )
        trace.save(args.path)
        print(
            f"wrote {len(trace)} events over {trace.duration:.0f}s "
            f"({trace.mean_rate():.3g}/s) to {args.path}"
        )
        return 0
    # The trace is the workload: the flags that shape `trace make`
    # (--rate, --duration, --theta, --arrival) stay out of the config.
    _refuse_set(
        args, ("--rate", "--duration", "--theta", "--arrival"),
        "the synthetic workload is off in a replay (the trace is the "
        "workload)",
    )
    trace = QueryTrace.load(args.path)
    config = _config_from_args(
        args,
        ("--scheme", "--nodes", "--seed"),
        duration=max(trace.duration + 60.0, 120.0),
        warmup=0.0,
    )
    sim = Simulation(config)
    sim.use_trace(trace)
    result = sim.run()
    print(f"replayed {len(trace)} events: {result}")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from repro.engine.chaos import SCENARIOS, get_scenario

    if args.list_scenarios or args.scenario is None:
        print("chaos scenarios:")
        for name in sorted(SCENARIOS):
            print(f"  {name:10s} {SCENARIOS[name].description}")
        return 0
    scenario = get_scenario(args.scenario)
    config = scenario.apply(_config_from_args(args))
    print(f"scenario: {scenario.name} -- {scenario.description}")
    print(f"config: {config.describe()}")
    if args.flight_out or args.telemetry_out:
        result, _ = _instrumented_run(
            config,
            None,
            None,
            0.0,
            flight_out=args.flight_out,
            telemetry_out=args.telemetry_out,
            timeline_window=args.timeline_window,
        )
    else:
        result = run_simulation(config)
    print(result)
    if result.extras:
        layers = ("audit", "failover", "partition", "partitions",
                  "standby", "session", "flap", "rejoin")
        chaos_keys = tuple(
            k for k in sorted(result.extras) if k.split("_")[0] in layers
        )
        for key in chaos_keys:
            print(f"  {key}: {result.extras[key]}")
        rest = {
            k: v for k, v in result.extras.items() if k not in chaos_keys
        }
        if rest:
            print(f"  other extras: {rest}")
    print(f"wall: {result.wall_seconds:.1f}s")
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from repro.engine.telemetry import render_top
    from repro.metrics.export import read_jsonl

    print(render_top(read_jsonl(args.path), tail=args.tail))
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    runner = get_experiment(args.experiment)
    kwargs: dict = {}
    nodes = getattr(args, "nodes", None)
    keys = getattr(args, "keys", None)
    if nodes is not None or keys is not None:
        if args.experiment != "scale":
            print(
                "--nodes/--keys only apply to the 'scale' experiment",
                file=sys.stderr,
            )
            return 2
        # A single explicit grid point; unset knobs fall back to the
        # scale preset's largest grid entry.
        from repro.experiments.scale_study import GRIDS

        default_nodes, default_keys = GRIDS.get(
            args.scale, GRIDS["bench"]
        )[-1]
        kwargs["grid"] = (
            (nodes or default_nodes, keys or default_keys),
        )
    # Profiling fans out to nothing: the serial path is the one whose
    # per-event costs the profile is meant to expose, and cProfile only
    # sees the current process anyway.
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        outcome = runner(
            scale=args.scale,
            replications=args.replications,
            seed=args.seed,
            workers=1,
            **kwargs,
        )
    finally:
        profiler.disable()
    results = outcome if isinstance(outcome, list) else [outcome]
    for result in results:
        print(
            f"{result.experiment_id}: {len(result.rows)} rows, "
            f"shapes hold: {result.all_shapes_hold}"
        )
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote raw profile data to {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-dup`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        args.parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())
