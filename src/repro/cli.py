"""Command-line interface: ``wsnlink`` (or ``python -m repro.cli``).

Subcommands
-----------
``run-config``    simulate one stack configuration and print its metrics
``sweep``         run a campaign slice and save it as a JSON-lines dataset
``fit``           regenerate the empirical-model fits and compare to the paper
``case-study``    reproduce the Table IV energy-goodput trade-off comparison
``guidelines``    print per-metric tuning recommendations for a link
``validate``      compare model predictions against a saved campaign dataset
``export-trace``  simulate one configuration and export its per-packet log
``link-budget``   SNR margins per power level and coverage distances
``sensitivity``   which stack parameters matter for which metric on a link
``lint``          run the reprolint static-analysis rules over source paths
``serve``         run the link-configuration oracle as an HTTP JSON service
``fleet``         simulate a whole deployment: drifting links, batched solves
``telemetry``     device-uplink tooling: simulate, decode, ingest-bench
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import compute_metrics
from .campaign import CampaignRunner, points_as_arrays, sweep_snr_payload
from .channel import HALLWAY_2012
from .config import StackConfig, TABLE_I_SPACE
from .core import GuidelineEngine, constants, fit_ntries_model, fit_per_model
from .core.fitting import fit_plr_radio_model
from .core.optimization import (
    OBJECTIVE_PLANES,
    joint_wins,
    paper_table_iv_points,
    run_case_study_models,
    run_case_study_simulation,
    snr_map_from_environment,
)
from .sim import SimulationOptions, simulate_link

__all__ = [
    "build_parser",
    "main",
]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distance-m", type=float, default=10.0)
    parser.add_argument("--ptx-level", type=int, default=31)
    parser.add_argument("--n-max-tries", type=int, default=1)
    parser.add_argument("--d-retry-ms", type=float, default=0.0)
    parser.add_argument("--q-max", type=int, default=1)
    parser.add_argument("--t-pkt-ms", type=float, default=100.0)
    parser.add_argument("--payload-bytes", type=int, default=110)


def _config_from_args(args: argparse.Namespace) -> StackConfig:
    return StackConfig(
        distance_m=args.distance_m,
        ptx_level=args.ptx_level,
        n_max_tries=args.n_max_tries,
        d_retry_ms=args.d_retry_ms,
        q_max=args.q_max,
        t_pkt_ms=args.t_pkt_ms,
        payload_bytes=args.payload_bytes,
    )


def _cmd_run_config(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    options = SimulationOptions(n_packets=args.packets, seed=args.seed)
    metrics = compute_metrics(simulate_link(config, options=options))
    print(f"configuration: {config}")
    print(f"mean SNR        : {metrics.mean_snr_db:8.2f} dB")
    print(f"PER             : {metrics.per:8.4f}")
    print(f"PLR radio/queue : {metrics.plr_radio:8.4f} / {metrics.plr_queue:.4f}")
    print(f"goodput         : {metrics.goodput_kbps:8.2f} kb/s")
    print(f"mean delay      : {metrics.mean_delay_s * 1e3:8.2f} ms")
    print(f"mean service    : {metrics.mean_service_time_s * 1e3:8.2f} ms")
    print(f"U_eng           : {metrics.energy_per_info_bit_uj:8.4f} uJ/bit")
    print(f"mean tries      : {metrics.mean_tries:8.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    space = TABLE_I_SPACE
    filters = {}
    if args.distance_m is not None:
        filters["distances_m"] = [args.distance_m]
    if args.q_max is not None:
        filters["q_max_values"] = [args.q_max]
    if filters:
        space = space.subspace(**filters)
    configs = list(space)
    if args.limit is not None:
        configs = configs[: args.limit]
    progress = (
        (lambda i, n, s: print(f"  [{i + 1}/{n}] {s.config}", file=sys.stderr))
        if args.verbose
        else None
    )
    if args.resume:
        from .campaign import run_campaign_checkpointed

        dataset = run_campaign_checkpointed(
            configs,
            args.output,
            packets_per_config=args.packets,
            base_seed=args.seed,
            engine=args.engine,
            description=f"cli sweep ({len(configs)} configs)",
            progress=progress,
        )
        print(f"checkpoint {args.output} holds {len(dataset)} summaries")
        return 0
    runner = CampaignRunner(
        packets_per_config=args.packets,
        base_seed=args.seed,
        engine=args.engine,
        progress=progress,
    )
    dataset = runner.run(configs, description=f"cli sweep ({len(configs)} configs)")
    dataset.save(args.output)
    print(f"wrote {len(dataset)} summaries to {args.output}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    snrs = list(np.arange(5.0, 26.0, 2.0))
    payloads = [5, 20, 35, 50, 65, 80, 110]
    points = sweep_snr_payload(
        snrs, payloads, n_packets=args.packets, n_max_tries=1, seed=args.seed
    )
    payload, snr, per, _, _ = points_as_arrays(points)
    per_fit = fit_per_model(payload, snr, per)
    print("PER (Eq. 3):")
    print(f"  fitted : {per_fit.summary()}")
    print(
        f"  paper  : alpha={constants.PER_FIT.alpha}, beta={constants.PER_FIT.beta}"
    )
    retry_points = sweep_snr_payload(
        snrs, payloads, n_packets=args.packets, n_max_tries=8, seed=args.seed + 1
    )
    payload, snr, _, _, tries = points_as_arrays(retry_points)
    ntries_fit = fit_ntries_model(payload, snr, tries)
    print("N_tries (Eq. 7):")
    print(f"  fitted : {ntries_fit.summary()}")
    print(
        f"  paper  : alpha={constants.NTRIES_FIT.alpha}, "
        f"beta={constants.NTRIES_FIT.beta}"
    )
    plr_points = sweep_snr_payload(
        snrs, payloads, n_packets=args.packets, n_max_tries=3, seed=args.seed + 2
    )
    payload, snr, _, plr, _ = points_as_arrays(plr_points)
    plr_fit = fit_plr_radio_model(payload, snr, plr, n_max_tries=3)
    print("PLR_radio (Eq. 8):")
    print(f"  fitted : {plr_fit.summary()}")
    print(
        f"  paper  : alpha={constants.PLR_RADIO_FIT.alpha}, "
        f"beta={constants.PLR_RADIO_FIT.beta}"
    )
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    def show(title: str, points) -> None:
        print(title)
        print(f"  {'strategy':34s} {'Ptx':>3s} {'l_D':>4s} {'N':>2s} "
              f"{'goodput kb/s':>12s} {'U_eng uJ/bit':>12s}")
        for p in points:
            print(
                f"  {p.strategy:34s} {p.config.ptx_level:3d} "
                f"{p.config.payload_bytes:4d} {p.config.n_max_tries:2d} "
                f"{p.goodput_kbps:12.2f} {p.u_eng_uj_per_bit:12.3f}"
            )

    show("paper (Table IV):", paper_table_iv_points())
    model_points = run_case_study_models()
    show("empirical models:", model_points)
    print(f"joint tuning dominates all baselines (models): {joint_wins(model_points)}")
    if args.simulate:
        sim_points = run_case_study_simulation(
            model_points, n_packets=args.packets, seed=args.seed
        )
        show("event simulator (bulk traffic):", sim_points)
        print(
            f"joint tuning dominates all baselines (simulated): "
            f"{joint_wins(sim_points)}"
        )
    return 0


def _cmd_guidelines(args: argparse.Namespace) -> int:
    engine = GuidelineEngine()
    snr_map = snr_map_from_environment(HALLWAY_2012, args.distance_m)
    print(f"link: {args.distance_m} m in {HALLWAY_2012.name}")
    print("SNR by power level: "
          + ", ".join(f"{lvl}:{snr:.1f}dB" for lvl, snr in sorted(snr_map.items())))
    for title, rec in (
        ("energy (Sec. IV-C)", engine.recommend_for_energy(snr_map)),
        ("goodput (Sec. V-C)", engine.recommend_for_goodput(snr_map)),
        (
            "delay (Sec. VI-B)",
            engine.recommend_for_delay(
                snr_db=max(snr_map.values()),
                t_pkt_ms=args.t_pkt_ms,
                payload_bytes=args.payload_bytes,
                n_max_tries=args.n_max_tries,
            ),
        ),
        (
            "loss (Sec. VII-B)",
            engine.recommend_for_loss(
                snr_db=max(snr_map.values()),
                t_pkt_ms=args.t_pkt_ms,
                payload_bytes=args.payload_bytes,
            ),
        ),
    ):
        print(f"\n{title}:")
        print(f"  recommend: {rec.changes()}")
        print(f"  predicted: { {k: round(v, 4) for k, v in rec.predicted.items()} }")
        for line in rec.rationale:
            print(f"  - {line}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .campaign import CampaignDataset
    from .core import ModelValidator, needs_refit

    dataset = CampaignDataset.load(args.dataset)
    print(f"validating {len(dataset)} configuration summaries from "
          f"{args.dataset}")
    report = ModelValidator().validate_all(dataset)
    for validation in report.values():
        print(f"  {validation.summary()}")
    refit = needs_refit(report, args.threshold)
    print(f"published coefficients describe this environment: {not refit}")
    if refit:
        print("recommendation: re-fit Eqs. 3/7/8 against this dataset "
              "(see `wsnlink fit` and repro.core.fitting)")
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from .sim import save_trace

    config = _config_from_args(args)
    options = SimulationOptions(n_packets=args.packets, seed=args.seed)
    trace = simulate_link(config, options=options)
    save_trace(
        trace,
        args.output,
        config=config,
        include_transmissions=not args.packets_only,
        description=f"cli export ({args.packets} packets, seed {args.seed})",
    )
    print(f"wrote {len(trace.packets)} packet records "
          f"({trace.n_transmissions} transmissions) to {args.output}")
    return 0


def _cmd_link_budget(args: argparse.Namespace) -> int:
    from .channel import LinkBudget
    from .core import classify_snr

    budget = LinkBudget(HALLWAY_2012)
    print(f"link budget at {args.distance_m} m in {HALLWAY_2012.name} "
          f"(long-run mean channel; subtract a fading margin for planning)")
    print(f"{'P_tx':>5} {'dBm':>6} {'path loss':>10} {'RSSI':>8} "
          f"{'SNR':>7} {'zone':>14} {'margin@sens':>11}")
    for row in budget.table(args.distance_m):
        print(
            f"{row.ptx_level:>5} {row.tx_power_dbm:>6.0f} "
            f"{row.path_loss_db:>10.1f} {row.mean_rssi_dbm:>8.1f} "
            f"{row.mean_snr_db:>7.1f} {classify_snr(row.mean_snr_db).value:>14} "
            f"{row.sensitivity_margin_db:>11.1f}"
        )
    level = budget.cheapest_level_for_snr(args.distance_m, args.required_snr)
    if level is None:
        print(f"\nno power level reaches {args.required_snr} dB at "
              f"{args.distance_m} m")
    else:
        print(f"\ncheapest level for {args.required_snr} dB: {level}")
    coverage = budget.coverage_map(args.required_snr)
    if coverage:
        print(f"coverage at {args.required_snr} dB (median path loss): "
              + ", ".join(f"P{lvl}:{d:.0f}m" for lvl, d in sorted(coverage.items())))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .core.optimization import (
        ModelEvaluator,
        analyze_sensitivity,
        rank_parameters,
        snr_map_from_environment,
    )

    snr_map = snr_map_from_environment(HALLWAY_2012, args.distance_m)
    evaluator = ModelEvaluator(snr_by_level=snr_map)
    base = StackConfig(
        distance_m=args.distance_m,
        ptx_level=31,
        payload_bytes=args.payload_bytes,
        n_max_tries=args.n_max_tries,
        t_pkt_ms=args.t_pkt_ms,
        q_max=30,
    )
    sens = analyze_sensitivity(evaluator, base)
    print(f"one-at-a-time sensitivity at {args.distance_m} m "
          f"(base SNR {snr_map[31]:.1f} dB at max power)")
    for metric in ("energy", "goodput", "delay", "loss"):
        print(f"\n{metric}:")
        for row in rank_parameters(sens, metric):
            print(f"  {row.parameter:<16} span {row.span:10.3f}   "
                  f"best={row.best_setting!r:>8} worst={row.worst_setting!r}")
    return 0


def _explain_rule(rule_id: str) -> int:
    """Print one rule's full card: description, rationale, good/bad example.

    Everything comes off the rule class itself (docstring, ``rationale``,
    ``example_bad``/``example_good``), so this output cannot drift from
    the implementation the way hand-maintained docs can.
    """
    from .lintkit import all_rules

    wanted = rule_id.strip().upper()
    by_id = {rule.rule_id: rule for rule in all_rules()}
    rule = by_id.get(wanted)
    if rule is None:
        known = ", ".join(sorted(by_id))
        print(f"error: unknown rule id {rule_id!r} (known: {known})",
              file=sys.stderr)
        return 2
    print(f"{rule.rule_id} — {rule.name} ({rule.severity.value})")
    print(f"  {rule.description}")
    doc = (rule.__doc__ or "").strip()
    if doc:
        print()
        print(f"  {doc}")
    if rule.rationale:
        print()
        print("why it matters:")
        print(f"  {rule.rationale}")
    if rule.example_bad:
        print()
        print("bad:")
        for line in rule.example_bad.rstrip("\n").splitlines():
            print(f"    {line}")
    if rule.example_good:
        print()
        print("good:")
        for line in rule.example_good.rstrip("\n").splitlines():
            print(f"    {line}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from collections import Counter
    from pathlib import Path

    from .errors import LintError
    from .lintkit import (
        Linter,
        all_rules,
        filter_findings,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        save_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name} ({rule.severity.value}): "
                  f"{rule.description}")
        return 0
    if args.explain:
        return _explain_rule(args.explain)
    select = None
    if args.select:
        select = {
            rule_id.strip()
            for chunk in args.select
            for rule_id in chunk.split(",")
            if rule_id.strip()
        }
        if not select:
            print("error: --select was given but names no rule ids",
                  file=sys.stderr)
            return 2
    try:
        linter = Linter(select=select)
        findings = linter.lint_paths([Path(p) for p in args.paths])
        if args.write_baseline or args.update_baseline:
            baseline_path = Path(args.baseline)
            old = (
                load_baseline(baseline_path)
                if args.update_baseline and baseline_path.is_file()
                else Counter()
            )
            save_baseline(findings, baseline_path)
            if args.update_baseline:
                new = Counter(finding.key() for finding in findings)
                added = sum((new - old).values())
                removed = sum((old - new).values())
                print(f"updated {args.baseline}: {len(findings)} "
                      f"finding(s) (+{added} added, -{removed} removed)")
            else:
                print(f"wrote {len(findings)} finding(s) to {args.baseline}")
            return 0
        grandfathered = []
        if Path(args.baseline).is_file():
            findings, grandfathered = filter_findings(
                findings, load_baseline(Path(args.baseline))
            )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings, statistics=args.statistics))
    elif args.format == "sarif":
        print(render_sarif(findings, rules=[type(r) for r in linter.rules]))
    else:
        print(render_text(findings, statistics=args.statistics))
        if grandfathered:
            print(f"({len(grandfathered)} grandfathered finding(s) "
                  f"suppressed by {args.baseline})")
    return 1 if findings else 0


def _precompute_distances(text: str):
    """Parse ``--precompute``: 'table1', 'none', or comma-separated metres."""
    from .config import TABLE_I_SPACE as space
    from .errors import ConfigurationError

    cleaned = text.strip().lower()
    if cleaned == "none":
        return ()
    if cleaned == "table1":
        return space.distances_m
    try:
        distances = tuple(
            float(part) for part in cleaned.split(",") if part.strip()
        )
    except ValueError:
        raise ConfigurationError(
            f"--precompute must be 'table1', 'none', or comma-separated "
            f"distances in metres, got {text!r}"
        ) from None
    if not distances:
        raise ConfigurationError(
            f"--precompute names no distances: {text!r}"
        )
    return distances


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.optimization import TuningGrid
    from .serve import Oracle, OracleService, make_server

    grid = TuningGrid(
        payload_values_bytes=tuple(range(2, 115, args.payload_step))
    )
    oracle = Oracle(
        environment=HALLWAY_2012,
        grid=grid,
        lru_capacity=args.lru_capacity,
        policy=args.policy,
        snr_quantum_db=args.snr_quantum_db,
    )
    if args.precompute:
        print(
            f"precomputing {len(args.precompute)} grid table(s) "
            f"({len(grid)} configurations each) ...",
            file=sys.stderr,
        )
        oracle.precompute(args.precompute)
    if args.policy:
        # Only the default objective eagerly (keeps startup inside the CI
        # health-check budget); other objectives compile on first use.
        oracle.precompute_policies(("energy",))
    ingestor = None
    if args.telemetry_links:
        from .fleet import FleetState
        from .sim.rng import RngStreams
        from .telemetry import SnrEstimator, TelemetryIngestor

        rng = RngStreams(args.telemetry_seed).stream("telemetry-serve")
        base_snr_db = rng.uniform(5.0, 25.0, size=args.telemetry_links)
        ingestor = TelemetryIngestor(
            FleetState.from_base_snr(base_snr_db),
            SnrEstimator(alpha=args.telemetry_alpha),
        )
    service = OracleService(
        oracle,
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        max_batch=args.max_batch,
        default_timeout_s=args.timeout_s,
        retry_after_s=args.retry_after_s,
        ingestor=ingestor,
    )
    server = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    telemetry_note = (
        f", telemetry={args.telemetry_links} links" if ingestor else ""
    )
    policy_note = (
        f", policy@{args.snr_quantum_db:g}dB" if args.policy else ""
    )
    # A background job of a non-interactive shell starts with SIGINT
    # ignored, so Python's KeyboardInterrupt is not installed there: take
    # both stop signals explicitly, onto the same clean-shutdown path —
    # before announcing readiness, so a signal sent on "listening" stops
    # the server instead of landing in the old disposition.
    previous = {
        signum: signal.signal(signum, _raise_interrupt)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        print(
            f"wsnlink oracle listening on http://{args.host}:{server.port} "
            f"(workers={args.workers}, queue={args.queue_capacity}, "
            f"max_batch={args.max_batch}, grid={len(grid)} configs"
            f"{policy_note}{telemetry_note})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupt received, shutting down", file=sys.stderr)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        service.close()
    return 0


def _raise_interrupt(signum: int, frame: object) -> None:
    """Signal handler: stop ``wsnlink serve`` as Ctrl-C would."""
    raise KeyboardInterrupt


def _parse_constraint(text: str):
    """Parse ``--constraint``: ``objective=max`` (e.g. ``delay=40``)."""
    from .core.optimization import Constraint
    from .errors import ConfigurationError

    objective, separator, bound = text.partition("=")
    if not separator or not objective.strip():
        raise ConfigurationError(
            f"--constraint must look like objective=max "
            f"(e.g. delay=40), got {text!r}"
        )
    try:
        upper_bound = float(bound)
    except ValueError:
        raise ConfigurationError(
            f"--constraint bound must be a number, got {bound!r}"
        ) from None
    return Constraint(objective=objective.strip(), upper_bound=upper_bound)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .core.optimization import TuningGrid
    from .fleet import FleetDrift, FleetEngine, build_topology, run_fleet

    topology = build_topology(
        args.topology, args.links, seed=args.seed, link_mode=args.link_mode
    )
    grid = TuningGrid(
        payload_values_bytes=tuple(range(2, 115, args.payload_step))
    )
    routed = args.routing is not None
    if routed:
        from .routing import RoutedFleetEngine, routes_for_topology

        table = routes_for_topology(
            topology, sink=args.sink, strategy=args.routing
        )
        engine = RoutedFleetEngine(
            table,
            grid=grid,
            objective=args.objective,
            constraints=tuple(args.constraint or ()),
            path_loss_eps=args.path_loss_eps,
            hysteresis=args.hysteresis,
            snr_quantum_db=args.snr_quantum_db,
            strict=args.strict,
        )
    else:
        engine = FleetEngine(
            grid=grid,
            objective=args.objective,
            constraints=tuple(args.constraint or ()),
            hysteresis=args.hysteresis,
            snr_quantum_db=args.snr_quantum_db,
            strict=args.strict,
        )
    drift = FleetDrift(
        topology, seed=args.seed, step_interval_s=args.step_interval_s
    )
    stats = topology.stats()
    print(
        f"fleet: {stats['n_links']} links over {stats['n_nodes']} nodes "
        f"({topology.kind} topology, seed {topology.seed}), "
        f"{len(engine)} configurations per solve"
    )
    if routed:
        info = engine.routing_info()
        print(
            f"routing: {info['strategy']} strategy rooted at sink "
            f"{info['sink']}, {info['n_paths']} leaf paths, max "
            f"{info['max_hops']} hops"
            + (
                f", path loss budget {args.path_loss_eps}"
                if args.path_loss_eps is not None
                else ""
            )
        )

    def show(report) -> None:
        line = report.stats()
        message = (
            f"  step {line['step']:>4}: {line['n_unique_snr_bins']:>4} SNR "
            f"bins, {line['n_reconfigured']:>5} reconfigured, "
            f"{line['n_infeasible']:>5} infeasible, "
            f"mean {args.objective} {line['objective_mean']:.4f}"
        )
        if routed:
            message += (
                f", {report.n_paths_feasible}/{report.n_paths} paths ok"
            )
        print(message)

    result = run_fleet(
        topology,
        engine,
        drift,
        args.steps,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        progress=show,
    )
    if result.n_steps_replayed:
        print(f"replayed {result.n_steps_replayed} checkpointed step(s), "
              f"executed {result.n_steps_executed}")
    configured = int((result.state.config_index >= 0).sum())
    print(
        f"final: {configured}/{len(result.state)} links configured after "
        f"{result.n_steps_total} step(s)"
    )
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    return 0


def _build_simulator(args: argparse.Namespace):
    """A (simulator, serving_state) pair from shared telemetry CLI flags."""
    from .fleet import FleetDrift, FleetState, grid_topology
    from .telemetry import DeviceFleetSimulator, TEMPLATE_REGISTRY

    topology = grid_topology(args.links, seed=args.seed)
    truth = FleetState.from_topology(topology)
    serving = FleetState.from_topology(topology)
    drift = (
        FleetDrift(topology, seed=args.seed, step_interval_s=1.0)
        if args.drift
        else None
    )
    simulator = DeviceFleetSimulator(
        truth,
        template=TEMPLATE_REGISTRY[args.template],
        mode=args.mode,
        seed=args.seed,
        report_prob=args.report_prob,
        burst_prob=args.burst_prob,
        burst_len=args.burst_len,
        noise_db=args.noise_db,
        drop_prob=args.drop_prob,
        duplicate_prob=args.duplicate_prob,
        drift=drift,
    )
    return simulator, serving


def _cmd_telemetry_simulate(args: argparse.Namespace) -> int:
    simulator, _ = _build_simulator(args)
    frame_bytes = simulator.codec.frame_bytes
    n_uplinks = 0
    n_bytes = 0
    chunks = []
    for _ in range(args.ticks):
        payload = simulator.tick()
        if not payload:
            continue
        n_uplinks += len(payload) // frame_bytes
        n_bytes += len(payload)
        if args.out is not None:
            chunks.append(payload)
        if args.post is not None:
            import json as json_module
            import urllib.request

            request = urllib.request.Request(
                args.post.rstrip("/") + "/v1/telemetry",
                data=payload,
                headers={"Content-Type": "application/octet-stream"},
            )
            with urllib.request.urlopen(request) as response:
                report = json_module.loads(response.read())["report"]
            print(
                f"  tick {simulator.n_ticks:>4}: "
                f"{report['n_accepted']}/{report['n_uplinks']} accepted, "
                f"{report['n_links_updated']} links updated"
            )
    if args.out is not None:
        with open(args.out, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
    print(
        f"simulated {args.ticks} tick(s) over {args.links} link(s) "
        f"({args.mode}, template v{args.template}): {n_uplinks} uplinks, "
        f"{n_bytes} bytes ({frame_bytes} B/frame)"
    )
    if args.out is not None:
        print(f"frames written to {args.out}")
    return 0


def _cmd_telemetry_decode(args: argparse.Namespace) -> int:
    from .telemetry import (
        TEMPLATE_REGISTRY,
        decode_uplink_batch,
        default_codecs,
    )

    with open(args.path, "rb") as handle:
        payload = handle.read()
    version, columns = decode_uplink_batch(payload, default_codecs())
    template = TEMPLATE_REGISTRY[version]
    n_uplinks = len(next(iter(columns.values())))
    print(
        f"{args.path}: {n_uplinks} uplink(s), template "
        f"'{template.name}' v{version} ({template.frame_bytes} B/frame)"
    )
    if args.json:
        import json as json_module

        names = list(columns)
        for row in range(n_uplinks):
            record = {
                name: columns[name][row].item() for name in names
            }
            print(json_module.dumps(record))
        return 0
    for name, column in columns.items():
        print(
            f"  {name:>12}: min {column.min():>10.4g}  "
            f"mean {column.mean():>10.4g}  max {column.max():>10.4g}"
        )
    return 0


def _cmd_telemetry_ingest_bench(args: argparse.Namespace) -> int:
    import time

    from .telemetry import SnrEstimator, TelemetryIngestor

    simulator, serving = _build_simulator(args)
    ingestor = TelemetryIngestor(
        serving, SnrEstimator(alpha=args.alpha)
    )
    n_uplinks = 0
    decode_ms = 0.0
    apply_ms = 0.0
    started = time.perf_counter()
    for _ in range(args.ticks):
        payload = simulator.tick()
        if not payload:
            continue
        report = ingestor.ingest(payload)
        n_uplinks += report.n_uplinks
        decode_ms += report.decode_ms
        apply_ms += report.apply_ms
    elapsed_s = time.perf_counter() - started
    totals = ingestor.totals()
    rate = n_uplinks / elapsed_s if elapsed_s > 0 else float("inf")
    print(
        f"ingested {n_uplinks} uplink(s) in {args.ticks} tick(s) over "
        f"{args.links} link(s): {elapsed_s * 1e3:.2f} ms total "
        f"({rate:,.0f} uplinks/s)"
    )
    print(
        f"  decode {decode_ms:.2f} ms, apply {apply_ms:.2f} ms; "
        f"accepted {totals['accepted']}, duplicate {totals['duplicate']}, "
        f"out-of-order {totals['out_of_order']}, "
        f"gap uplinks {totals['gap_uplinks']}"
    )
    snapshot = ingestor.state_snapshot()
    print(
        f"  fleet: {snapshot['n_links_measured']}/{snapshot['n_links']} "
        f"links measured, mean SNR {snapshot['snr_mean_db']:.2f} dB "
        f"(mean |innovation| {snapshot['mean_abs_innovation_db']:.3f} dB)"
    )
    return 0


def _add_telemetry_sim_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``telemetry simulate`` and ``telemetry ingest-bench``."""
    parser.add_argument("--links", type=int, default=64,
                        help="number of links in the simulated fleet")
    parser.add_argument("--ticks", type=int, default=10,
                        help="reporting intervals to replay")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for topology, traffic, and noise")
    parser.add_argument("--mode", choices=("periodic", "jittered", "bursty"),
                        default="periodic",
                        help="per-tick reporting shape")
    parser.add_argument("--template", type=int, choices=(1, 2), default=1,
                        help="payload template version (1 = fixed-point "
                             "RSSI/noise, 2 = exact float64 SNR)")
    parser.add_argument("--report-prob", type=float, default=0.8,
                        help="per-tick report probability (jittered mode)")
    parser.add_argument("--burst-prob", type=float, default=0.1,
                        help="per-tick burst probability (bursty mode)")
    parser.add_argument("--burst-len", type=int, default=5,
                        help="readings per burst (bursty mode)")
    parser.add_argument("--noise-db", type=float, default=0.0,
                        help="gaussian measurement noise std (dB)")
    parser.add_argument("--drop-prob", type=float, default=0.0,
                        help="probability an uplink is lost in transit "
                             "(producing receiver-visible sequence gaps)")
    parser.add_argument("--duplicate-prob", type=float, default=0.0,
                        help="probability a frame is delivered twice")
    parser.add_argument("--drift", action="store_true",
                        help="evolve the truth SNRs with the fleet drift "
                             "model between ticks")


def build_parser() -> argparse.ArgumentParser:
    """The ``wsnlink`` argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(
        prog="wsnlink",
        description=(
            "WSN link multi-layer parameter configuration: simulator, "
            "empirical models and joint optimization (ICDCS 2015 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-config", help="simulate one configuration")
    _add_config_arguments(p)
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_run_config)

    p = sub.add_parser("sweep", help="run a campaign slice")
    p.add_argument("--distance-m", type=float, default=None)
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--limit", type=int, default=None, help="max configs to run")
    p.add_argument("--packets", type=int, default=300)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--engine", choices=("des", "fast"), default="des")
    p.add_argument("--output", default="campaign.jsonl")
    p.add_argument("--resume", action="store_true",
                   help="checkpoint to --output row-by-row and continue an "
                        "interrupted run instead of starting over")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="re-fit the empirical models")
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("case-study", help="Table IV trade-off comparison")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_case_study)

    p = sub.add_parser("guidelines", help="tuning recommendations for a link")
    p.add_argument("--distance-m", type=float, default=35.0)
    p.add_argument("--t-pkt-ms", type=float, default=30.0)
    p.add_argument("--payload-bytes", type=int, default=110)
    p.add_argument("--n-max-tries", type=int, default=3)
    p.set_defaults(func=_cmd_guidelines)

    p = sub.add_parser("validate", help="model-vs-dataset validation report")
    p.add_argument("--dataset", required=True, help="JSON-lines campaign file")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="relative-error threshold for the refit flag")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("export-trace", help="simulate and export per-packet log")
    _add_config_arguments(p)
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="trace.jsonl")
    p.add_argument("--packets-only", action="store_true",
                   help="omit per-transmission rows")
    p.set_defaults(func=_cmd_export_trace)

    p = sub.add_parser("link-budget", help="SNR margins and coverage")
    p.add_argument("--distance-m", type=float, default=20.0)
    p.add_argument("--required-snr", type=float, default=19.0,
                   help="SNR requirement for cheapest-level/coverage queries")
    p.set_defaults(func=_cmd_link_budget)

    p = sub.add_parser("sensitivity", help="per-knob metric sensitivity")
    p.add_argument("--distance-m", type=float, default=35.0)
    p.add_argument("--payload-bytes", type=int, default=80)
    p.add_argument("--n-max-tries", type=int, default=3)
    p.add_argument("--t-pkt-ms", type=float, default=50.0)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("lint", help="reprolint static analysis (RPR rules)")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text")
    p.add_argument("--select", action="append", metavar="RPR00x[,RPR00y]",
                   help="run only these rule ids (repeatable)")
    p.add_argument("--baseline", default="reprolint-baseline.json",
                   help="baseline file of grandfathered findings")
    p.add_argument("--write-baseline", action="store_true",
                   help="write current findings to the baseline and exit")
    p.add_argument("--update-baseline", action="store_true",
                   help="regenerate the baseline and report what changed")
    p.add_argument("--statistics", action="store_true",
                   help="append per-rule finding counts to the report")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--explain", metavar="RPRnnn",
                   help="print one rule's rationale and a minimal good/bad "
                        "example, then exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("serve", help="run the link-configuration oracle "
                                     "as an HTTP JSON service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="oracle worker threads")
    p.add_argument("--queue-capacity", type=int, default=128,
                   help="bounded work queue size; overflow is rejected "
                        "with 503 + Retry-After")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max same-link recommend requests coalesced into "
                        "one grid evaluation")
    p.add_argument("--timeout-s", type=float, default=30.0,
                   help="per-request deadline")
    p.add_argument("--retry-after-s", type=float, default=1.0,
                   help="back-off hint on 503 rejections")
    p.add_argument("--lru-capacity", type=int, default=64,
                   help="off-grid links kept in the LRU table cache")
    p.add_argument("--payload-step", type=int, default=2,
                   help="payload quantization of the tuning grid (bytes); "
                        "larger steps trade answer granularity for "
                        "faster cold builds")
    p.add_argument("--precompute", type=_precompute_distances,
                   default="table1", metavar="table1|none|D1,D2,...",
                   help="tier-1 grid tables built at startup "
                        "(default: the Table I distances)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.add_argument("--telemetry-links", type=int, default=0,
                   help="enable POST /v1/telemetry backed by a measured "
                        "fleet of this many links (0 disables telemetry)")
    p.add_argument("--telemetry-seed", type=int, default=0,
                   help="seed for the measured fleet's base SNRs")
    p.add_argument("--telemetry-alpha", type=float, default=0.25,
                   help="EWMA weight of the serving SNR estimator")
    p.add_argument("--policy", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="serve default-bounds recommends from precompiled "
                        "O(1) SNR policy tables (--no-policy restores the "
                        "solver-per-request path)")
    p.add_argument("--snr-quantum-db", type=float, default=0.25,
                   help="SNR bin width of the policy tables and the "
                        "quantized cache keys")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("fleet", help="simulate a deployment of drifting "
                                     "links with batched reconfiguration")
    p.add_argument("--links", type=int, default=100,
                   help="number of links in the deployment")
    p.add_argument("--steps", type=int, default=10,
                   help="drift/solve steps to run")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for topology placement and channel drift")
    p.add_argument("--topology", choices=("grid", "random"), default="grid",
                   help="node placement: jittered grid or random geometric")
    p.add_argument("--link-mode", choices=("distance", "snr"),
                   default="distance",
                   help="bind each edge as a distance link (channel model) "
                        "or a reference-SNR link (Table IV convention)")
    p.add_argument("--objective", default="energy",
                   choices=tuple(OBJECTIVE_PLANES))
    p.add_argument("--constraint", type=_parse_constraint, action="append",
                   metavar="OBJ=MAX",
                   help="epsilon-constraint, e.g. delay=40 (repeatable)")
    p.add_argument("--hysteresis", type=float, default=0.05,
                   help="relative objective improvement required before a "
                        "link switches configuration")
    p.add_argument("--snr-quantum-db", type=float, default=0.25,
                   help="SNR bin width shared across links (0 = exact "
                        "per-link solves)")
    p.add_argument("--step-interval-s", type=float, default=1.0,
                   help="simulated seconds between drift steps")
    p.add_argument("--payload-step", type=int, default=2,
                   help="payload quantization of the tuning grid (bytes)")
    p.add_argument("--strict", action="store_true",
                   help="fail the run when any link is infeasible instead "
                        "of marking it unconfigured")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="append each step durably to this JSONL file")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted run from --checkpoint "
                        "(bit-identical to an uninterrupted run)")
    p.add_argument("--routing", choices=("tree", "mesh"), default=None,
                   help="route the fleet to a sink and optimize end to "
                        "end: 'tree' builds a minimum-hop collection "
                        "tree, 'mesh' a shortest-path tree over all "
                        "edges (euclidean cost)")
    p.add_argument("--sink", type=int, default=None,
                   help="sink node index for --routing (default: the "
                        "highest-degree node)")
    p.add_argument("--path-loss-eps", type=float, default=None,
                   metavar="EPS",
                   help="end-to-end loss budget: require P(loss) <= EPS "
                        "on every leaf-to-sink path (implies a per-hop "
                        "loss constraint on the solver)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("telemetry", help="device-uplink tooling: simulate "
                                         "traffic, decode frames, benchmark "
                                         "the ingest pipeline")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)

    ps = tsub.add_parser("simulate", help="replay a simulated device fleet "
                                          "to a file or a running server")
    _add_telemetry_sim_arguments(ps)
    ps.add_argument("--out", default=None, metavar="PATH",
                    help="write the emitted binary frames to this file")
    ps.add_argument("--post", default=None, metavar="URL",
                    help="POST each tick's batch to this wsnlink server "
                         "(e.g. http://127.0.0.1:8080)")
    ps.set_defaults(func=_cmd_telemetry_simulate)

    ps = tsub.add_parser("decode", help="decode a binary frame file and "
                                        "print column stats or JSON lines")
    ps.add_argument("path", help="file of concatenated uplink frames")
    ps.add_argument("--json", action="store_true",
                    help="print one JSON object per uplink instead of "
                         "column statistics")
    ps.set_defaults(func=_cmd_telemetry_decode)

    ps = tsub.add_parser("ingest-bench", help="run simulator → codec → "
                                              "ingest → estimator in-process "
                                              "and report throughput")
    _add_telemetry_sim_arguments(ps)
    ps.add_argument("--alpha", type=float, default=0.25,
                    help="EWMA weight of the SNR estimator")
    ps.set_defaults(func=_cmd_telemetry_ingest_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``wsnlink`` console script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
