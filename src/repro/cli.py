"""Command-line interface: quick demos without writing any code.

Installed as ``repro-o1`` (see pyproject.toml)::

    repro-o1 demo        # the quickstart comparison, one command
    repro-o1 demo --trace out.json   # ... with a Chrome-trace recording
    repro-o1 trace       # record a trace + cost-attribution report
    repro-o1 stats       # counters and latency histograms for a workload
    repro-o1 meminfo     # a fresh machine's memory accounting
    repro-o1 figures     # how to regenerate the paper's figures
    repro-o1 chaos       # crash-at-any-point exploration with recovery oracles
    repro-o1 sanitize    # run a workload with shadow-state sanitizers armed
    repro-o1 ras         # seeded media-fault sweep: scrub, retire, migrate
    repro-o1 ras --sweep 10   # ... across workload seeds 0..9
    repro-o1 lint        # O(1) conformance: the call-graph o1 pass
    repro-o1 lint --fit  # ... plus the empirical complexity fitter
    repro-o1 lint --alloc   # ... plus AllocSan and its tracemalloc check
    repro-o1 lint --dot callgraph.dot   # ... and write the call graph
    repro-o1 bench       # tier-1 wall-clock microbenchmarks
    repro-o1 bench --quick --compare BENCH_tier1.json   # CI regression gate
    repro-o1 profile     # wall-clock profile of the demo workload
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import (
    attribution_report,
    counters_report,
    format_meminfo,
    histogram_report,
    smaps,
)
from repro.core.fom import FileOnlyMemory
from repro.kernel import Kernel, MachineConfig
from repro.obs.export import export_tracer
from repro.units import GIB, MIB, fmt_ns


def _demo_kernel() -> Kernel:
    return Kernel(
        MachineConfig(
            dram_bytes=1 * GIB, nvm_bytes=4 * GIB,
            pmfs_extent_align_frames=512,
        )
    )


def _run_demo_workload(kernel: Kernel, mib: int, trace: bool = False):
    """The quickstart comparison; returns (demand, o1, app) measurements.

    With ``trace=True`` both measured phases record into the kernel's
    tracer under root spans, so attribution and Chrome-trace export work.
    """
    size = mib * MIB
    baseline = kernel.spawn("baseline")
    sys_calls = kernel.syscalls(baseline)
    va = sys_calls.mmap(size)
    with kernel.measure(trace=trace) as demand:
        kernel.access_range(baseline, va, size)
    fom = FileOnlyMemory(kernel)
    app = kernel.spawn("fom")
    with kernel.measure(trace=trace) as o1:
        region = fom.allocate(app, size)
        kernel.access_range(app, region.vaddr, size)
    return demand, o1, app


def _cmd_demo(args: argparse.Namespace) -> int:
    kernel = _demo_kernel()
    trace_path = getattr(args, "trace", None)
    demand, o1, app = _run_demo_workload(
        kernel, args.mib, trace=trace_path is not None
    )
    print(f"touch {args.mib} MiB, demand paging:    {fmt_ns(demand.elapsed_ns)} "
          f"({demand.counter_delta.get('fault_minor', 0)} faults)")
    print(f"touch {args.mib} MiB, file-only memory: {fmt_ns(o1.elapsed_ns)} "
          f"({o1.counter_delta.get('pte_write', 0)} PTE writes, 0 faults)")
    print()
    print(smaps(app))
    if trace_path is not None:
        count = export_tracer(trace_path, kernel.tracer)
        print()
        print(f"wrote {count} trace events to {trace_path} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    kernel = _demo_kernel()
    demand, o1, _app = _run_demo_workload(kernel, args.mib, trace=True)
    count = export_tracer(args.out, kernel.tracer)
    total = demand.elapsed_ns + o1.elapsed_ns
    print(f"wrote {count} trace events to {args.out} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    print()
    print("cost attribution, demand-paging phase:")
    print(attribution_report(
        demand.attribution, demand.elapsed_ns, kernel.tracer.process_names
    ))
    print()
    print("cost attribution, file-only-memory phase:")
    print(attribution_report(
        o1.attribution, o1.elapsed_ns, kernel.tracer.process_names
    ))
    print()
    print(f"measured total: {fmt_ns(total)} "
          f"(ring dropped {kernel.tracer.dropped_events} events)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    kernel = _demo_kernel()
    _run_demo_workload(kernel, args.mib, trace=True)
    print("latency histograms (simulated time per traced span):")
    print(histogram_report(kernel.counters))
    print()
    print("event counters:")
    print(counters_report(kernel.counters))
    return 0


def _cmd_meminfo(args: argparse.Namespace) -> int:
    kernel = Kernel(
        MachineConfig(dram_bytes=args.dram_gib * GIB, nvm_bytes=args.nvm_gib * GIB)
    )
    print(format_meminfo(kernel))
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    print("Regenerate every figure of the paper with:")
    print()
    print("    pytest benchmarks/ --benchmark-only")
    print()
    print("Tables land in benchmarks/results/*.txt (plus machine-readable")
    print(".json siblings); EXPERIMENTS.md maps each one to its figure and")
    print("the paper's claims.")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import explore, make_builder

    print(f"chaos: crash-at-any-point exploration, workload seed {args.seed}")
    progress = print if args.verbose else None
    report = explore(make_builder(seed=args.seed), progress=progress)
    print(report.summary())
    print()
    if report.ok():
        print(f"all {report.crash_points} crash points recover cleanly")
    else:
        print(f"{len(report.failures)} of {report.crash_points} crash points "
              "FAILED recovery (details above)")
    print(f"reproduce with: repro-o1 chaos --seed {args.seed}")
    return 0 if report.ok() else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.sanitize import DETECTORS, SanitizerSuite

    if args.detectors:
        detectors = tuple(
            name.strip() for name in args.detectors.split(",") if name.strip()
        )
    else:
        detectors = DETECTORS

    if args.chaos:
        from repro.chaos import explore, make_builder

        print(
            f"sanitize: chaos sweep with detectors {','.join(detectors)}, "
            f"workload seed {args.seed}"
        )
        build = make_builder(seed=args.seed)
        suites: List[SanitizerSuite] = []

        def armed_build():
            kernel, run = build()
            suite = kernel.arm_sanitizers(
                SanitizerSuite(detectors=detectors, halt=False)
            )
            suites.append(suite)
            return kernel, run

        progress = print if args.verbose else None
        chaos_report = explore(armed_build, progress=progress)
        print(chaos_report.summary())
        violations = [v for suite in suites for v in suite.violations]
        checks: dict = {}
        for suite in suites:
            for name, count in suite.checks.items():
                checks[name] = checks.get(name, 0) + count
        report = {
            "version": 1,
            "tool": "repro-o1 sanitize",
            "mode": "chaos",
            "seed": args.seed,
            "armed_detectors": list(detectors),
            "crash_points": chaos_report.crash_points,
            "chaos_failures": len(chaos_report.failures),
            "violation_count": len(violations),
            "violations": [v.to_dict() for v in violations],
            "checks": dict(sorted(checks.items())),
        }
        failed = bool(violations) or not chaos_report.ok()
    else:
        kernel = _demo_kernel()
        suite = kernel.arm_sanitizers(
            SanitizerSuite(detectors=detectors, halt=False)
        )
        print(
            f"sanitize: demo workload ({args.mib} MiB) with detectors "
            f"{','.join(detectors)}"
        )
        _run_demo_workload(kernel, args.mib)
        violations = suite.violations
        checks = suite.checks
        report = suite.report()
        report["mode"] = "demo"
        failed = bool(violations)

    total_checks = sum(checks.values())
    print(f"{total_checks} shadow-state checks, {len(violations)} violation(s)")
    for violation in violations:
        print(f"  VIOLATION {violation.format()}")
    if args.json is not None:
        path = Path(args.json)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote sanitize report to {path}")
    if not failed:
        print("no shadow-state violations")
    return 1 if failed else 0


def _run_ras_seed(seed: int, verbose: bool = False) -> dict:
    """One RAS sweep iteration: Fig-2 workload under seeded media faults.

    Arms sanitizers (collecting) and a seeded fault model, patrol-scrubs
    the whole machine before and after the workload, and returns a
    machine-readable verdict: sanitizer violations, RAS audit problems,
    and the recovery oracles' findings must all be empty.
    """
    from repro.chaos.oracles import run_oracles
    from repro.chaos.workloads import fig2_workload
    from repro.ras import FaultKind, MediaFaultModel
    from repro.sanitize import SanitizerSuite

    kernel, run = fig2_workload(seed)
    suite = kernel.arm_sanitizers(SanitizerSuite(halt=False))
    ras = kernel.arm_ras(model=MediaFaultModel(seed=seed))
    sampled_dead = sorted(
        fault.pfn
        for fault in ras.model.faults()
        if fault.kind is FaultKind.DEAD
    )
    if verbose:
        print(f"  seed {seed}: {len(ras.model.faults())} sampled faults, "
              f"{len(sampled_dead)} dead")
    # Patrol pass 1: retire every sampled dead frame and clear sticky
    # poison before the workload allocates on top of the faults.
    ras.scrubber.scrub_full()
    # The workload injects two more permanent faults mid-run (one free
    # block, one live file block), retires them, then crashes the
    # machine and recovers — retirement and migration under fire.
    run()
    # Patrol pass 2: anything that was busy on the first pass.
    ras.scrubber.scrub_full()
    ras_problems = ras.audit()
    oracle_problems = run_oracles(kernel)
    report = ras.report()
    report["workload_seed"] = seed
    report["sampled_dead"] = sampled_dead
    report["sanitizer_violations"] = [v.to_dict() for v in suite.violations]
    report["oracle_problems"] = oracle_problems
    report["ok"] = (
        not suite.violations and not ras_problems and not oracle_problems
    )
    return report


def _cmd_ras(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    seeds = list(range(args.sweep)) if args.sweep else [args.seed]
    print(f"ras: media-fault sweep over workload seed(s) "
          f"{seeds[0]}..{seeds[-1]}")
    results = []
    for seed in seeds:
        result = _run_ras_seed(seed, verbose=args.verbose)
        results.append(result)
        status = "ok" if result["ok"] else "FAILED"
        print(
            f"  seed {seed}: {len(result['sampled_dead'])} sampled dead, "
            f"{len(result['retired'])} retired, "
            f"{len(result['badblock_pfns'])} on the badblock list: {status}"
        )
        for problem in result["problems"] + result["oracle_problems"]:
            print(f"    PROBLEM {problem}")
        for violation in result["sanitizer_violations"]:
            print(f"    VIOLATION {violation}")
    failed = [r for r in results if not r["ok"]]
    if args.json is not None:
        payload = {
            "version": 1,
            "tool": "repro-o1 ras",
            "seeds": seeds,
            "failed_seeds": [r["workload_seed"] for r in failed],
            "results": results,
        }
        path = Path(args.json)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote ras report to {path}")
    if failed:
        print(f"{len(failed)} of {len(seeds)} seed(s) FAILED")
        return 1
    print(f"all {len(seeds)} seed(s) clean: every dead frame retired onto "
          "the persisted badblock list, no sanitizer violations")
    return 0


def _cmd_qos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.workloads.tenants import run_tenants

    seeds = list(range(args.sweep)) if args.sweep else [args.seed]
    print(
        f"qos: {args.tenants}-tenant fleet at {args.oversubscribe:.1f}x "
        f"DRAM oversubscription, seed(s) {seeds[0]}..{seeds[-1]}"
    )
    reports = []
    for seed in seeds:
        report = run_tenants(
            tenants=args.tenants,
            seed=seed,
            oversubscribe=args.oversubscribe,
        )
        reports.append(report)
        done = sum(r.requests_done for r in report.results)
        total = sum(r.requests_total for r in report.results)
        status = "ok" if report.ok() else "FAILED"
        print(
            f"  seed {seed}: {done}/{total} requests, "
            f"{len(report.kills)} oom kill(s), "
            f"{report.counters.get('qos_throttle_stall', 0)} throttle "
            f"stall(s): {status}"
        )
        for problem in report.problems():
            print(f"    PROBLEM {problem}")
    failed = [r for r in reports if not r.ok()]
    if len(reports) == 1:
        print(reports[0].summary())
    if args.json is not None:
        payload = {
            "version": 1,
            "tool": "repro-o1 qos",
            "seeds": seeds,
            "failed_seeds": [r.seed for r in failed],
            "results": [r.to_json() for r in reports],
        }
        path = Path(args.json)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote qos report to {path}")
    if failed:
        print(f"{len(failed)} of {len(reports)} seed(s) FAILED")
        return 1
    print(
        f"all {len(reports)} seed(s) clean: throttled tenants progressed, "
        "every OOM kill stayed inside the offending cgroup"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint.flow import run_flow
    from repro.lint.report import build_report, render_text, write_json

    if args.op and not args.fit:
        print("lint: --op selects operations for --fit; add --fit",
              file=sys.stderr)
        return 2
    if args.op:
        from repro.lint.ops import operations_by_name

        try:
            operations_by_name(args.op)
        except KeyError as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            return 2
    root = Path(args.root) if args.root else Path(__file__).parent
    if not root.is_dir():
        print(f"lint root {root} is not a directory", file=sys.stderr)
        return 2
    o1 = run_flow(root)
    failed = bool(o1.findings) or bool(o1.stale_suppressions)
    if args.dot is not None:
        dot_path = Path(args.dot)
        dot_path.parent.mkdir(parents=True, exist_ok=True)
        dot_path.write_text(o1.graph.to_dot(), encoding="utf-8")
        print(f"wrote call graph to {args.dot}")

    alloc = None
    allocfit_results = None
    if args.alloc:
        from repro.lint.alloc import run_alloc
        from repro.lint.allocfit import run_allocfit

        alloc = run_alloc(root, graph=o1.graph)
        allocfit_results = run_allocfit()
        failed = (
            failed
            or bool(alloc.findings)
            or bool(alloc.stale_suppressions)
            or any(not r.ok for r in allocfit_results)
        )

    fits = None
    sizes = None
    if args.fit:
        from repro.lint.ops import HEAVY_SIZES, LIGHT_SIZES, fit_all

        sizes = HEAVY_SIZES if args.sizes == "heavy" else LIGHT_SIZES
        fits = fit_all(sizes, names=args.op or None)
        failed = failed or any(not f.ok for f in fits)

    print(render_text(
        o1, fits, alloc=alloc, allocfit_results=allocfit_results,
    ))
    if args.json is not None:
        report = build_report(
            o1, fits, sizes=sizes, alloc=alloc,
            allocfit_results=allocfit_results,
        )
        write_json(Path(args.json), report)
        print(f"wrote machine-readable report to {args.json}")
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf import (
        MissingBaselineError,
        build_document,
        compare_to_baseline,
        env_fingerprint,
        ops_by_name,
        results_table,
        run_suite,
    )

    try:
        ops_by_name(args.op)
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    mode = "quick" if args.quick else "full"
    print(f"bench: tier-1 wall-clock microbenchmarks ({mode} mode)")
    results = run_suite(
        names=args.op or None,
        quick=args.quick,
        rounds=args.rounds,
        progress=print if args.verbose else None,
    )
    env = env_fingerprint()
    print()
    print(results_table(results))
    print()
    print(f"calibration: {env['calibration_ns']:,.0f} ns "
          f"({env['python']} on {env['machine']}, {env['cpus']} cpus)")
    if args.json is not None:
        from repro.perf import write_document

        document = build_document(results, env=env, mode=mode)
        write_document(args.json, document)
        print(f"wrote bench document to {args.json}")
    if args.compare is None:
        return 0
    print()
    try:
        report = compare_to_baseline(
            args.compare, results, env=env, mode=mode
        )
    except MissingBaselineError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if not report.ok:
        print(f"reproduce with: repro-o1 bench --compare {args.compare}")
        return 1
    baseline_name = Path(args.compare).name
    print(f"no wall-clock regressions against {baseline_name}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf import correlation_report, write_collapsed, write_pstats

    kernel = _demo_kernel()
    tracer = kernel.tracer
    # Trace the whole run, setup included, not just the measured phases.
    tracer.enable()
    demand, o1, _app = _run_demo_workload(kernel, args.mib, trace=True)
    # Done tracing: take the span wrappers out; the attributions stay.
    tracer.disable()
    total_sim = demand.elapsed_ns + o1.elapsed_ns
    spans = sum(row[0] for row in tracer.paths.values())
    print(f"profile: demo workload ({args.mib} MiB), "
          f"{spans} spans sampled on the wall clock")
    print()
    print("sim-cost vs wall-cost correlation:")
    print(correlation_report(
        tracer.attribution, tracer.wall_attribution, tracer.process_names,
    ))
    print()
    print(f"simulated total: {fmt_ns(total_sim)}; wall total attributed: "
          f"{fmt_ns(sum(tracer.wall_attribution.values()))}")
    if args.folded is not None:
        count = write_collapsed(tracer, args.folded)
        print(f"wrote {count} collapsed stacks to {args.folded} "
              "(feed to flamegraph.pl or speedscope)")
    if args.pstats is not None:
        count = write_pstats(tracer, args.pstats)
        print(f"wrote {count} pstats entries to {args.pstats} "
              "(load with python -m pstats)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro-o1 argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-o1",
        description="Towards O(1) Memory (HotOS '17) — simulator demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="demand paging vs file-only memory")
    demo.add_argument("--mib", type=int, default=16, help="region size in MiB")
    demo.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also record a Chrome-trace JSON of both measured phases",
    )
    demo.set_defaults(func=_cmd_demo)
    trace = sub.add_parser(
        "trace", help="record a trace and print cost attribution"
    )
    trace.add_argument("--mib", type=int, default=16, help="region size in MiB")
    trace.add_argument(
        "-o", "--out", default="trace.json", help="Chrome-trace JSON path"
    )
    trace.set_defaults(func=_cmd_trace)
    stats = sub.add_parser(
        "stats", help="counters and latency histograms for the demo workload"
    )
    stats.add_argument("--mib", type=int, default=16, help="region size in MiB")
    stats.set_defaults(func=_cmd_stats)
    meminfo = sub.add_parser("meminfo", help="fresh machine accounting")
    meminfo.add_argument("--dram-gib", type=int, default=4)
    meminfo.add_argument("--nvm-gib", type=int, default=16)
    meminfo.set_defaults(func=_cmd_meminfo)
    figures = sub.add_parser("figures", help="how to regenerate the figures")
    figures.set_defaults(func=_cmd_figures)
    chaos = sub.add_parser(
        "chaos",
        help="crash the Fig-2 workload at every fault site, check recovery",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; the printed seed reproduces any failure",
    )
    chaos.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-crash-point progress",
    )
    chaos.set_defaults(func=_cmd_chaos)
    sanitize = sub.add_parser(
        "sanitize",
        help="run a workload with the shadow-state sanitizer suite armed",
    )
    sanitize.add_argument(
        "--mib", type=int, default=16, help="demo region size in MiB"
    )
    sanitize.add_argument(
        "--detectors", metavar="LIST", default=None,
        help="comma-separated subset of trans,frame,persist (default: all)",
    )
    sanitize.add_argument(
        "--chaos", action="store_true",
        help="run the chaos crash-point sweep fully armed instead of the demo",
    )
    sanitize.add_argument(
        "--seed", type=int, default=0,
        help="chaos workload seed (with --chaos)",
    )
    sanitize.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-crash-point progress (with --chaos)",
    )
    sanitize.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable sanitize_report.json here",
    )
    sanitize.set_defaults(func=_cmd_sanitize)
    ras = sub.add_parser(
        "ras",
        help="seeded NVM media-fault sweep: scrub, retire, migrate, audit",
    )
    ras.add_argument(
        "--seed", type=int, default=0,
        help="workload + fault-model seed (ignored with --sweep)",
    )
    ras.add_argument(
        "--sweep", type=int, default=None, metavar="N",
        help="run seeds 0..N-1 instead of a single seed",
    )
    ras.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-seed fault details",
    )
    ras.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable ras_report.json here",
    )
    ras.set_defaults(func=_cmd_ras)
    qos = sub.add_parser(
        "qos",
        help="oversubscribed multi-tenant fleet under memcg pressure",
    )
    qos.add_argument(
        "--tenants", type=int, default=64,
        help="number of tenant cgroups (default 64)",
    )
    qos.add_argument(
        "--seed", type=int, default=0,
        help="fleet seed (ignored with --sweep)",
    )
    qos.add_argument(
        "--sweep", type=int, default=None, metavar="N",
        help="run seeds 0..N-1 instead of a single seed",
    )
    qos.add_argument(
        "--oversubscribe", type=float, default=2.0,
        help="sum of working sets as a multiple of DRAM (default 2.0)",
    )
    qos.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable qos_report.json here",
    )
    qos.set_defaults(func=_cmd_qos)
    lint = sub.add_parser(
        "lint",
        help="O(1) conformance: call-graph cost pass + complexity fitter",
    )
    lint.add_argument(
        "--root", default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--fit", action="store_true",
        help="also run registered operations and fit cost vs size",
    )
    lint.add_argument(
        "--sizes", choices=("light", "heavy"), default="light",
        help="operand-size ladder for --fit (default: light)",
    )
    lint.add_argument(
        "--op", action="append", metavar="NAME",
        help="with --fit, fit only this operation (repeatable; an "
             "unknown name exits 2)",
    )
    lint.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable lint_report.json here",
    )
    lint.add_argument(
        "--dot", metavar="PATH", default=None,
        help="write the call graph in Graphviz DOT format here",
    )
    lint.add_argument(
        "--alloc", action="store_true",
        help="also run AllocSan: allocation-shape analysis certifying "
             "@allocfree/@allocbound declarations over the hot-path "
             "closure, plus the tracemalloc empirical cross-check",
    )
    lint.set_defaults(func=_cmd_lint)
    bench = sub.add_parser(
        "bench",
        help="tier-1 wall-clock microbenchmarks + regression gate",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="bounded rounds and smaller batches (the CI gate mode)",
    )
    bench.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="override rounds per op (default: 15 full / 5 quick)",
    )
    bench.add_argument(
        "--op", action="append", metavar="NAME",
        help="run only this op (repeatable; an unknown name exits 2)",
    )
    bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the BENCH_tier1.json-schema document here",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="gate against a baseline document; exit 1 on regression, "
             "2 if the baseline file is missing",
    )
    bench.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-op progress as results land",
    )
    bench.set_defaults(func=_cmd_bench)
    profile = sub.add_parser(
        "profile",
        help="wall-clock profile of the demo workload (sim vs wall report)",
    )
    profile.add_argument(
        "--mib", type=int, default=16, help="region size in MiB"
    )
    profile.add_argument(
        "--folded", metavar="PATH", default=None,
        help="write flamegraph collapsed stacks here",
    )
    profile.add_argument(
        "--pstats", metavar="PATH", default=None,
        help="write a pstats.Stats-loadable profile here",
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
