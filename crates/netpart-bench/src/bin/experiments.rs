//! Regenerate the paper's tables and figures (plus ablations) on the
//! simulated testbed, and run the recovery correctness harnesses.
//!
//! ```text
//! cargo run --release -p netpart-bench --bin experiments -- all
//! cargo run --release -p netpart-bench --bin experiments -- table1 table2 fig3
//! cargo run --release -p netpart-bench --bin experiments -- export <dir>
//! ```
//!
//! [`COMMANDS`] is the whole surface: it drives dispatch, `all` and the
//! usage text. Every byte `all` prints and every `BENCH_*.json` a harness
//! writes is a function of the code — host time is the repo benchmark's
//! business (`benchmark/`), not this binary's.
//!
//! Exit status: 0 — every command ran and every invariant held; 1 — an
//! invariant was violated (one `command: reason` line each on stderr);
//! 2 — usage error (unknown subcommand) or harness error (a run that
//! must succeed returned an error, an artefact could not be written).

use std::sync::OnceLock;

use netpart_apps::stencil::StencilVariant;
use netpart_bench::*;
use netpart_calibrate::CalibratedCostModel;

/// Unwrap an experiment result or exit 2 with the error on stderr; the
/// library layer is fallible, the CLI boundary decides to die.
fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    })
}

/// What a command found wrong: one line per violated invariant, empty
/// when it passed. The reproduction tables have no invariant of their own.
type Violations = Vec<String>;

fn model() -> &'static CalibratedCostModel {
    static MODEL: OnceLock<CalibratedCostModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        eprintln!("[calibration — offline §3 step, once per process]");
        ok(paper_calibration())
    })
}

fn cmd_calibrate() -> Violations {
    let m = model();
    println!("§3 — fitted communication cost functions (ms):");
    println!("  T_comm[C, τ](b, p) = c1 + c2·p + b·(c3 + c4·p)\n");
    println!(
        "{:<8} {:<10} {:>10} {:>10} {:>12} {:>12} {:>6}",
        "cluster", "topology", "c1", "c2", "c3", "c4", "R²"
    );
    for row in calibration_report(m) {
        println!(
            "{:<8} {:<10} {:>10.4} {:>10.4} {:>12.6} {:>12.6} {:>6.3}",
            row.cluster,
            row.topology.to_string(),
            row.fit.c1,
            row.fit.c2,
            row.fit.c3,
            row.fit.c4,
            row.fit.r_squared
        );
    }
    if let Some(r) = m.router.get(&(0, 1)) {
        println!(
            "\nrouter(C1,C2): {:.4} + {:.6}·b ms   (paper: 0.0006·b)",
            r.a, r.k
        );
    }
    println!("\npaper's published 1-D constants for comparison:");
    println!("  Sparc2: (-0.0055 + 0.00283·p)·b + 1.1·p");
    println!("  IPC:    (-0.0123 + 0.00457·p)·b + 1.9·p");
    Violations::new()
}

fn cmd_transport() -> Violations {
    println!("Transport — lossless runs, so every retransmission is spurious:");
    let report = ok(transport_report(model()));
    print!("{}", render_transport(&report));
    report.violations()
}

fn cmd_table1() -> Violations {
    print!("{}", render_table1(&ok(table1())));
    Violations::new()
}

fn cmd_table2() -> Violations {
    let rows = ok(table2(model(), &PAPER_SIZES, PAPER_ITERS));
    print!("{}", render_table2(&rows));
    Violations::new()
}

fn cmd_fig2() -> Violations {
    let v = fig2_example();
    println!("Fig. 2 — 20×20 grid, 1-D partition over 4 processors:");
    for (rank, range) in v.ranges().into_iter().enumerate() {
        println!(
            "  p{}: rows {:>2}..{:>2}  (A={})",
            rank + 1,
            range.start,
            range.end,
            v.count(rank)
        );
    }
    Violations::new()
}

fn cmd_fig3() -> Violations {
    for (n, variant) in [
        (60u64, StencilVariant::Sten1),
        (600, StencilVariant::Sten1),
        (600, StencilVariant::Sten2),
    ] {
        let points = ok(fig3(model(), n, variant, PAPER_ITERS));
        print!("{}", render_fig3(n, variant, &points));
    }
    Violations::new()
}

fn cmd_breakdown() -> Violations {
    use netpart_apps::stencil::StencilVariant;
    println!("cycle-time breakdown (N=60 and N=600, STEN-1, per-rank means over the run):");
    for n in [60u64, 600] {
        println!("  N={n}:");
        println!(
            "  {:>7} {:>12} {:>10} {:>10} {:>8}",
            "config", "elapsed ms", "compute", "wait", "wait %"
        );
        for r in ok(cycle_breakdown(n, StencilVariant::Sten1, PAPER_ITERS)) {
            let busy = r.compute_ms + r.wait_ms;
            println!(
                "  ({},{})   {:>12.1} {:>10.1} {:>10.1} {:>7.0}%",
                r.config[0],
                r.config[1],
                r.elapsed_ms,
                r.compute_ms,
                r.wait_ms,
                if busy > 0.0 {
                    r.wait_ms / busy * 100.0
                } else {
                    0.0
                }
            );
        }
    }
    println!("  (region A = compute-dominated, region B = wait-dominated)");
    Violations::new()
}

fn cmd_overhead() -> Violations {
    let o = ok(overhead_report(model()));
    println!("§5/§6 — partitioning overhead (K=2, P=12, N=1200):");
    println!(
        "  T_c evaluations : {} (bound 2·K·(log₂P+1) = {})",
        o.evaluations, o.bound
    );
    println!(
        "  availability protocol: {:.2} ms simulated, {} messages",
        o.availability_ms, o.availability_messages
    );
    println!("  (stencil elapsed times are 10²–10⁴ ms: overhead is negligible)");
    Violations::new()
}

fn cmd_gauss() -> Violations {
    println!("§6 — Gaussian elimination with partial pivoting:");
    for row in ok(gauss_experiment(model(), &[64, 128, 256])) {
        println!(
            "N={:>4}: predicted ({},{}) → {:.1} ms (residual {:.2e})",
            row.n,
            row.predicted_config[0],
            row.predicted_config.get(1).copied().unwrap_or(0),
            row.predicted_ms,
            row.residual
        );
        for (c, ms) in row.probe_configs.iter().zip(&row.probe_ms) {
            println!("     probe ({},{}) → {:.1} ms", c[0], c[1], ms);
        }
        let best = row.probe_ms.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "     predicted within {:.1}% of best probe",
            (row.predicted_ms / best - 1.0) * 100.0
        );
    }
    Violations::new()
}

fn cmd_ablation_ordering() -> Violations {
    println!("A1 — cluster consideration order (STEN-1, 10 iters):");
    for r in ok(ablation_ordering(model(), &[300, 600, 1200], PAPER_ITERS)) {
        println!(
            "N={:>5}: fastest-first {:?} → {:.1} ms | slowest-first {:?} → {:.1} ms",
            r.n, r.fastest.0, r.fastest.1, r.slowest.0, r.slowest.1
        );
    }
    Violations::new()
}

fn cmd_ablation_placement() -> Violations {
    println!("A2 — task placement across the router ((6,6), STEN-1):");
    for r in ok(ablation_placement(&[300, 600, 1200], PAPER_ITERS)) {
        println!(
            "N={:>5}: contiguous {:.1} ms (1 crossing) | round-robin {:.1} ms (11 crossings) → {:.1}% penalty",
            r.n,
            r.contiguous_ms,
            r.round_robin_ms,
            (r.round_robin_ms / r.contiguous_ms - 1.0) * 100.0
        );
    }
    Violations::new()
}

fn cmd_ablation_search() -> Violations {
    println!("A3 — search strategies:");
    for s in ok(ablation_search(model(), &[60, 300, 600, 1200])) {
        println!("N={}:", s.n);
        for (name, config, tc, evals) in &s.rows {
            println!(
                "  {:<11} {:?}  Tc={:.2} ms  evaluations={}",
                name, config, tc, evals
            );
        }
    }
    Violations::new()
}

fn cmd_sensitivity() -> Violations {
    println!("A5 — cost-constant sensitivity:");
    for eps in [0.05, 0.15, 0.30] {
        let s = ok(ablation_sensitivity(
            model(),
            &[60, 300, 600, 1200],
            PAPER_ITERS,
            eps,
        ));
        println!(
            "±{:>4.0}%: decisions stable {:.0}% of cases, worst regression {:.1}%",
            eps * 100.0,
            s.stable_fraction * 100.0,
            s.worst_regression * 100.0
        );
    }
    Violations::new()
}

fn cmd_dynamic() -> Violations {
    println!("A4 — dynamic repartitioning under one loaded node (N=300, 30 iters):");
    for r in ok(ablation_dynamic(300, 30, &[0.0, 0.3, 0.6, 0.8])) {
        println!(
            "load {:>3.0}%: static {:.1} ms | dynamic {:.1} ms ({} rebalances) → {:+.1}%",
            r.load * 100.0,
            r.static_ms,
            r.dynamic_ms,
            r.rebalances,
            (r.dynamic_ms / r.static_ms - 1.0) * 100.0
        );
    }
    Violations::new()
}

fn cmd_ablation_decomposition() -> Violations {
    println!("A7 — 1-D rows vs 2-D blocks (6 Sparc2s, STEN-1 style):");
    for r in ok(ablation_decomposition(&[300, 600, 1200], 6, PAPER_ITERS)) {
        println!(
            "N={:>5}: 1-D {:.1} ms ({:.1} kB borders) | 2-D {:.1} ms ({:.1} kB borders) → {:+.1}%",
            r.n,
            r.one_d_ms,
            r.one_d_bytes as f64 / 1024.0,
            r.two_d_ms,
            r.two_d_bytes as f64 / 1024.0,
            (r.two_d_ms / r.one_d_ms - 1.0) * 100.0
        );
    }
    Violations::new()
}

fn cmd_cross_traffic() -> Violations {
    println!("A8 — background cross-traffic on the Sparc2 segment ((4,0) stencil):");
    for (n, label) in [
        (300u64, "N=300 (compute-dominated)"),
        (60, "N=60 (comm-dominated)"),
    ] {
        println!("  {label}:");
        for r in ok(ablation_cross_traffic(
            n,
            PAPER_ITERS,
            &[0.0, 0.1, 0.3, 0.5, 0.7],
        )) {
            println!(
                "    offered {:>3.0}%: {:>7.1} ms ({:.2}× the quiet channel)",
                r.offered_load * 100.0,
                r.elapsed_ms,
                r.slowdown
            );
        }
    }
    println!("(quiet-network calibration underestimates comm-bound configurations\n the most once other users load the wire)");
    Violations::new()
}

fn cmd_scalability() -> Violations {
    println!("§5 scalability — heuristic evaluations vs system size (N=4800 stencil):");
    println!(
        "{:>4} {:>8} {:>13} {:>8} {:>16}",
        "K", "P", "evaluations", "bound", "exhaustive space"
    );
    for r in ok(scalability(&[2, 4, 8, 16, 32], 8, 4800)) {
        println!(
            "{:>4} {:>8} {:>13} {:>8} {:>16.1e}",
            r.k, r.total_p, r.evaluations, r.bound, r.exhaustive_space
        );
    }
    println!("(evaluations grow linearly in K, each O(K) flops — the exhaustive\n cross-product is hopeless beyond a handful of clusters)");
    Violations::new()
}

fn cmd_metasystem() -> Violations {
    println!("A6 — three-cluster metasystem (RS6000 + HP + Sparc2, coercion active):");
    for r in ok(metasystem_experiment(&[300, 900], PAPER_ITERS)) {
        println!(
            "N={:>4}: chose {:?}, predicted Tc {:.1} ms, measured {:.1} ms, best probe {:.1} ms",
            r.n, r.config, r.predicted_tc_ms, r.measured_ms, r.best_probe_ms
        );
    }
    Violations::new()
}

fn cmd_export(dir: &str) {
    use netpart_apps::stencil::StencilVariant;
    let dir = std::path::Path::new(dir);
    let t1 = ok(table1());
    let t2 = ok(table2(model(), &PAPER_SIZES, PAPER_ITERS));
    let curves = vec![
        (
            "sten1_n60".to_owned(),
            ok(fig3(model(), 60, StencilVariant::Sten1, PAPER_ITERS)),
        ),
        (
            "sten1_n600".to_owned(),
            ok(fig3(model(), 600, StencilVariant::Sten1, PAPER_ITERS)),
        ),
        (
            "sten2_n600".to_owned(),
            ok(fig3(model(), 600, StencilVariant::Sten2, PAPER_ITERS)),
        ),
    ];
    for f in ok(export_csv(dir, &t1, &t2, &curves).map_err(|e| format!("export failed: {e}"))) {
        println!("wrote {}", f.display());
    }
}

/// Fixed seeds for the chaos harness (mirrored by `tests/chaos.rs` and CI).
const CHAOS_SEEDS: [u64; 3] = [11, 23, 1994];

/// Write a `BENCH_*.json` artefact into the working directory.
fn write_artifact(path: &str, json: &str) {
    ok(std::fs::write(path, json).map_err(|e| format!("{path} not written: {e}")));
    println!("\nwrote {path}");
}

fn cmd_faults() -> Violations {
    println!("Fault injection — checkpointed repartition-and-resume:");
    let rows = ok(faults_table(model()));
    print!("{}", render_faults(&rows));
    println!("\nChaos harness — seeded random fault schedules:");
    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        chaos.extend(ok(chaos_run(seed, model())));
    }
    print!("{}", render_chaos(&chaos));
    write_artifact("BENCH_faults.json", &faults_json(&rows, &chaos));
    faults_violations(&rows, &chaos)
}

fn cmd_drift() -> Violations {
    println!("Gray-failure drift — detect, recalibrate, repartition-on-degradation:");
    let rows = ok(drift_table(model()));
    print!("{}", render_drift(&rows));
    println!("\nDrift chaos harness — seeded transient-fault schedules under Adapt:");
    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        chaos.extend(ok(drift_chaos_run(seed, model())));
    }
    print!("{}", render_drift_chaos(&chaos));
    write_artifact("BENCH_drift.json", &drift_json(&rows, &chaos));
    drift_violations(&rows, &chaos)
}

fn cmd_congestion() -> Violations {
    println!(
        "Congested links — bounded queues, marks, window backpressure, segment-attributed drift:"
    );
    let report = ok(congestion_report(model(), 120, 30));
    print!("{}", render_congestion(&report));
    write_artifact("BENCH_congestion.json", &congestion_json(&report));
    report.violations()
}

fn cmd_chaos_fuzz() -> Violations {
    println!("Chaos fuzzer — seeded random schedules over the whole fault model:");
    // 120 sweep seeds plus the fixed CI seeds, over two targets (STEN-1 and
    // GAUSS): 246 schedules, each checked against the recover-bit-identical-
    // or-typed-error invariant.
    let seeds: Vec<u64> = (0..120).chain(CHAOS_SEEDS).collect();
    let report = ok(chaos_fuzz(model(), &seeds));
    print!("{}", render_chaos_fuzz(&report));
    write_artifact("BENCH_chaos.json", &chaos_fuzz_json(&report));
    report.violations()
}

/// Print a fabric chaos report and write `BENCH_chaos_fabric.json`; a
/// directed single-spine outage that errored instead of completing via
/// reroute is a violation like any other.
fn report_chaos_fabric(report: &ChaosFabricReport) -> Violations {
    print!("{}", render_chaos_fabric(report));
    write_artifact("BENCH_chaos_fabric.json", &chaos_fabric_json(report));
    report.violations()
}

fn cmd_chaos_fabric() -> Violations {
    println!("Fabric chaos — seeded schedules against tree/fat-tree at 256 and 1024 nodes:");
    report_chaos_fabric(&ok(chaos_fabric()))
}

fn cmd_chaos_fabric_smoke() -> Violations {
    println!("Fabric chaos smoke (256-node fat-tree cells + directed spine outage):");
    report_chaos_fabric(&ok(chaos_fabric_smoke()))
}

/// A subcommand: its name, whether `all` includes it, and the function
/// that runs it.
type Command = (&'static str, bool, fn() -> Violations);

/// Every subcommand but `all` and `export <dir>`. `all` runs them in this
/// order and leaves out `chaos-fabric` (its 1024-node cells take
/// minutes) and its CI subset `chaos-fabric-smoke`.
const COMMANDS: [Command; 24] = [
    ("calibrate", true, cmd_calibrate),
    ("transport", true, cmd_transport),
    ("table1", true, cmd_table1),
    ("table2", true, cmd_table2),
    ("fig2", true, cmd_fig2),
    ("fig3", true, cmd_fig3),
    ("breakdown", true, cmd_breakdown),
    ("overhead", true, cmd_overhead),
    ("gauss", true, cmd_gauss),
    ("ablation-ordering", true, cmd_ablation_ordering),
    ("ablation-placement", true, cmd_ablation_placement),
    ("ablation-search", true, cmd_ablation_search),
    ("sensitivity", true, cmd_sensitivity),
    ("dynamic", true, cmd_dynamic),
    ("ablation-decomposition", true, cmd_ablation_decomposition),
    ("crosstraffic", true, cmd_cross_traffic),
    ("scalability", true, cmd_scalability),
    ("metasystem", true, cmd_metasystem),
    ("faults", true, cmd_faults),
    ("drift", true, cmd_drift),
    ("congestion", true, cmd_congestion),
    ("chaos-fuzz", true, cmd_chaos_fuzz),
    ("chaos-fabric", false, cmd_chaos_fabric),
    ("chaos-fabric-smoke", false, cmd_chaos_fabric_smoke),
];

fn usage() -> String {
    let names = |in_all: bool| {
        let of_kind = COMMANDS.iter().filter(|c| c.1 == in_all).map(|c| c.0);
        of_kind.collect::<Vec<_>>().join(" ")
    };
    format!(
        "usage: experiments [all] [export <dir>] [<subcommand>...]\n  \
         in `all`:     {}\n  by name only: {}",
        names(true),
        names(false)
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `export <dir>` writes CSVs and is positional: the word after it is
    // the directory, whatever it spells.
    let export_dir = args.iter().position(|a| a == "export").map(|pos| {
        args.remove(pos);
        if pos < args.len() {
            args.remove(pos)
        } else {
            "experiment-results".to_owned()
        }
    });
    if args.is_empty() && export_dir.is_none() {
        args.push("all".to_owned());
    }
    let known = |arg: &String| arg == "all" || COMMANDS.iter().any(|c| c.0 == arg);
    if let Some(unknown) = args.iter().find(|arg| !known(arg)) {
        eprintln!("experiments: unknown subcommand `{unknown}`\n{}", usage());
        std::process::exit(2);
    }
    if let Some(dir) = export_dir {
        cmd_export(&dir);
    }
    let all = args.iter().any(|a| a == "all");
    let mut violated = false;
    for (name, in_all, run) in COMMANDS {
        if (all && in_all) || args.iter().any(|a| a == name) {
            for violation in run() {
                eprintln!("{name}: {violation}");
                violated = true;
            }
            println!();
        }
    }
    if violated {
        std::process::exit(1);
    }
}
