//! Regenerate the paper's tables and figures (plus ablations) on the
//! simulated testbed.
//!
//! ```text
//! cargo run --release -p netpart-bench --bin experiments -- all
//! cargo run --release -p netpart-bench --bin experiments -- table1 table2 fig3
//! ```
//!
//! Subcommands: `calibrate`, `table1`, `table2`, `fig2`, `fig3`,
//! `overhead`, `gauss`, `ablation-ordering`, `ablation-placement`,
//! `ablation-search`, `ablation-decomposition`, `sensitivity`, `dynamic`,
//! `metasystem`, `faults`, `drift`, `congestion`, `chaos-fuzz`, `all`,
//! plus `congestion-smoke` (CI's fast congestion guard; exits 6 on an
//! invariant or event-rate-floor break), `simcore`
//! (event-core throughput; excluded from `all` because its wall-clock
//! figures are machine-dependent), `scale` (hierarchical-fabric planning
//! sweep up to 4096 nodes; excluded from `all` for the same reason),
//! `scale-smoke` (CI's 256-node fat-tree guard; exits 5 on regression),
//! `serve` (plan-server overload experiment — sustained load, flood,
//! deadlines, chaos; excluded from `all` for its wall-clock throughput
//! figures), `serve-smoke` (CI's fast serve guard with a plans/sec
//! floor and a zero-hangs assertion; exits 7 on any violation),
//! `chaos-fabric` (seeded fault schedules against tree/fat-tree fabrics
//! at 256 and 1024 nodes plus directed single-spine outages that must
//! complete via reroute; excluded from `all` for its multi-minute
//! 1024-node cells; exits 8 on a violation), and `chaos-fabric-smoke`
//! (CI's fast fabric guard — the 256-node fat-tree subset).

use std::sync::OnceLock;

use netpart_apps::stencil::StencilVariant;
use netpart_bench::*;
use netpart_calibrate::CalibratedCostModel;
use netpart_model::NetpartError;

/// Unwrap an experiment result or exit with the error on stderr; the
/// library layer is fallible, the CLI boundary decides to die.
fn ok<T>(r: Result<T, NetpartError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    })
}

fn model() -> &'static CalibratedCostModel {
    static MODEL: OnceLock<CalibratedCostModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        eprintln!("[calibration — offline §3 step, cached under target/netpart-calib]");
        ok(paper_calibration())
    })
}

fn cmd_calibrate() {
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
}

fn cmd_table1() {
    print!("{}", render_table1(&ok(table1())));
}

fn cmd_table2() {
    let rows = ok(table2(model(), &PAPER_SIZES, PAPER_ITERS));
    print!("{}", render_table2(&rows));
}

fn cmd_fig2() {
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
}

fn cmd_fig3() {
    for (n, variant) in [
        (60u64, StencilVariant::Sten1),
        (600, StencilVariant::Sten1),
        (600, StencilVariant::Sten2),
    ] {
        let points = ok(fig3(model(), n, variant, PAPER_ITERS));
        print!("{}", render_fig3(n, variant, &points));
    }
}

fn cmd_breakdown() {
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
}

fn cmd_overhead() {
    let o = ok(overhead_report(model()));
    println!("§5/§6 — partitioning overhead (K=2, P=12, N=1200):");
    println!(
        "  T_c evaluations : {} (bound 2·K·(log₂P+1) = {})",
        o.evaluations, o.bound
    );
    println!("  wall time       : {} µs", o.wall_micros);
    println!(
        "  availability protocol: {:.2} ms simulated, {} messages",
        o.availability_ms, o.availability_messages
    );
    println!("  (stencil elapsed times are 10²–10⁴ ms: overhead is negligible)");
}

fn cmd_gauss() {
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
}

fn cmd_ablation_ordering() {
    println!("A1 — cluster consideration order (STEN-1, 10 iters):");
    for r in ok(ablation_ordering(model(), &[300, 600, 1200], PAPER_ITERS)) {
        println!(
            "N={:>5}: fastest-first {:?} → {:.1} ms | slowest-first {:?} → {:.1} ms",
            r.n, r.fastest.0, r.fastest.1, r.slowest.0, r.slowest.1
        );
    }
}

fn cmd_ablation_placement() {
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
}

fn cmd_ablation_search() {
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
}

fn cmd_sensitivity() {
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
}

fn cmd_dynamic() {
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
}

fn cmd_ablation_decomposition() {
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
}

fn cmd_cross_traffic() {
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
}

fn cmd_scalability() {
    println!("§5 scalability — heuristic evaluations vs system size (N=4800 stencil):");
    println!(
        "{:>4} {:>8} {:>13} {:>8} {:>10} {:>16}",
        "K", "P", "evaluations", "bound", "wall µs", "exhaustive space"
    );
    for r in ok(scalability(&[2, 4, 8, 16, 32], 8, 4800)) {
        println!(
            "{:>4} {:>8} {:>13} {:>8} {:>10} {:>16.1e}",
            r.k, r.total_p, r.evaluations, r.bound, r.wall_micros, r.exhaustive_space
        );
    }
    println!("(evaluations grow linearly in K, each O(K) flops — the exhaustive\n cross-product is hopeless beyond a handful of clusters)");
}

fn cmd_metasystem() {
    println!("A6 — three-cluster metasystem (RS6000 + HP + Sparc2, coercion active):");
    for r in ok(metasystem_experiment(&[300, 900], PAPER_ITERS)) {
        println!(
            "N={:>4}: chose {:?}, predicted Tc {:.1} ms, measured {:.1} ms, best probe {:.1} ms",
            r.n, r.config, r.predicted_tc_ms, r.measured_ms, r.best_probe_ms
        );
    }
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
    match export_csv(dir, &t1, &t2, &curves) {
        Ok(files) => {
            for f in files {
                println!("wrote {}", f.display());
            }
        }
        Err(e) => eprintln!("export failed: {e}"),
    }
}

/// Fixed seeds for the chaos harness (mirrored by `tests/chaos.rs` and CI).
const CHAOS_SEEDS: [u64; 3] = [11, 23, 1994];

fn cmd_faults() {
    println!("Fault injection — checkpointed repartition-and-resume:");
    let rows = ok(faults_table(model()));
    print!("{}", render_faults(&rows));
    println!("\nChaos harness — seeded random fault schedules:");
    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        chaos.extend(ok(chaos_run(seed, model())));
    }
    print!("{}", render_chaos(&chaos));
    let json = faults_json(&rows, &chaos);
    match std::fs::write("BENCH_faults.json", &json) {
        Ok(()) => println!("\nwrote BENCH_faults.json"),
        Err(e) => eprintln!("BENCH_faults.json not written: {e}"),
    }
}

fn cmd_drift() {
    println!("Gray-failure drift — detect, recalibrate, repartition-on-degradation:");
    let rows = ok(drift_table(model()));
    print!("{}", render_drift(&rows));
    println!("\nDrift chaos harness — seeded transient-fault schedules under Adapt:");
    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        chaos.extend(ok(drift_chaos_run(seed, model())));
    }
    print!("{}", render_drift_chaos(&chaos));
    let json = drift_json(&rows, &chaos);
    match std::fs::write("BENCH_drift.json", &json) {
        Ok(()) => println!("\nwrote BENCH_drift.json"),
        Err(e) => eprintln!("BENCH_drift.json not written: {e}"),
    }
}

/// Run the congestion scenarios, the lack-of-fit calibration demo, and
/// the transparency check; write `BENCH_congestion.json`; exit 6 when an
/// invariant breaks. The smoke variant runs the same checks at the fast
/// problem size and additionally guards the congested-path event rate
/// with a simcore-style floor.
fn cmd_congestion_common(n: usize, iters: u64, smoke: bool) {
    let rows = ok(congestion_table(model(), n, iters));
    print!("{}", render_congestion(&rows));
    let lof = ok(lack_of_fit_demo());
    println!(
        "\nlack-of-fit: cluster {} ring sweep, linear R² {:.4} vs gate {:.3} → {}",
        lof.cluster,
        lof.linear_r_squared,
        lof.gate,
        if lof.piecewise {
            format!("two-piece fallback (knee at p={})", lof.knee_p.unwrap_or(0))
        } else {
            "linear accepted".to_string()
        }
    );
    let tr = ok(transparency_check(model()));
    println!(
        "transparency: plain {:.3} ms vs unreachable-congestion {:.3} ms → {}",
        tr.baseline_ms,
        tr.shadowed_ms,
        if tr.identical {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    let json = congestion_json(&rows, &lof, &tr);
    match std::fs::write("BENCH_congestion.json", &json) {
        Ok(()) => println!("\nwrote BENCH_congestion.json"),
        Err(e) => eprintln!("BENCH_congestion.json not written: {e}"),
    }

    let mut violations: Vec<String> = Vec::new();
    for r in &rows {
        if !r.stay.invariant_holds() {
            violations.push(format!(
                "{}: stay run broke bit-identical-or-typed-error",
                r.scenario
            ));
        }
        if !r.adaptive.invariant_holds() {
            violations.push(format!(
                "{}: adaptive run broke bit-identical-or-typed-error",
                r.scenario
            ));
        }
    }
    if let Some(flood) = rows.iter().find(|r| r.scenario == "flood") {
        if flood.detections > 0 && flood.congestion_confirmations == 0 {
            violations.push(
                "flood: drift confirmed but never attributed to the congested segment".into(),
            );
        }
    }
    if !lof.piecewise {
        violations.push(format!(
            "lack-of-fit gate did not fire (linear R² {:.4} vs gate {:.3})",
            lof.linear_r_squared, lof.gate
        ));
    }
    if !tr.identical {
        violations.push("unreachable congestion thresholds changed the run".into());
    }
    if smoke {
        let sample = run_congested_drain(100_000);
        let eps = sample.events_per_sec();
        println!(
            "congested-path drain: {} events in {:.3} s → {:.3e} events/s (floor {:.1e})",
            sample.events, sample.wall_secs, eps, CONGESTION_FLOOR_EVENTS_PER_SEC
        );
        if eps < CONGESTION_FLOOR_EVENTS_PER_SEC {
            violations.push(format!(
                "congested-path event rate {eps:.3e} below floor {CONGESTION_FLOOR_EVENTS_PER_SEC:.1e}"
            ));
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("congestion: {v}");
        }
        std::process::exit(6);
    }
}

fn cmd_congestion() {
    println!(
        "Congested links — bounded queues, marks, window backpressure, segment-attributed drift:"
    );
    cmd_congestion_common(120, 30, false);
}

fn cmd_congestion_smoke() {
    println!("Congestion smoke (fast sizes + congested-path event-rate floor):");
    // n=120 is the smallest grid whose plan spreads past two ranks —
    // below that there is no border traffic for the flood to degrade,
    // so the drift demonstration would be vacuous.
    cmd_congestion_common(120, 10, true);
}

fn cmd_chaos_fuzz() {
    println!("Chaos fuzzer — seeded random schedules over the whole fault model:");
    // 120 sweep seeds plus the fixed CI seeds, over two targets (STEN-1 and
    // GAUSS): 246 schedules, each checked against the recover-bit-identical-
    // or-typed-error invariant.
    let seeds: Vec<u64> = (0..120).chain(CHAOS_SEEDS).collect();
    let report = ok(chaos_fuzz(model(), &seeds));
    print!("{}", render_chaos_fuzz(&report));
    let json = chaos_fuzz_json(&report);
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => println!("\nwrote BENCH_chaos.json"),
        Err(e) => eprintln!("BENCH_chaos.json not written: {e}"),
    }
    if !report.repros.is_empty() {
        eprintln!(
            "chaos-fuzz: {} invariant violation(s) — minimized repros above",
            report.repros.len()
        );
        std::process::exit(3);
    }
}

/// Run the fabric chaos sweep (or its CI smoke subset), print the
/// tables, write `BENCH_chaos_fabric.json`, and exit 8 on any invariant
/// violation — including a directed single-spine outage that errored
/// instead of completing via reroute.
fn cmd_chaos_fabric(smoke: bool) {
    let report = if smoke {
        println!("Fabric chaos smoke (256-node fat-tree cells + directed spine outage):");
        ok(chaos_fabric_smoke())
    } else {
        println!("Fabric chaos — seeded schedules against tree/fat-tree at 256 and 1024 nodes:");
        ok(chaos_fabric())
    };
    print!("{}", render_chaos_fabric(&report));
    let json = chaos_fabric_json(&report);
    match std::fs::write("BENCH_chaos_fabric.json", &json) {
        Ok(()) => println!("\nwrote BENCH_chaos_fabric.json"),
        Err(e) => eprintln!("BENCH_chaos_fabric.json not written: {e}"),
    }
    if report.violations() > 0 {
        eprintln!(
            "chaos-fabric: {} invariant violation(s) — details above",
            report.violations()
        );
        std::process::exit(8);
    }
}

fn cmd_simcore() {
    println!("Event-core throughput — time-wheel queue, events/s against the CI floors:");
    let samples = run_simcore(3);
    println!(
        "{:<18} {:>12} {:>10} {:>14} {:>12}",
        "workload", "events", "wall (s)", "events/s", "floor"
    );
    for s in &samples {
        println!(
            "{:<18} {:>12} {:>10.4} {:>14.4e} {:>12.1e}",
            s.name,
            s.events,
            s.wall_secs,
            s.events_per_sec(),
            s.floor().unwrap_or(0.0)
        );
    }
    let json = simcore_json(&samples);
    match std::fs::write("BENCH_simcore.json", &json) {
        Ok(()) => println!("\nwrote BENCH_simcore.json"),
        Err(e) => eprintln!("BENCH_simcore.json not written: {e}"),
    }
    let floor_broken: Vec<String> = samples
        .iter()
        .filter(|s| !s.floor_cleared())
        .map(|s| format!("{} (floor {:.1e})", s.name, s.floor().unwrap_or(0.0)))
        .collect();
    if !floor_broken.is_empty() {
        eprintln!(
            "simcore: events/s below the per-workload floor for: {}",
            floor_broken.join(", ")
        );
        std::process::exit(4);
    }
}

fn cmd_scale() {
    println!("Hierarchical-fabric planning sweep (STEN-1 + GAUSS, 256/1024/4096 nodes):");
    let rows = ok(scale_sweep());
    print!("{}", render_scale(&rows));
    let json = scale_json(&rows);
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => println!("\nwrote BENCH_scale.json"),
        Err(e) => eprintln!("BENCH_scale.json not written: {e}"),
    }
}

fn cmd_scale_smoke() {
    println!("Scale smoke (256-node fat-tree, STEN-1 plan + 1 simulated iteration):");
    match ok(scale_smoke()) {
        SmokeVerdict::Pass(row) => {
            print!("{}", render_scale(std::slice::from_ref(&row)));
            println!(
                "plan {} µs (full) / {} µs (incremental), sim {} µs — within ceilings",
                row.plan_full_micros,
                row.plan_incremental_micros,
                row.sim_wall_micros.unwrap_or(0)
            );
        }
        SmokeVerdict::Regression(msg) => {
            eprintln!("scale-smoke: {msg}");
            std::process::exit(5);
        }
    }
}

/// Run the plan-server experiment at `distinct` scenarios, print the
/// tables, write `BENCH_serve.json`, and exit 7 on any invariant
/// violation (a hang, a wrong plan, a mistyped rejection) — plus, for
/// the smoke variant, a plans/sec floor.
fn cmd_serve(distinct: usize, enforce_floor: bool) {
    println!(
        "Plan server — {} distinct scenarios + flood + deadlines + chaos:",
        distinct
    );
    let report = run_serve_bench(distinct);
    print!("{}", render_serve(&report));
    let json = serve_json(&report);
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("BENCH_serve.json not written: {e}"),
    }
    let mut violations = report.violations();
    if enforce_floor && report.sustained.plans_per_sec < SERVE_SMOKE_PLANS_PER_SEC_FLOOR {
        violations.push(format!(
            "throughput {:.1} plans/s below the {:.0} plans/s floor",
            report.sustained.plans_per_sec, SERVE_SMOKE_PLANS_PER_SEC_FLOOR
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("serve: {v}");
        }
        std::process::exit(7);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmds: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    // `export <dir>` writes CSVs and is handled positionally.
    if let Some(pos) = cmds.iter().position(|c| *c == "export") {
        let dir = cmds.get(pos + 1).copied().unwrap_or("experiment-results");
        cmd_export(dir);
        if cmds.len() <= 2 {
            return;
        }
    }
    let all = cmds.contains(&"all");
    let want = |c: &str| all || cmds.contains(&c);

    if want("calibrate") {
        cmd_calibrate();
        println!();
    }
    if want("table1") {
        cmd_table1();
        println!();
    }
    if want("table2") {
        cmd_table2();
        println!();
    }
    if want("fig2") {
        cmd_fig2();
        println!();
    }
    if want("fig3") {
        cmd_fig3();
        println!();
    }
    if want("breakdown") {
        cmd_breakdown();
        println!();
    }
    if want("overhead") {
        cmd_overhead();
        println!();
    }
    if want("gauss") {
        cmd_gauss();
        println!();
    }
    if want("ablation-ordering") {
        cmd_ablation_ordering();
        println!();
    }
    if want("ablation-placement") {
        cmd_ablation_placement();
        println!();
    }
    if want("ablation-search") {
        cmd_ablation_search();
        println!();
    }
    if want("sensitivity") {
        cmd_sensitivity();
        println!();
    }
    if want("dynamic") {
        cmd_dynamic();
        println!();
    }
    if want("ablation-decomposition") {
        cmd_ablation_decomposition();
        println!();
    }
    if want("crosstraffic") {
        cmd_cross_traffic();
        println!();
    }
    if want("scalability") {
        cmd_scalability();
        println!();
    }
    if want("metasystem") {
        cmd_metasystem();
        println!();
    }
    if want("faults") {
        cmd_faults();
        println!();
    }
    if want("drift") {
        cmd_drift();
        println!();
    }
    if want("congestion") {
        cmd_congestion();
        println!();
    }
    // The fast CI variant is not part of `all` (the full `congestion`
    // command already covers it); exits 6 on an invariant or floor break.
    if cmds.contains(&"congestion-smoke") {
        cmd_congestion_smoke();
        println!();
    }
    if want("chaos-fuzz") {
        cmd_chaos_fuzz();
        println!();
    }
    // Not part of `all`: the 1024-node cells run for minutes. Exits 8 on
    // a violation; the smoke variant is CI's fast fabric guard.
    if cmds.contains(&"chaos-fabric") {
        cmd_chaos_fabric(false);
        println!();
    }
    if cmds.contains(&"chaos-fabric-smoke") {
        cmd_chaos_fabric(true);
        println!();
    }
    // Deliberately not part of `all`: simcore reports machine-dependent
    // wall-clock figures, which would make `all` output nondeterministic.
    if cmds.contains(&"simcore") {
        cmd_simcore();
        println!();
    }
    // Same reason: the scale sweep's plan/sim timings are host-dependent.
    if cmds.contains(&"scale") {
        cmd_scale();
        println!();
    }
    if cmds.contains(&"scale-smoke") {
        cmd_scale_smoke();
        println!();
    }
    // Also wall-clock-dependent, so not part of `all`: the full serve
    // experiment reports plans/sec; the smoke variant enforces a floor.
    if cmds.contains(&"serve") {
        cmd_serve(1000, false);
        println!();
    }
    if cmds.contains(&"serve-smoke") {
        cmd_serve(200, true);
        println!();
    }
}
