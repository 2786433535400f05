//! Determinism regression tests for the parallel sweep engine and the
//! calibration memo.
//!
//! Two properties are load-bearing for every table this repository
//! regenerates:
//!
//! 1. **Thread-count invariance** — fanning sweep cells across workers
//!    must produce byte-identical artifacts to the sequential path, for
//!    any worker count, because each cell owns its inputs (including the
//!    simulated network's seeded RNG) and results are collected by cell
//!    index, never completion order.
//! 2. **Calibration exactness** — a calibration served from the in-process
//!    memo, and one computed afresh in another process, must reproduce the
//!    fitted constants bit-for-bit, so every run prints the same tables.

use netpart::apps::stencil::StencilVariant;
use netpart::calibrate::{
    calibrate_testbed_cached_status, CacheStatus, CalibratedCostModel, CalibrationConfig, Testbed,
};
use netpart::topology::Topology;
use netpart_bench::sweep::{set_threads, sweep};
use netpart_bench::{balanced_vector, format_table2, run_stencil_config, table2, TABLE2_CONFIGS};

/// Canonical text rendering of a calibrated model: every table sorted by
/// key, floats printed with `{:?}` (shortest round-trip), so two models
/// render identically iff their constants are bit-identical (modulo NaN,
/// which calibration never produces).
fn canon(model: &CalibratedCostModel) -> Vec<String> {
    let mut lines = Vec::new();
    let mut intra: Vec<_> = model.intra.iter().collect();
    intra.sort_by_key(|((cluster, topo), _)| (*cluster, format!("{topo:?}")));
    for ((cluster, topo), fit) in intra {
        lines.push(format!("intra {cluster} {topo:?} {fit:?}"));
    }
    for section in ["router", "coerce"] {
        let table = if section == "router" {
            &model.router
        } else {
            &model.coerce
        };
        let mut rows: Vec<_> = table.iter().collect();
        rows.sort_by_key(|(k, _)| **k);
        for ((a, b), cost) in rows {
            lines.push(format!("{section} {a} {b} {cost:?}"));
        }
    }
    lines
}

/// Raw sweep cells (full stencil simulations) return bit-identical
/// elapsed times for 1 worker and many workers.
#[test]
fn parallel_sweep_cells_match_sequential_bit_exact() {
    let jobs: Vec<([u32; 2], u64)> = TABLE2_CONFIGS
        .iter()
        .flat_map(|&c| [60u64, 300].map(|n| (c, n)))
        .collect();
    let run = |(config, n): ([u32; 2], u64)| {
        let vector = balanced_vector(n, &config);
        run_stencil_config(&config, &vector, StencilVariant::Sten1, n as usize, 5)
    };
    set_threads(1);
    let sequential = sweep(jobs.clone(), run);
    set_threads(4);
    let parallel = sweep(jobs, run);
    set_threads(0);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        let (s, p) = (
            s.as_ref().expect("sequential run").to_bits(),
            p.as_ref().expect("parallel run").to_bits(),
        );
        assert_eq!(s, p, "cell {i}: sequential != parallel");
    }
}

/// A full rendered experiment table — partition decision, simulations,
/// formatting — is byte-identical between the sequential and parallel
/// sweep paths.
#[test]
fn table2_rendering_is_identical_across_thread_counts() {
    let (model, _) = calibrate_testbed_cached_status(
        &Testbed::paper(),
        &[Topology::OneD],
        &CalibrationConfig::default(),
    )
    .expect("calibration");
    set_threads(1);
    let sequential = format_table2(&table2(&model, &[60], 5).expect("table2"));
    set_threads(4);
    let parallel = format_table2(&table2(&model, &[60], 5).expect("table2"));
    set_threads(0);
    assert_eq!(sequential, parallel);
}

/// Within one process, the second cached-calibration request is a memo
/// hit and returns the exact same constants.
#[test]
fn calibration_memo_hit_reproduces_exact_constants() {
    let tb = Testbed::paper();
    let topos = [Topology::OneD];
    let cfg = CalibrationConfig::default();
    let (first, _) = calibrate_testbed_cached_status(&tb, &topos, &cfg).expect("calibration");
    let (second, status) = calibrate_testbed_cached_status(&tb, &topos, &cfg).expect("calibration");
    assert_eq!(status, CacheStatus::MemoHit);
    assert_eq!(canon(&first), canon(&second));
}

/// Across processes, calibration is deterministic: two fresh processes
/// each calibrate (a typed `Miss`, since nothing outlives a process) and
/// fit bit-identical constants.
#[test]
fn calibration_is_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = || {
        std::process::Command::new(&exe)
            .args([
                "child_print_calibration",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .output()
            .expect("spawn child test process")
    };
    let first = run();
    let second = run();
    assert!(first.status.success(), "first child failed: {first:?}");
    assert!(second.status.success(), "second child failed: {second:?}");

    let constants = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("CANON "))
            .map(str::to_owned)
            .collect()
    };
    let (c1, c2) = (constants(&first), constants(&second));
    assert!(!c1.is_empty(), "child printed no constants");
    assert_eq!(c1, c2, "fitted constants must be process-independent");

    let status = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.strip_prefix("STATUS ").map(str::to_owned))
            .collect()
    };
    assert_eq!(status(&first), ["Miss"], "first process should calibrate");
    assert_eq!(status(&second), ["Miss"], "second process should calibrate");
}

/// Helper for [`calibration_is_identical_across_processes`]: runs
/// one cached calibration in a child process and prints where it came
/// from and the canonical constants. Never selected by a normal
/// `cargo test` run.
#[test]
#[ignore = "child process helper, spawned by calibration_is_identical_across_processes"]
fn child_print_calibration() {
    let (model, status) = calibrate_testbed_cached_status(
        &Testbed::paper(),
        &[Topology::OneD],
        &CalibrationConfig::default(),
    )
    .expect("calibration");
    println!("STATUS {status:?}");
    for line in canon(&model) {
        println!("CANON {line}");
    }
}

/// Across processes, the same fault schedule reproduces the identical
/// recovery trace — failed ranks, replan count, cycles lost, bit-exact
/// elapsed and overhead times, and the recovered answer's bits. This is
/// the guarantee that makes a chaos-harness failure reproducible from its
/// seed rather than flaky.
#[test]
fn recovery_trace_is_identical_across_processes() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = || {
        std::process::Command::new(&exe)
            .args([
                "child_print_recovery_trace",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .output()
            .expect("spawn child test process")
    };
    let first = run();
    let second = run();
    assert!(first.status.success(), "first child failed: {first:?}");
    assert!(second.status.success(), "second child failed: {second:?}");

    let trace = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("TRACE "))
            .map(str::to_owned)
            .collect()
    };
    let (t1, t2) = (trace(&first), trace(&second));
    assert!(!t1.is_empty(), "child printed no recovery trace");
    assert_eq!(t1, t2, "recovery trace must be process-independent");
}

/// Helper for [`recovery_trace_is_identical_across_processes`]: runs one
/// crash-and-replan recovery and prints its trace. Uses the paper's
/// published cost constants so no calibration state can leak between the
/// two child processes. Never selected by a normal `cargo test` run.
#[test]
#[ignore = "child process helper, spawned by recovery_trace_is_identical_across_processes"]
fn child_print_recovery_trace() {
    use netpart::apps::stencil::{stencil_model, StencilApp};
    use netpart::{AppStart, CostSource, Fault, FaultSchedule, RecoveryPolicy, Scenario};

    let (n, iters) = (40usize, 10u64);
    let s = Scenario::new(
        Testbed::paper(),
        stencil_model(n as u64, StencilVariant::Sten1),
    )
    .with_cost(CostSource::Paper);
    let plan = s.plan().expect("plan");
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
    let fault_free = plan.run(&mut app).expect("fault-free run");

    let faults = FaultSchedule::new().with(Fault::RankCrash {
        at_ms: fault_free.elapsed_ms * 0.4,
        rank: 0,
    });
    let policy = RecoveryPolicy::Replan {
        max_replans: 3,
        backoff_ms: 5.0,
    };
    let factory = move |ranks: usize, start: AppStart<'_>| {
        Ok(match start {
            AppStart::Fresh => StencilApp::new(n, iters, StencilVariant::Sten1, ranks),
            AppStart::Resume(c) => StencilApp::resume(c, n, iters, StencilVariant::Sten1, ranks),
        })
    };
    let (run, rapp) = s
        .run_recoverable(&faults, policy, 2, factory)
        .expect("recovery");
    let rec = run.recovery.expect("recovery stats");

    println!("TRACE replans {}", rec.replans);
    println!("TRACE failed_ranks {:?}", rec.failed_ranks);
    println!("TRACE cycles_lost {}", rec.cycles_lost);
    println!("TRACE overhead_bits {:016x}", rec.overhead_ms.to_bits());
    println!("TRACE elapsed_bits {:016x}", run.elapsed_ms.to_bits());
    // FNV-1a over the recovered answer's bit patterns.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in rapp.gather() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("TRACE answer_fnv {h:016x}");
}
