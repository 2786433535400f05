//! Quickstart: the whole pipeline in one page.
//!
//! 1. Describe the heterogeneous network (the paper's 6 Sparc2 + 6 IPC
//!    testbed).
//! 2. Describe the application through callback annotations (§4): here
//!    the canonical N×N five-point stencil.
//! 3. Build a [`Scenario`] and `plan()` it — calibration of the
//!    topology-specific cost functions (§3, cached offline step) and the
//!    runtime partitioning decision (§5) happen inside.
//! 4. `run()` the plan on the simulated network and compare the
//!    instrumented result against the estimate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netpart::apps::stencil::{stencil_model, StencilApp, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::model::NetpartError;
use netpart::pipeline::Scenario;

fn main() -> Result<(), NetpartError> {
    // 1. The network: two homogeneous clusters on router-joined segments.
    let testbed = Testbed::paper();
    println!(
        "network: {} clusters, {} processors total",
        testbed.num_clusters(),
        { testbed.capacities().iter().sum::<u32>() }
    );

    // 2. The application model: PDU = grid row, 5N flops/row, 4N-byte
    //    border exchanges in a 1-D topology (the paper's §4 annotations).
    let n = 600u64;
    let iters = 10u64;
    let app_model = stencil_model(n, StencilVariant::Sten2);

    // 3. Scenario → plan. The default cost source calibrates
    //    T_comm[C, τ](b, p) = c1 + c2·p + b(c3 + c4·p) against the
    //    simulator, memoized for the rest of the process.
    eprintln!("calibrating 1-D communication cost functions...");
    let scenario = Scenario::new(testbed, app_model);
    let plan = scenario.plan()?;
    let predicted = plan.predicted_tc_ms.expect("planned with a cost model");
    println!(
        "partition for N={n}: {} Sparc2s + {} IPCs, predicted T_c = {:.1} ms/cycle",
        plan.config[0], plan.config[1], predicted
    );
    println!("partition vector: {:?}", plan.vector);

    // 4. Plan → run: execute the iterations on the simulated network
    //    through the instrumented cycle engine, then compare.
    let mut app = StencilApp::new(n as usize, iters, StencilVariant::Sten2, plan.ranks());
    let run = plan.run(&mut app)?;
    println!(
        "simulated elapsed: {:.1} ms over {iters} iterations ({:.1} ms/cycle vs {:.1} predicted)",
        run.elapsed_ms,
        run.report.mean_cycle().as_millis_f64(),
        predicted
    );
    println!(
        "engine probe totals: {:.1} ms compute, {:.1} ms blocked receiving, {} messages / {} kB",
        run.phases.compute_ms,
        run.phases.recv_ms,
        run.phases.messages,
        run.phases.bytes / 1024
    );

    // The distributed result is bit-identical to a sequential run.
    let reference = netpart::apps::sequential_reference(n as usize, iters);
    assert_eq!(app.gather(), reference);
    println!("distributed grid matches the sequential reference bit-for-bit ✓");
    Ok(())
}
