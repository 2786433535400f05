//! The paper's §7 future-work item, realized: dynamically recompute the
//! partition vector when another user steals CPU mid-run, and compare
//! against leaving the static partition in place.
//!
//! ```text
//! cargo run --release --example dynamic_rebalance
//! ```

use netpart_bench::run_dynamic_stencil;

fn main() {
    let n = 300usize;
    let iters = 30;

    println!("N={n}, {iters} iterations on 6 Sparc2s; node 2 progressively loaded:\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>11}",
        "load", "static ms", "dynamic ms", "saved", "rebalances"
    );
    for load in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut loads = vec![0.0; 6];
        loads[2] = load;

        // A single chunk of all iterations never rebalances.
        let static_run = run_dynamic_stencil(n, iters, &loads, iters).expect("static run");
        let dynamic_run = run_dynamic_stencil(n, iters, &loads, 5).expect("dynamic run");

        // Both strategies must still compute the correct grid.
        assert_eq!(static_run.grid, dynamic_run.grid);

        println!(
            "{:>5.0}% {:>12.1} {:>12.1} {:>11.1}% {:>11}",
            load * 100.0,
            static_run.elapsed.as_millis_f64(),
            dynamic_run.elapsed.as_millis_f64(),
            (1.0 - dynamic_run.elapsed.as_millis_f64() / static_run.elapsed.as_millis_f64())
                * 100.0,
            dynamic_run.rebalances,
        );
    }
    println!(
        "\nfinal vector under 80% load on node 2: rows migrate away from the\n\
         loaded node, bounded by the redistribution traffic the balancer pays."
    );
}
