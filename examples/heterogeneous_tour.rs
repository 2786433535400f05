//! A tour of the heterogeneous machinery: the three-cluster metasystem
//! (paper §7's future-work scenario), data-format coercion, the cluster
//! managers' availability protocol, and partitioning under partial
//! availability.
//!
//! ```text
//! cargo run --release --example heterogeneous_tour
//! ```

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::{calibrate_testbed_cached, CalibrationConfig, Testbed};
use netpart::core::{determine_available, partition, Estimator, PartitionOptions, SystemModel};
use netpart::model::NetpartError;
use netpart::sim::SegmentId;
use netpart::topology::{PlacementStrategy, Topology};

fn main() -> Result<(), NetpartError> {
    // Three clusters of three machine classes with three data formats:
    // every cross-cluster message pays coercion.
    let testbed = Testbed::metasystem();
    println!("metasystem clusters:");
    for c in &testbed.clusters {
        println!(
            "  {:>7}: {} nodes, {:.2} µs/flop, wire format #{}",
            c.proc_type.name,
            c.nodes,
            c.proc_type.sec_per_flop * 1e6,
            c.proc_type.data_format
        );
    }

    eprintln!("calibrating (router + coercion fits included)...");
    let cost_model =
        calibrate_testbed_cached(&testbed, &[Topology::OneD], &CalibrationConfig::default())?;
    for a in 0..testbed.num_clusters() {
        for b in a + 1..testbed.num_clusters() {
            let r = cost_model.router.get(&(a, b)).copied().unwrap_or_default();
            let c = cost_model.coerce.get(&(a, b)).copied().unwrap_or_default();
            println!(
                "  pair ({a},{b}): router {:.3}+{:.5}·b ms, coercion {:.3}+{:.5}·b ms",
                r.a, r.k, c.a, c.k
            );
        }
    }

    // The cluster managers poll their members over the real (simulated)
    // network; two RS/6000s and one HP are busy with other users' work.
    let (mut mmps, _) = testbed.build(
        &vec![0; testbed.num_clusters()],
        PlacementStrategy::ClusterContiguous,
    );
    let clusters: Vec<_> = (0..testbed.num_clusters() as u16)
        .map(|s| mmps.net_ref().nodes_on_segment(SegmentId(s)))
        .collect();
    mmps.net().set_external_load(clusters[0][1], 0.8);
    mmps.net().set_external_load(clusters[0][3], 0.5);
    mmps.net().set_external_load(clusters[1][2], 0.9);
    let avail = determine_available(&mut mmps, &clusters);
    println!(
        "availability round: {:?} available ({} messages, {:.2} ms simulated)",
        avail.available,
        avail.messages,
        avail.protocol_time.as_millis_f64()
    );

    // Partition under the reported availability.
    let system = SystemModel::from_testbed(&testbed).with_available(&avail.available);
    for n in [300u64, 900] {
        let app = stencil_model(n, StencilVariant::Sten1);
        let est = Estimator::new(&system, &cost_model, &app);
        let plan = partition(&est, &PartitionOptions::default())?;
        let names: Vec<&str> = system.clusters.iter().map(|c| c.name.as_str()).collect();
        println!(
            "N={n}: configuration {:?} over {:?} (order {:?}), predicted T_c {:.2} ms, A = {:?}",
            plan.config,
            names,
            plan.order,
            plan.predicted_tc_ms(),
            plan.vector.counts()
        );
    }
    println!(
        "\nThe RS/6000s are considered first (fastest), but busy nodes are\n\
         excluded by the managers before the partitioner ever sees them."
    );
    Ok(())
}
