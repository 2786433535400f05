//! Criterion bench for the §5/§6 overhead claims: a single partitioning
//! call (the runtime cost the paper argues is negligible) and one round
//! of the availability protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use netpart_apps::stencil::{stencil_model, StencilVariant};
use netpart_bench::{overhead_report, paper_calibration};
use netpart_calibrate::Testbed;
use netpart_core::{partition, Estimator, PartitionOptions, SystemModel};

fn bench_overhead(c: &mut Criterion) {
    let model = paper_calibration().expect("calibration");
    let o = overhead_report(&model).expect("overhead");
    println!(
        "\noverhead: {} evaluations (bound {}), availability {:.2} ms / {} msgs\n",
        o.evaluations, o.bound, o.availability_ms, o.availability_messages
    );

    let sys = SystemModel::from_testbed(&Testbed::paper());
    let app = stencil_model(1200, StencilVariant::Sten1);
    c.bench_function("overhead/partition_call", |b| {
        b.iter(|| {
            let est = Estimator::new(&sys, &model, &app);
            black_box(partition(&est, &PartitionOptions::default()).expect("ok"))
        })
    });
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
