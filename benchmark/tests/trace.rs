//! The span self-time reducer on a hand-built tree.

use netpart_benchmark::trace::{layer_of, layer_self_ns, reduce, to_jsonl, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        rep: 0,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    //  0 bench.rep        [0, 1000)
    //  1   pipeline.plan  [100, 200)
    //  2   spmd.run       [200, 900)
    //  3     apps.compute [250, 450)
    //  4     apps.compute [500, 600)
    //  5     apps.produce [600, 650)
    //  6   sim.build      [900, 950)
    let spans = vec![
        span("bench.rep", 0, 1000, None),
        span("pipeline.plan", 100, 200, Some(0)),
        span("spmd.run", 200, 900, Some(0)),
        span("apps.compute", 250, 450, Some(2)),
        span("apps.compute", 500, 600, Some(2)),
        span("apps.produce", 600, 650, Some(2)),
        span("sim.build", 900, 950, Some(0)),
    ];
    let costs = reduce(&spans);
    assert_eq!(costs["bench.rep"].self_ns, 1000 - 100 - 700 - 50);
    assert_eq!(costs["spmd.run"].total_ns, 700);
    assert_eq!(costs["spmd.run"].self_ns, 700 - 200 - 100 - 50);
    assert_eq!(costs["apps.compute"].count, 2);
    assert_eq!(costs["apps.compute"].total_ns, 300);
    assert_eq!(costs["apps.compute"].self_ns, 300);
    // Self times partition the root: they sum to its duration exactly.
    let sum: u64 = costs.values().map(|c| c.self_ns).sum();
    assert_eq!(sum, 1000);
    let layers = layer_self_ns(&costs);
    assert_eq!(layers["apps"], 350);
    assert_eq!(layers["spmd"], 350);
    assert_eq!(layers["bench"], 150);
    assert_eq!(layers.values().sum::<u64>(), 1000);
}

#[test]
fn a_child_is_clipped_to_its_parent() {
    // A leaf adopted after the fact may poke past the parent's end by a
    // clock read; it must not make the parent's self time negative.
    let spans = vec![
        span("spmd.run", 100, 200, None),
        span("apps.compute", 150, 230, Some(0)),
    ];
    let costs = reduce(&spans);
    assert_eq!(costs["spmd.run"].self_ns, 50);
    assert_eq!(costs["apps.compute"].self_ns, 80);
}

#[test]
fn layer_is_the_text_before_the_first_dot() {
    assert_eq!(layer_of("pipeline.plan.n256.sten1"), "pipeline");
    assert_eq!(layer_of("sim"), "sim");
}

#[test]
fn tracer_nests_spans_and_is_free_when_disabled() {
    let mut t = Tracer::new();
    assert_eq!(t.span("bench.rep", |t| t.span("sim.build", |_| 7)), 7);
    assert!(t.take().is_empty(), "a disabled tracer records nothing");

    t.set(true, 3);
    let run = t.next_id();
    t.span("bench.rep", |t| {
        t.span("sim.build", |_| ());
        t.span("spmd.run", |t| t.span("apps.compute", |_| ()));
    });
    let spans = t.take();
    assert_eq!(run, 0);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        ["bench.rep", "sim.build", "spmd.run", "apps.compute"]
    );
    let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
    assert!(spans.iter().all(|s| s.rep == 3 && s.start_ns <= s.end_ns));
    // Children lie inside their parents.
    for s in &spans {
        if let Some(p) = s.parent {
            let p = &spans[p as usize];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
    }
    let jsonl = to_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), 4);
    for line in jsonl.lines() {
        let j = netpart_benchmark::json::parse(line).expect("each line is JSON");
        assert!(j.get("name").is_some() && j.get("start_ns").is_some());
        assert!(j.get("end_ns").is_some() && j.get("parent").is_some() && j.get("rep").is_some());
    }
}
