//! Routing-decision microbenchmarks: per-algorithm `route()` cost on a
//! representative faulty pattern. This is the criterion counterpart of
//! the `routing_decision_ns` section of `BENCH_engine.json`; run it for
//! statistically rigorous numbers:
//!
//! ```text
//! cargo bench -p wormsim-bench --bench routing_decision
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_fault::random_pattern;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;

fn bench(c: &mut Criterion) {
    let mesh = Mesh::square(10);
    let mut rng = SmallRng::seed_from_u64(0xB41C);
    let pattern = random_pattern(&mesh, 10, &mut rng).expect("pattern");
    let ctx = Arc::new(RoutingContext::new(mesh.clone(), pattern.clone()));
    let healthy: Vec<_> = pattern.healthy_nodes(&mesh).collect();
    // A source/destination pair whose minimal rectangle contains faults,
    // so ring geometry is on the decision path, not just the fault-free
    // early-outs.
    let src = *healthy.first().expect("healthy node");
    let dest = *healthy.last().expect("healthy node");

    let mut g = c.benchmark_group("routing_decision");
    for kind in AlgorithmKind::ALL {
        let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
        g.bench_function(kind.paper_name(), |b| {
            b.iter_batched(
                || algo.init_message(src, dest),
                |mut st| algo.route(src, &mut st),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
