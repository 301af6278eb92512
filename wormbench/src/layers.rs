//! Per-layer probes for the traced run: each drives one layer through its
//! public API on inputs shaped like the workload's, and reads work done
//! and time busy.
//!
//! | metric | layer | moves |
//! |---|---|---|
//! | `engine.*` | `Simulator::<NullSink, true>` phase times | `wall_s` (figures), `p50_ms` (serve_distinct) |
//! | `routing.decision_ns.*` | `RoutingAlgorithm::route` | `wall_s` (figures 4–5), `p50_ms` (serve_distinct) |
//! | `fault.pattern_us`, `routing.context_build_us.*` | `random_pattern`, `RoutingContext::new` | `p50_ms` (serve_distinct) |
//! | `experiments.run_ms.*`, `experiments.pool_idle_share` | `parallel_map` over `run_single` | `wall_s` (figures) |

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wormsim_engine::{Phase, SimConfig, Simulator};
use wormsim_experiments::{parallel_map, run_single, RunSpec, FULL_LOAD_RATE};
use wormsim_fault::{random_pattern, FaultPattern};
use wormsim_obs::NullSink;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

use crate::trace::{Tracer, ROOT};
use crate::{figures, metric, serve, stats, Metric};

/// Timed batches per routing-decision reading.
const ROUTE_BATCHES: usize = 21;
/// Samples per pattern / context reading.
const BUILD_SAMPLES: usize = 15;

/// Run every probe that applies to `workload`.
pub fn probes(workload: &str, seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let root = tracer.new_id();
    let start = Instant::now();
    let mut out = engine(workload == "figures_quick", seed, tracer, root);
    out.extend(routing(seed, tracer, root));
    out.extend(patterns_and_contexts(seed, tracer, root));
    if workload == "figures_quick" {
        out.extend(pool_replay(seed, tracer, root));
    }
    tracer.record(root, "bench.probes", ROOT, 0, start, Instant::now());
    out
}

/// A seeded random pattern with `faults` seed faults.
fn pattern(mesh: &Mesh, faults: usize, rng: &mut SmallRng) -> FaultPattern {
    loop {
        if let Ok(p) = random_pattern(mesh, faults, rng) {
            return p;
        }
    }
}

/// Phase-profiled runs of the workload's engine configuration: the
/// `figures_quick` full-load 10×10 quick schedule, or the serve
/// workloads' 8×8 spec. Every algorithm, fault-free and faulty.
fn engine(figures_config: bool, seed: u64, tracer: &Tracer, root: u64) -> Vec<Metric> {
    let (mesh_size, sim, faults) = if figures_config {
        (10, figures::config(seed).sim, 10)
    } else {
        let sim = SimConfig {
            warmup_cycles: serve::WARMUP_CYCLES,
            measure_cycles: serve::MEASURE_CYCLES,
            ..SimConfig::paper()
        };
        (serve::MESH, sim, *serve::FAULTS.end())
    };
    let mesh = Mesh::square(mesh_size);
    let mut rng = SmallRng::seed_from_u64(seed);
    let patterns = [
        FaultPattern::fault_free(&mesh),
        pattern(&mesh, faults, &mut rng),
    ];
    let mut nanos = [0u64; 6];
    let mut cycles = 0u64;
    let mut wall = 0.0;
    for (pi, p) in patterns.iter().enumerate() {
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), p.clone()));
        for (ki, &kind) in AlgorithmKind::ALL.iter().enumerate() {
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let cfg = sim.with_seed(seed ^ ((pi * 64 + ki) as u64));
            let mut s = Simulator::<NullSink, true>::try_build(
                algo,
                ctx.clone(),
                Workload::paper_uniform(FULL_LOAD_RATE),
                cfg,
                NullSink,
            )
            .expect("probe configuration is valid");
            let t = Instant::now();
            tracer.span("engine.run", root, |_| std::hint::black_box(s.run()));
            wall += t.elapsed().as_secs_f64();
            let times = s.phase_times();
            for ph in Phase::ALL {
                nanos[ph as usize] += times.nanos(ph);
            }
            cycles += times.cycles();
        }
    }
    let per_cycle = |ph: Phase| nanos[ph as usize] as f64 / cycles as f64;
    let total: u64 = nanos.iter().sum();
    let mut out = vec![metric("engine.cycles_per_s", "1/s", cycles as f64 / wall)];
    for ph in [
        Phase::Inject,
        Phase::Route,
        Phase::Allocate,
        Phase::Move,
        Phase::Recover,
    ] {
        out.push(metric(
            format!("engine.ns_per_cycle.{}", ph.name()),
            "ns",
            per_cycle(ph),
        ));
    }
    out.push(metric(
        "engine.move_share",
        "ratio",
        nanos[Phase::Move as usize] as f64 / total as f64,
    ));
    out
}

/// Median ns per `route()` call for every algorithm on the paper's 10×10
/// mesh, fault-free and with 10 % faults. Each algorithm's reading is the
/// median of [`ROUTE_BATCHES`] batches, one call per healthy
/// source/destination pair per batch.
fn routing(seed: u64, tracer: &Tracer, root: u64) -> Vec<Metric> {
    let mesh = Mesh::square(10);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut per_algo_max: f64 = 0.0;
    let mut out = Vec::new();
    for (label, p) in [
        ("fault_free", FaultPattern::fault_free(&mesh)),
        ("faulty", pattern(&mesh, 10, &mut rng)),
    ] {
        let ctx = Arc::new(RoutingContext::new(mesh.clone(), p.clone()));
        let healthy: Vec<_> = p.healthy_nodes(&mesh).collect();
        let mut medians = Vec::new();
        for &kind in &AlgorithmKind::ALL {
            let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
            let mut states: Vec<_> = healthy
                .iter()
                .flat_map(|&s| healthy.iter().map(move |&d| (s, d)))
                .filter(|(s, d)| s != d)
                .map(|(s, d)| (s, algo.init_message(s, d)))
                .collect();
            // `route` is idempotent between hops, so every batch repeats
            // the same decisions; the first, untimed, warms the caches.
            for (node, st) in states.iter_mut() {
                std::hint::black_box(algo.route(*node, st));
            }
            let mut batches = Vec::with_capacity(ROUTE_BATCHES);
            for _ in 0..ROUTE_BATCHES {
                let t = Instant::now();
                tracer.span("routing.route_batch", root, |_| {
                    for (node, st) in states.iter_mut() {
                        std::hint::black_box(algo.route(*node, st));
                    }
                });
                batches.push(t.elapsed().as_nanos() as f64 / states.len() as f64);
            }
            let m = stats::median(&stats::sorted(batches));
            per_algo_max = per_algo_max.max(m);
            medians.push(m);
        }
        out.push(metric(
            format!("routing.decision_ns.{label}"),
            "ns",
            stats::median(&stats::sorted(medians)),
        ));
    }
    out.push(metric("routing.decision_ns.max_algo", "ns", per_algo_max));
    out
}

/// `random_pattern` on the 10×10 mesh (10 seed faults), and
/// `RoutingContext::new` for such a pattern and for the serve workloads'
/// 8×8 patterns. Medians of [`BUILD_SAMPLES`] calls.
fn patterns_and_contexts(seed: u64, tracer: &Tracer, root: u64) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mesh10 = Mesh::square(10);
    let mesh8 = Mesh::square(serve::MESH);
    let time_us = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.span(name, root, |_| f());
        t.elapsed().as_nanos() as f64 / 1e3
    };
    let mut pattern_us = Vec::new();
    let mut p10 = Vec::new();
    for _ in 0..BUILD_SAMPLES {
        let mut p = None;
        pattern_us.push(time_us("fault.random_pattern", &mut || {
            p = random_pattern(&mesh10, 10, &mut rng).ok();
        }));
        p10.extend(p);
    }
    let p8: Vec<FaultPattern> = (0..BUILD_SAMPLES)
        .map(|i| pattern(&mesh8, serve::fault_count(i), &mut rng))
        .collect();
    let build = |mesh: &Mesh, ps: &[FaultPattern]| -> f64 {
        let samples: Vec<f64> = ps
            .iter()
            .map(|p| {
                time_us("routing.context_new", &mut || {
                    std::hint::black_box(RoutingContext::new(mesh.clone(), p.clone()));
                })
            })
            .collect();
        stats::median(&stats::sorted(samples))
    };
    vec![
        metric(
            "fault.pattern_us",
            "us",
            stats::median(&stats::sorted(pattern_us)),
        ),
        metric(
            "routing.context_build_us.mesh10_faulty",
            "us",
            build(&mesh10, &p10),
        ),
        metric("routing.context_build_us.mesh8", "us", build(&mesh8, &p8)),
    ]
}

/// A Fig-4-shaped batch — every algorithm at full load, fault-free and
/// over three 5 % and three 10 % patterns — through `parallel_map` over
/// `run_single`, timing each run from inside the pool.
fn pool_replay(seed: u64, tracer: &Tracer, root: u64) -> Vec<Metric> {
    let cfg = figures::config(seed);
    let mesh = Mesh::square(cfg.mesh_size);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut patterns = vec![Arc::new(FaultPattern::fault_free(&mesh))];
    for faults in [5, 10] {
        for _ in 0..cfg.fault_patterns {
            patterns.push(Arc::new(pattern(&mesh, faults, &mut rng)));
        }
    }
    let specs: Vec<RunSpec> = AlgorithmKind::ALL
        .iter()
        .enumerate()
        .flat_map(|(ki, &kind)| {
            patterns.iter().enumerate().map(move |(pi, p)| RunSpec {
                kind,
                pattern: p.clone(),
                rate: FULL_LOAD_RATE,
                seed: seed ^ ((ki * 64 + pi) as u64),
            })
        })
        .collect();
    let batch = tracer.new_id();
    let start = Instant::now();
    let busy: Vec<f64> = parallel_map(&specs, cfg.threads, |s| {
        let t = Instant::now();
        std::hint::black_box(run_single(&cfg, s).expect("replay spec is runnable"));
        let end = Instant::now();
        tracer.record(tracer.new_id(), "experiments.run_single", batch, 0, t, end);
        (end - t).as_secs_f64()
    });
    let wall = start.elapsed().as_secs_f64();
    tracer.record(
        batch,
        "experiments.parallel_map",
        root,
        0,
        start,
        Instant::now(),
    );
    let ms = stats::sorted(busy.iter().map(|s| s * 1e3).collect());
    vec![
        metric("experiments.run_ms.p50", "ms", stats::median(&ms)),
        metric("experiments.run_ms.p99", "ms", stats::quantile(&ms, 0.99)),
        metric("experiments.runs", "count", specs.len() as f64),
        metric(
            "experiments.pool_idle_share",
            "ratio",
            1.0 - busy.iter().sum::<f64>() / (cfg.threads as f64 * wall),
        ),
    ]
}
