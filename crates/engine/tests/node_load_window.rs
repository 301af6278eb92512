//! Golden reports at the edges of the node-load measurement window.
//!
//! Per-node load (the Fig. 6 input) counts flit arrivals inside the
//! measurement window `[warmup, warmup + measure)`. The engine settles
//! those counts from per-entry `entered` marks when a VC is released and
//! when the window opens or closes, not on every flit move, so every way
//! a held VC can straddle a window edge is pinned here: watchdog
//! recoveries, draining past the window, a report taken mid-window, an
//! empty warm-up, an empty window, and the pooled sharded movement path.
//!
//! Each case fingerprints the whole serialized `SimReport` (FNV-1a over
//! `serde_json::to_string`). The pins were recorded from the engine that
//! still counted every arrival as the flit moved, so they also prove the
//! lazy settlement adds up to exactly the same sums.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wormsim_engine::{SimConfig, Simulator};
use wormsim_fault::FaultPattern;
use wormsim_metrics::SimReport;
use wormsim_routing::{build_algorithm, AlgorithmKind, RoutingContext, VcConfig};
use wormsim_topology::Mesh;
use wormsim_traffic::Workload;

/// FNV-1a, 64-bit: the repository's report fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fingerprint(report: &SimReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

fn arrivals(report: &SimReport) -> u64 {
    report.node_load.arrivals().iter().sum()
}

fn faulty_ctx(faults: usize, seed: u64) -> Arc<RoutingContext> {
    let mesh = Mesh::square(10);
    let mut rng = SmallRng::seed_from_u64(seed);
    let pattern = wormsim_fault::random_pattern(&mesh, faults, &mut rng).expect("fault pattern");
    Arc::new(RoutingContext::new(mesh, pattern))
}

fn fault_free_ctx() -> Arc<RoutingContext> {
    let mesh = Mesh::square(10);
    Arc::new(RoutingContext::new(
        mesh.clone(),
        FaultPattern::fault_free(&mesh),
    ))
}

fn sim(
    kind: AlgorithmKind,
    ctx: &Arc<RoutingContext>,
    rate: f64,
    length: u32,
    cfg: SimConfig,
) -> Simulator {
    let algo = build_algorithm(kind, ctx.clone(), VcConfig::paper());
    let mut wl = Workload::paper_uniform(rate);
    wl.message_length = length;
    Simulator::new(algo, ctx.clone(), wl, cfg)
}

/// Deadlock-prone free-choice routing on a faulty mesh at full load with
/// a short watchdog: recoveries release whole paths inside the window.
#[test]
fn watchdog_recoveries_under_load() {
    let ctx = faulty_ctx(6, 0x5EED);
    let cfg = SimConfig {
        warmup_cycles: 400,
        measure_cycles: 2_000,
        deadlock_timeout: 300,
        seed: 11,
        ..SimConfig::paper()
    };
    let mut s = sim(AlgorithmKind::FullyAdaptive, &ctx, 0.02, 40, cfg);
    let report = s.run();
    assert!(report.recoveries > 0, "the case must exercise recoveries");
    assert!(arrivals(&report) > 0);
    assert_eq!(fingerprint(&report), "c915430e449f5912");
}

/// Manually injected traffic that keeps draining long after the window
/// closed: VCs held across the closing edge, released outside it.
#[test]
fn drain_runs_past_the_window() {
    let ctx = fault_free_ctx();
    let mesh = ctx.mesh().clone();
    let cfg = SimConfig {
        warmup_cycles: 30,
        measure_cycles: 120,
        seed: 3,
        ..SimConfig::paper()
    };
    let mut s = sim(AlgorithmKind::Duato, &ctx, 0.0, 60, cfg);
    let mut rng = SmallRng::seed_from_u64(9);
    let n = mesh.num_nodes() as u16;
    for i in 0..n {
        use rand::Rng;
        let src = mesh.nodes().nth(i as usize).expect("node");
        let mut dest = src;
        while dest == src {
            dest = mesh
                .nodes()
                .nth(rng.gen_range(0..n) as usize)
                .expect("node");
        }
        s.inject_message(src, dest);
    }
    assert!(s.run_until_drained(50_000), "network must drain");
    assert!(s.cycle() > 150, "the drain must outlast the window");
    let report = s.report();
    assert!(arrivals(&report) > 0);
    assert_eq!(fingerprint(&report), "74275058a43979de");
}

/// A report taken while the window is still open must include the
/// arrivals of VCs that are held right now.
#[test]
fn report_taken_mid_window() {
    let ctx = faulty_ctx(4, 0xAB);
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_000,
        seed: 5,
        ..SimConfig::paper()
    };
    let mut s = sim(AlgorithmKind::Duato, &ctx, 0.01, 40, cfg);
    for _ in 0..750 {
        s.step();
    }
    let report = s.report();
    assert!(report.in_flight_at_end > 0, "VCs must be held mid-window");
    assert!(arrivals(&report) > 0);
    assert_eq!(fingerprint(&report), "845c0cc5a528b091");
}

/// The window opens at cycle 0, before any VC is held.
#[test]
fn zero_warmup() {
    let ctx = fault_free_ctx();
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 900,
        seed: 7,
        ..SimConfig::paper()
    };
    let mut s = sim(AlgorithmKind::PHop, &ctx, 0.01, 40, cfg);
    let report = s.run();
    assert!(arrivals(&report) > 0);
    assert_eq!(fingerprint(&report), "0ca8fce3723df4e4");
}

/// An empty window counts nothing, whatever is released around it.
#[test]
fn zero_measure() {
    let ctx = faulty_ctx(3, 0xCD);
    let cfg = SimConfig {
        warmup_cycles: 600,
        measure_cycles: 0,
        seed: 13,
        ..SimConfig::paper()
    };
    let mut s = sim(AlgorithmKind::Nbc, &ctx, 0.01, 40, cfg);
    let report = s.run();
    assert_eq!(arrivals(&report), 0);
    assert!(
        report.in_flight_at_end > 0,
        "VCs must be held across the edge"
    );
    for _ in 0..200 {
        s.step();
    }
    assert_eq!(arrivals(&s.report()), 0);
    assert_eq!(fingerprint(&report), "c9c1fd9131670802");
}

/// The pooled sharded movement path (forced even on one core) settles
/// tail drains and completions through the shard arena.
#[test]
fn forced_parallel_two_shards() {
    let ctx = faulty_ctx(5, 0xEF);
    let cfg = SimConfig {
        warmup_cycles: 250,
        measure_cycles: 1_200,
        seed: 17,
        ..SimConfig::paper()
    }
    .with_shards(2);
    let mut s = sim(AlgorithmKind::Duato, &ctx, 0.012, 30, cfg);
    s.force_parallel_movement(true);
    let report = s.run();
    s.check_invariants();
    assert!(arrivals(&report) > 0);
    assert_eq!(fingerprint(&report), "b21a3802ee76f55f");
}
