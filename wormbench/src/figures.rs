//! `figures_quick`: the researcher's job — regenerate Figures 1–6 in
//! process at quick scale, as fast as the machine allows.
//!
//! A batch workload: no arrivals, every figure's runs fanned out over
//! the persistent worker pool with `threads` = nproc. Each pass
//! regenerates all six figures; one pass per 11 s of measuring time (4 at
//! the default 45 s). Every figure's tables are fingerprinted; the fingerprints must
//! agree across passes and, for a pinned seed, with the pinned values.

use std::sync::Arc;
use std::time::Instant;

use wormsim_experiments::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization,
    fig4_throughput_vs_faults, fig5_latency_vs_faults, fig6_fring_traffic, fnv1a, parallel_map,
    run_single, ExperimentConfig, FigureResult, RunSpec, Scale, ANALYSIS_RATE, RATE_SWEEP,
};
use wormsim_fault::FaultPattern;
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Mesh;

use crate::trace::{Tracer, ROOT};
use crate::{median_of, metric, numbers, object, stats, Json, Pass};

type FigureFn = fn(&ExperimentConfig) -> FigureResult;

/// The six figures, with the span name of each call.
const FIGURES: [(&str, FigureFn); 6] = [
    ("experiments.fig1", fig1_saturation_throughput),
    ("experiments.fig2", fig2_latency_vs_rate),
    ("experiments.fig3", fig3_vc_utilization),
    ("experiments.fig4", fig4_throughput_vs_faults),
    ("experiments.fig5", fig5_latency_vs_faults),
    ("experiments.fig6", fig6_fring_traffic),
];

/// Table fingerprints of Figures 1–6 at quick scale, per seed. Seed 1 is
/// the benchmark's default seed; seed 2 is held out.
const PINS: [(u64, [u64; 6]); 2] = [
    (
        1,
        [
            0x9fe9541abae36467,
            0x0cd6be1c3475dd64,
            0xe4482638cda07247,
            0x9417e1d2e6b447e6,
            0xe1662fb9045a3757,
            0xec28fb50ef30baf3,
        ],
    ),
    (
        2,
        [
            0x07c2394f33b6aeac,
            0xd9572b08822b0ccb,
            0x2d96442c85e84b09,
            0xf315db6e34cdd5d5,
            0xd13910e7e9199594,
            0xa0b57d0e167cb4ac,
        ],
    ),
];

/// The seed whose Figure 6 every run re-checks against its pin, so that
/// a change in simulated results fails the gate whatever seed is given.
const SPOT_SEED: u64 = 1;

/// Measuring time budgeted per pass (a pass takes 9–11 s on a 2-core
/// Xeon container).
const PASS_SECONDS: f64 = 11.0;

/// Fingerprint of one figure: FNV-1a over its id and every table's CSV
/// (full-precision values, so any change in a simulated statistic
/// changes it).
pub fn fingerprint(fig: &FigureResult) -> u64 {
    let mut text = String::from(fig.id);
    for t in &fig.tables {
        text.push('\n');
        text.push_str(&t.title);
        text.push('\n');
        text.push_str(&t.to_csv());
    }
    fnv1a(text.as_bytes())
}

/// Simulation runs behind one regeneration of all six figures.
pub fn runs_per_pass(cfg: &ExperimentConfig) -> usize {
    let all = AlgorithmKind::ALL.len();
    let rate_sweep = RATE_SWEEP.len() * AlgorithmKind::FAULT_FREE_TEN.len();
    let fig3 = all * cfg.fault_patterns; // panels a and b split the roster
    let fault_cases = all * (1 + 2 * cfg.fault_patterns); // 0 %, 5 %, 10 %
    let fig6 = all * 2; // fault-free and the §5.2 layout
    2 * rate_sweep + fig3 + 2 * fault_cases + fig6
}

/// Quick-scale configuration for `seed`, fanned out over every core.
pub fn config(seed: u64) -> ExperimentConfig {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ExperimentConfig::new(Scale::Quick)
        .with_seed(seed)
        .with_threads(nproc)
}

/// Set-up: build the configuration and start the pool — one short run
/// per pool thread, which spawns the workers and parks a simulator on
/// each. The warm-up runs are the same for every seed. The pool is
/// persistent, so only the first set-up of a process starts it.
fn set_up(seed: u64) -> ExperimentConfig {
    let cfg = config(seed);
    let mesh = Mesh::square(cfg.mesh_size);
    let pattern = Arc::new(FaultPattern::fault_free(&mesh));
    let warm: Vec<RunSpec> = (0..cfg.threads as u64)
        .map(|i| RunSpec {
            kind: AlgorithmKind::Duato,
            pattern: pattern.clone(),
            rate: ANALYSIS_RATE,
            seed: i,
        })
        .collect();
    let delivered = parallel_map(&warm, cfg.threads, |s| {
        run_single(&cfg, s)
            .expect("warm-up spec is runnable")
            .normalized_throughput()
    });
    assert!(
        delivered.iter().all(|&d| d > 0.0),
        "warm-up runs delivered nothing"
    );
    cfg
}

/// Every value a figure reports is a finite, non-negative number.
fn sane(fig: &FigureResult) -> bool {
    fig.tables.iter().all(|t| {
        !t.rows.is_empty()
            && t.rows
                .iter()
                .all(|(_, vals)| vals.iter().all(|v| v.is_finite() && *v >= 0.0))
    })
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();

    // One set-up, timed: in a fresh process it starts the pool. (The
    // traced run's second pass finds the pool already running.)
    let t = Instant::now();
    let cfg = set_up(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let runs = runs_per_pass(&cfg);

    // Timed window: a pass count fixed by `seconds`, not by how fast the
    // passes go, so every run does the same work.
    let passes = ((seconds / PASS_SECONDS).round() as usize).max(1);
    let mut walls = Vec::new();
    let mut figure_secs: [Vec<f64>; 6] = Default::default();
    let mut prints: Vec<[u64; 6]> = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        let results = tracer.span("bench.figures_pass", ROOT, |parent| {
            FIGURES.map(|(name, f)| {
                let t = Instant::now();
                let fig = tracer.span(name, parent, |_| f(&cfg));
                (fig, t.elapsed().as_secs_f64())
            })
        });
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let mut fp = [0u64; 6];
        for (i, (fig, secs)) in results.iter().enumerate() {
            figure_secs[i].push(*secs);
            fp[i] = fingerprint(fig);
            pass.attempted += 1;
            pass.check(sane(fig), || {
                format!("{}: a table holds a non-finite or negative value", fig.id)
            });
        }
        prints.push(fp);
    }

    // Correctness: passes agree, and pinned seeds match their pins.
    for (p, fp) in prints.iter().enumerate().skip(1) {
        for i in 0..6 {
            pass.check(fp[i] == prints[0][i], || {
                format!(
                    "fig{}: pass {p} fingerprint {:016x} differs from pass 0 {:016x}",
                    i + 1,
                    fp[i],
                    prints[0][i]
                )
            });
        }
    }
    let pinned = PINS.iter().find(|(s, _)| *s == seed).map(|(_, p)| *p);
    if let Some(pin) = pinned {
        for i in 0..6 {
            pass.check(prints[0][i] == pin[i], || {
                format!(
                    "fig{}: fingerprint {:016x} but pinned {:016x} for seed {seed}",
                    i + 1,
                    prints[0][i],
                    pin[i]
                )
            });
        }
    }
    let spot = PINS
        .iter()
        .find(|(s, _)| *s == SPOT_SEED)
        .map(|(_, p)| p[5]);
    let spot_fp = fingerprint(&fig6_fring_traffic(&config(SPOT_SEED)));
    pass.attempted += 1;
    pass.check(spot == Some(spot_fp), || {
        format!("fig6 at seed {SPOT_SEED}: fingerprint {spot_fp:016x} but pinned {spot:016x?}")
    });

    let wall_s = median_of(&walls);
    let all_figs: Vec<f64> = figure_secs.iter().flatten().map(|s| s * 1e3).collect();
    let all_figs = stats::sorted(all_figs);
    // Six figures a pass are too few samples for the ten-beyond rule, so
    // the tail of a regeneration is its slowest figure.
    let slowest = all_figs.last().copied().unwrap_or(f64::NAN);
    pass.end_to_end = vec![
        metric("setup_s", "s", setup_s),
        metric("wall_s", "s", wall_s),
        metric("p50_ms", "ms", stats::median(&all_figs)),
        metric("p99_ms", "ms", slowest),
        metric("max_rps", "1/s", runs as f64 / wall_s),
    ];
    for (i, secs) in figure_secs.iter().enumerate() {
        pass.per_layer.push(metric(
            format!("experiments.figure_s.fig{}", i + 1),
            "s",
            median_of(secs),
        ));
    }
    pass.primary = wall_s;
    let hex = |f: u64| Json::Str(format!("{f:016x}"));
    pass.detail = vec![
        ("passes", Json::UInt(walls.len() as u64)),
        ("runs_per_pass", Json::UInt(runs as u64)),
        ("threads", Json::UInt(cfg.threads as u64)),
        ("pass_wall_s", numbers(&walls)),
        ("setup_s", Json::Float(setup_s)),
        (
            "latency_samples",
            object([
                ("unit", Json::Str("per-figure latency".into())),
                ("samples", Json::UInt(all_figs.len() as u64)),
                ("tail", Json::Str("slowest figure".into())),
            ]),
        ),
        ("fingerprints", Json::Array(prints[0].map(hex).into())),
        ("pinned_seed", Json::Bool(pinned.is_some())),
        ("spot_fig6_fingerprint", hex(spot_fp)),
    ];
    pass
}
