//! wormbench — the wormsim benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path wormbench/Cargo.toml -- \
//!     --workload <figures_quick|serve_distinct> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload's inputs are generated from
//! `--seed`; the program sees only those inputs. With `--trace 0` the last
//! line of standard output is one JSON object carrying every end-to-end
//! metric named in `BENCHMARK.json`; with `--trace 1` it carries every
//! per-layer metric instead, taken from a traced pass and from per-layer
//! probes, plus the tracing overhead against an untraced pass of the same
//! workload. The line before it is a detail record: provenance, sample
//! counts, the rate-ladder steps and every correctness check. Spans of a
//! traced run are written to `.bench_out/`.
//!
//! Every layer is driven only through its public API: the figure
//! functions, `run_single`/`run_custom`/`parallel_map`, `Simulator`,
//! `RoutingAlgorithm::route`, `RoutingContext::new`, `random_pattern`,
//! and `wormsim_serve`'s `Server`, `Client` and `protocol`.

mod figures;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use trace::Tracer;

const USAGE: &str = "usage: wormbench --workload <figures_quick|serve_distinct> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["figures_quick", "serve_distinct"];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric names and units as `BENCHMARK.json` declares them — the one
/// source of truth for what a run prints.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    whys: BTreeMap<String, String>,
}

fn load_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).map(str::to_string);
                Ok((
                    s("name").ok_or("metric without a name")?,
                    s("unit").ok_or("metric without a unit")?,
                ))
            })
            .collect()
    };
    let mut whys = BTreeMap::new();
    for w in v
        .get("workloads")
        .and_then(|a| a.as_array())
        .ok_or("BENCHMARK.json: no workloads list")?
    {
        let field = |k: &str| w.get(k).and_then(|x| x.as_str()).map(str::to_string);
        if let (Some(name), Some(why)) = (field("name"), field("why")) {
            whys.insert(name, why);
        }
    }
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
        whys,
    })
}

/// A serve workload's p99 latency limit, stored in its `why` line in
/// `BENCHMARK.json` as `p99 limit <N> ms`.
pub fn latency_limit_ms(why: &str) -> Option<f64> {
    let rest = &why[why.find("p99 limit ")? + "p99 limit ".len()..];
    rest.split(" ms").next()?.trim().parse().ok()
}

/// One metric reading.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Operations attempted (requests sent, figures regenerated, runs
    /// re-checked).
    pub attempted: u64,
    /// Failed, refused, unanswered or wrong operations.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// End-to-end readings (without `ok_ratio`/`peak_rss_mb`, which
    /// `main` adds).
    pub end_to_end: Vec<Metric>,
    /// Per-layer readings this workload's own pass yields.
    pub per_layer: Vec<Metric>,
    /// The reading tracing overhead is computed against.
    pub primary: f64,
    /// Extra detail, in order.
    pub detail: Vec<(&'static str, Json)>,
}

impl Pass {
    /// Record a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

pub use serde_json::Value as Json;

/// A JSON object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON array of numbers.
pub fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Float(v)).collect())
}

/// Median of repeated set-up timings.
pub fn median_of(samples: &[f64]) -> f64 {
    stats::median(&stats::sorted(samples.to_vec()))
}

/// Peak resident set size of this process, in MiB: `VmHWM`, the
/// kernel's high-water mark of resident memory.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host, toolchain and source identity, so a reading is compared only
/// with readings from the same host and code.
fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    object([
        ("nproc", Json::UInt(nproc as u64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(command("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest", Json::Str(source_digest())),
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
}

/// FNV-1a over the path and bytes of every file under `crates/` plus
/// `Cargo.lock`: identifies the measured code where no git metadata is
/// present.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", wormsim_experiments::fnv1a(&bytes))
}

/// Run one pass of the named workload.
fn run_pass(args: &Args, seconds: f64, limit_ms: Option<f64>, tracer: &Arc<Tracer>) -> Pass {
    match args.workload.as_str() {
        "figures_quick" => figures::run(args.seed, seconds, tracer),
        "serve_distinct" => {
            serve::run(args.seed, seconds, limit_ms.expect("limit checked"), tracer)
        }
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("wormbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = match load_declared() {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("wormbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let limit_ms = declared
        .whys
        .get(&args.workload)
        .and_then(|why| latency_limit_ms(why));
    if args.workload.starts_with("serve") && limit_ms.is_none() {
        eprintln!(
            "wormbench: BENCHMARK.json gives {} no `p99 limit <N> ms` in its why line",
            args.workload
        );
        return ExitCode::from(2);
    }

    let started = Instant::now();
    let (mut pass, overhead) = if args.trace {
        // A reference pass without spans, then the traced pass; each gets
        // half of the measuring time.
        let half = args.seconds / 2.0;
        let reference = run_pass(&args, half, limit_ms, &Arc::new(Tracer::new(false)));
        let tracer = Arc::new(Tracer::new(true));
        let mut traced = run_pass(&args, half, limit_ms, &tracer);
        let overhead = traced.primary / reference.primary - 1.0;
        traced
            .per_layer
            .extend(layers::probes(&args.workload, args.seed, &tracer));
        for (layer, secs) in tracer.self_seconds() {
            traced
                .per_layer
                .push(metric(format!("trace.self_s.{layer}"), "s", secs));
        }
        traced
            .per_layer
            .push(metric("trace.spans", "count", tracer.len() as f64));
        traced
            .per_layer
            .push(metric("trace.overhead_share", "ratio", overhead));
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            traced.check(false, || format!("writing {}: {e}", path.display()));
        }
        traced.attempted += reference.attempted;
        traced.failed += reference.failed;
        traced.problems.extend(reference.problems);
        (traced, Some(overhead))
    } else {
        let pass = run_pass(&args, args.seconds, limit_ms, &Arc::new(Tracer::new(false)));
        (pass, None)
    };

    let ok_ratio = if pass.attempted == 0 {
        0.0
    } else {
        1.0 - pass.failed as f64 / pass.attempted as f64
    };
    pass.end_to_end.push(metric("ok_ratio", "ratio", ok_ratio));
    pass.end_to_end
        .push(metric("peak_rss_mb", "MiB", peak_rss_mb()));

    // Emit exactly the declared metrics, in declared order. A declared
    // end-to-end metric the workload did not produce, or a produced one
    // that is not declared, is a benchmark bug; a per-layer metric of a
    // layer this workload does not exercise reads 0.
    let (declared_list, produced) = if args.trace {
        (&declared.per_layer, &pass.per_layer)
    } else {
        (&declared.end_to_end, &pass.end_to_end)
    };
    let mut by_name: BTreeMap<&str, &Metric> = BTreeMap::new();
    for m in produced {
        by_name.insert(m.name.as_str(), m);
    }
    let mut problems = pass.problems.clone();
    let mut metrics = Vec::new();
    for (name, unit) in declared_list {
        let value = match by_name.remove(name.as_str()) {
            Some(m) => {
                if m.unit != unit {
                    problems.push(format!("{name}: unit {} but declared {unit}", m.unit));
                }
                m.value
            }
            None if args.trace => 0.0,
            None => {
                problems.push(format!("{name}: declared but not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            problems.push(format!("{name}: not a finite reading"));
        }
        metrics.push((
            name.clone(),
            object([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    for name in by_name.keys() {
        problems.push(format!(
            "{name}: measured but not declared in BENCHMARK.json"
        ));
    }

    let detail = object([
        ("provenance", provenance(&args)),
        ("elapsed_s", Json::Float(started.elapsed().as_secs_f64())),
        ("failed_ratio", Json::Float(1.0 - ok_ratio)),
        (
            "tracing_overhead_share",
            overhead.map_or(Json::Null, Json::Float),
        ),
        (
            "end_to_end",
            object(
                pass.end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), Json::Float(m.value))),
            ),
        ),
        (
            "problems",
            Json::Array(problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("workload", object(pass.detail)),
    ]);
    let json = |v: &Json| serde_json::to_string(v).expect("JSON values serialize");
    println!("{}", json(&object([("detail", detail)])));
    for p in &problems {
        eprintln!("wormbench: FAILED CHECK: {p}");
    }
    let correct = problems.is_empty() && pass.failed == 0;
    println!(
        "{}",
        json(&object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(pass.attempted)),
            ("failed", Json::UInt(pass.failed)),
            ("metrics", object(metrics)),
        ]))
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_limit_is_read_from_the_why_line() {
        assert_eq!(latency_limit_ms("open loop; p99 limit 150 ms"), Some(150.0));
        assert_eq!(latency_limit_ms("p99 limit 2.5 ms, cache hits"), Some(2.5));
        assert_eq!(latency_limit_ms("no limit here"), None);
    }
}
