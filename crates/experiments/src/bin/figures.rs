//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p wormsim-experiments --bin figures -- all --quick
//! cargo run --release -p wormsim-experiments --bin figures -- fig4
//! ```
//!
//! Markdown and CSV land in `results/`; the Markdown is also printed.
//! Figures 4 and 5 come from one run of their shared fault sweep (also
//! when only one of them is requested); with both requested (as by
//! `all`), it runs once.

use std::io::Write;
use std::time::{Duration, Instant};
use wormsim_experiments::{
    fig1_saturation_throughput, fig2_latency_vs_rate, fig3_vc_utilization, fig4_fig5_fault_sweep,
    fig6_fring_traffic, ExperimentConfig, FigureResult, Progress, Scale,
};

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig1|fig2|fig3|fig4|fig5|fig6|all> [--quick] [--plot] [--seed N] [--threads N] [--out DIR] [--quiet]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which: Vec<&str> = Vec::new();
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut threads = None;
    let mut out_dir = "results".to_string();
    let mut plot = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" => {
                which.push(Box::leak(a.clone().into_boxed_str()))
            }
            "all" => which.extend(["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]),
            "--quick" => scale = Scale::Quick,
            "--plot" => plot = true,
            "--quiet" => quiet = true,
            "--seed" => seed = Some(it.next().unwrap_or_else(|| usage()).parse().expect("seed")),
            "--threads" => {
                threads = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .expect("threads"),
                )
            }
            "--out" => out_dir = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }
    if which.is_empty() {
        usage();
    }

    let progress = Progress::from_quiet_flag(quiet);
    let mut cfg = ExperimentConfig::new(scale).with_progress(progress);
    if let Some(s) = seed {
        cfg = cfg.with_seed(s);
    }
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    std::fs::create_dir_all(&out_dir).expect("create results dir");

    progress.out(format_args!(
        "# wormsim figure reproduction ({:?} scale, seed {}, {} threads)\n",
        scale, cfg.base_seed, cfg.threads
    ));
    // Figures 4 and 5 read the same sweep: it runs once, on the first
    // request for either, and both figures report its time.
    let mut fig45: Option<(FigureResult, FigureResult, Duration)> = None;
    for id in which {
        let t = Instant::now();
        let (fig, elapsed) = match id {
            "fig4" | "fig5" => {
                let (fig4, fig5, took) = fig45.get_or_insert_with(|| {
                    let t = Instant::now();
                    let (fig4, fig5) = fig4_fig5_fault_sweep(&cfg);
                    (fig4, fig5, t.elapsed())
                });
                (if id == "fig4" { fig4 } else { fig5 }.clone(), *took)
            }
            "fig1" => (fig1_saturation_throughput(&cfg), t.elapsed()),
            "fig2" => (fig2_latency_vs_rate(&cfg), t.elapsed()),
            "fig3" => (fig3_vc_utilization(&cfg), t.elapsed()),
            "fig6" => (fig6_fring_traffic(&cfg), t.elapsed()),
            _ => unreachable!(),
        };
        let mut md = format!("## {}\n\n", fig.title);
        for note in &fig.notes {
            md.push_str(&format!("- {note}\n"));
        }
        md.push('\n');
        for (i, table) in fig.tables.iter().enumerate() {
            md.push_str(&table.to_markdown());
            md.push('\n');
            if plot {
                // Wide tables read better as line charts; bar-style data
                // (few columns) as bars.
                let chart = if table.columns.len() >= 4 {
                    table.to_line_chart(70, 14)
                } else {
                    table.to_bar_chart(50)
                };
                md.push_str("```text\n");
                md.push_str(&chart);
                md.push_str("```\n\n");
            }
            let csv_path = format!(
                "{out_dir}/{}{}.csv",
                fig.id,
                if fig.tables.len() > 1 {
                    format!("_{}", (b'a' + i as u8) as char)
                } else {
                    String::new()
                }
            );
            std::fs::write(&csv_path, table.to_csv()).expect("write csv");
        }
        let shared = if matches!(id, "fig4" | "fig5") {
            " (one fault sweep shared by Figures 4 and 5)"
        } else {
            ""
        };
        md.push_str(&format!("_generated in {elapsed:.2?}{shared}_\n"));
        std::fs::write(
            format!("{out_dir}/{}.json", fig.id),
            serde_json::to_string_pretty(&fig).expect("figure serializes"),
        )
        .expect("write json");
        std::fs::write(format!("{out_dir}/{}.md", fig.id), &md).expect("write md");
        progress.out(format_args!("{md}"));
        let _ = std::io::stdout().flush();
    }
}
