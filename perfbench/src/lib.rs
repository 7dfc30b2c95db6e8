//! Open-loop serving benchmark of the DHF workspace.
//!
//! One command drives `dhf_serve` from a single open-loop generator,
//! checks every output, and prints the end-to-end metrics (`--trace 0`)
//! or, from a traced run plus a serial per-layer replay, the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

pub mod load;
pub mod macs;
pub mod replay;
pub mod stats;
pub mod workload;

use load::{LoadOptions, LoadReport};
use replay::Metric;
use stats::{median, percentile, reported_percentile};
use workload::{Plan, Workload};

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: dhf_perfbench --workload <oximetry_fast_cold|serve_interp_fleet> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload W --seed N --seconds S --trace 0|1` (all required).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Serve workers for `plan`: never more than the host's cores.
pub fn workers(plan: &Plan) -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(plan.workers)
}

/// The result line of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub summary: Vec<String>,
    /// Why the run's numbers must not be published (empty when valid).
    pub invalid: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// One load run of `args.workload` under its fixed plan.
pub fn run_load(args: &Args, plan: &Plan, traced: bool) -> LoadReport {
    load::run(&LoadOptions {
        workload: args.workload,
        plan: Plan { workers: workers(plan), ..*plan },
        seed: args.seed,
        seconds: args.seconds,
        traced,
    })
}

/// Checks, validity and the deterministic counts shared by both modes.
fn common(report: &LoadReport, out: &mut Outcome) {
    out.correct &= report.check_failures.is_empty();
    out.attempted += report.attempted;
    out.failed += report.failed;
    out.invalid.extend(report.invalid.iter().cloned());
    for f in &report.check_failures {
        out.summary.push(format!("check failed: {f}"));
    }
}

/// `--trace 0`: the end-to-end metrics of one untraced run.
pub fn end_to_end(args: &Args, plan: &Plan) -> Outcome {
    let report = run_load(args, plan, false);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    common(&report, &mut out);
    let lat = &report.chunk_latency_s;
    let p50 = reported_percentile(lat, 50.0);
    if p50.is_none() {
        out.invalid.push(format!("{} chunk latencies are too few for a p50", lat.len()));
    }
    out.metrics = vec![
        ("sessions_per_core".into(), report.sessions_per_core(), "sessions/core"),
        ("chunk_latency_p50_s".into(), p50.unwrap_or(f64::NAN), "s"),
        ("first_output_s".into(), median(&report.first_output_s).unwrap_or(f64::NAN), "s"),
        ("peak_rss_mb".into(), stats::peak_rss_mib(), "MiB"),
        ("setup_s".into(), median(&report.setup_s).unwrap_or(f64::NAN), "s"),
    ];
    let p90 = reported_percentile(lat, 90.0)
        .map_or(format!("n/a ({} samples < 100)", lat.len()), |v| format!("{v} s"));
    out.summary.push(format!("chunk_latency_p90_s = {p90}"));
    out.summary.push(format!("chunk_latency_samples = {}", lat.len()));
    out.summary.push(format!(
        "failed_op_ratio = {} ratio ({} of {} ops; {} Busy refusals)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        report.busy
    ));
    quality_lines(&report, &mut out.summary);
    out
}

/// The deterministic quality and count lines (identical for a seed).
pub fn quality_lines(report: &LoadReport, summary: &mut Vec<String>) {
    if let Some(v) = report.si_sdr_db {
        summary.push(format!("si_sdr_db = {v} dB"));
    }
    if let Some(v) = report.spo2_mae {
        summary.push(format!("spo2_mae = {v} SpO2 fraction ({} windows)", report.spo2_windows));
    }
    summary.push(format!(
        "counts: warm_hits = {}, cold_fits = {}, plans_built = {}",
        report.warm_hits, report.cold_fits, report.plans_built
    ));
}

/// `--trace 1`: an untraced and a traced run of the same workload and
/// seed, then the serial per-layer replay.
pub fn per_layer(args: &Args, plan: &Plan) -> (Outcome, LoadReport) {
    let plan = Plan { setup_reps: 1, ..*plan };
    let untraced = run_load(args, &plan, false);
    let traced = run_load(args, &plan, true);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    common(&untraced, &mut out);
    common(&traced, &mut out);
    let stages = traced.stages.clone().unwrap_or_default();
    let stage = |s: dhf_obs::Stage, p: f64| stages.stage(s).percentile(p).unwrap_or(0.0);
    if stages.dropped_events() > 0 {
        out.invalid.push(format!("{} trace events dropped", stages.dropped_events()));
    }
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    use dhf_obs::Stage;
    let fits = (traced.warm_hits + traced.cold_fits) as f64;
    let mut m: Vec<Metric> = vec![
        ("serve.push_s.p50".into(), p50(&traced.push_s), "s"),
        ("serve.poll_s.p50".into(), p50(&traced.poll_s), "s"),
        (
            "serve.busy_ratio".into(),
            traced.busy as f64 / traced.push_attempts.max(1) as f64,
            "ratio",
        ),
        ("serve.queue_wait_s.p50".into(), stage(Stage::QueueWait, 50.0), "s"),
        ("serve.queue_wait_s.p90".into(), stage(Stage::QueueWait, 90.0), "s"),
        ("serve.ingest_latency_s.p50".into(), traced.ingest_latency_p50_s.unwrap_or(0.0), "s"),
        ("serve.batch_run_s.p50".into(), stage(Stage::BatchRun, 50.0), "s"),
        ("serve.queue_depth_hwm_samples".into(), traced.queue_depth_hwm_samples as f64, "samples"),
        ("serve.backlog_end_samples".into(), traced.backlog_end_samples as f64, "samples"),
        ("stream.chunk_advance_s.p50".into(), stage(Stage::ChunkAdvance, 50.0), "s"),
        ("stream.chunk_flush_s.p50".into(), stage(Stage::ChunkFlush, 50.0), "s"),
        ("stream.chunks".into(), traced.chunks as f64, "count"),
        ("stream.plans_built".into(), traced.plans_built as f64, "count"),
        ("oximetry.windows".into(), traced.spo2_windows as f64, "count"),
        (
            "core.warm_hit_ratio".into(),
            if fits > 0.0 { traced.warm_hits as f64 / fits } else { 0.0 },
            "ratio",
        ),
        ("core.track_validate_s.p50".into(), stage(Stage::TrackValidate, 50.0), "s"),
        ("core.mask_build_s.p50".into(), stage(Stage::MaskBuild, 50.0), "s"),
        ("core.mask_apply_s.p50".into(), stage(Stage::MaskApply, 50.0), "s"),
        ("nn.fit_s.p50".into(), stage(Stage::NnFit, 50.0), "s"),
        ("dsp.stft_analysis_s.p50".into(), stage(Stage::StftAnalysis, 50.0), "s"),
        ("dsp.istft_s.p50".into(), stage(Stage::Istft, 50.0), "s"),
        ("obs.dropped_events".into(), stages.dropped_events() as f64, "count"),
        (
            "obs.tracing_overhead".into(),
            1.0 - traced.sessions_per_core() / untraced.sessions_per_core().max(1e-12),
            "ratio",
        ),
        (
            "bench.generator_late_s.p90".into(),
            percentile(&traced.generator_late_s, 90.0).unwrap_or(0.0),
            "s",
        ),
        (
            "bench.generator_late_s.max".into(),
            percentile(&traced.generator_late_s, 100.0).unwrap_or(0.0),
            "s",
        ),
        ("bench.cpu_s".into(), traced.window_cpu_s, "s"),
    ];
    m.extend(replay::run(args.workload, &plan, args.seed, args.seconds));
    out.metrics = m;
    if let Some(gap) = percentile(&traced.window_gap_s, 50.0) {
        out.summary.push(format!("oximetry.window_gap_s.p50 = {gap} s"));
    }
    quality_lines(&traced, &mut out.summary);
    (out, traced)
}

/// Writes the traced run's benchmark spans as JSON lines.
pub fn write_spans(path: &std::path::Path, report: &LoadReport) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &report.spans {
        let chunk = s.chunk.map_or("null".to_string(), |c| c.to_string());
        writeln!(
            f,
            "{{\"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": \"tick-{}\", \
             \"request\": {{\"session\": {}, \"chunk\": {chunk}}}}}",
            s.name, s.start_s, s.end_s, s.parent_tick, s.session
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_interp_fleet",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeInterpFleet);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&strings(&["--workload", "x"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve_interp_fleet"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.5, "s")],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
