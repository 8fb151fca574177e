//! `perfbench`: the CharLLM-PPT benchmark (see `README.md` beside this
//! package).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Drives the simulator only through its public functions. An untraced run
//! (`--trace 0`) repeats the workload's set-up and timed job for about
//! `--seconds` and prints the end-to-end metrics; a traced run (`--trace 1`)
//! runs the job once untraced and twice with every call into a layer timed
//! from here, and prints the per-layer metrics. Both check the simulated
//! outputs. The last line of standard output is the result object; the line
//! before it holds the run's details (inputs, sample counts, which counts
//! repeated exactly, and any failed check).

mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use charllm_perfbench::{stats, Kind, Outputs, Record, END_TO_END, PER_LAYER};

use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <failstop|sweep_powercap|search_cold> \
     --seed <n> --seconds <n> --trace <0|1>";

/// Untraced runs time at least this many repetitions, after one warm-up,
/// so each reported time is a median.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Fresh directories for the disk tier, under this package's `tmp/`, all
/// removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn new() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("run-{}", std::process::id()));
        // A leftover from an earlier process with the same id is stale.
        let _ = std::fs::remove_dir_all(&root);
        WorkDir { root, next: 0 }
    }

    /// A new, empty directory. The previous one is removed, so at most one
    /// holds data at a time; call it before starting a set-up timer.
    pub fn fresh(&mut self) -> PathBuf {
        let _ = std::fs::remove_dir_all(self.root.join(self.next.to_string()));
        self.next += 1;
        let dir = self.root.join(self.next.to_string());
        std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // `tmp/` itself goes once no other run is using it.
        if let Some(tmp) = self.root.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

/// One repetition of an untraced workload.
pub struct Rep {
    /// Host seconds of everything before the timed job.
    pub setup_s: f64,
    /// Host seconds of the timed job.
    pub wall_s: f64,
    /// Simulated seconds the timed job covered, over all its simulations.
    pub sim_s: f64,
    /// Host seconds of each point of the timed job: a sweep point, or the
    /// whole job where the job is one simulation or one search.
    pub point_s: Vec<f64>,
    /// Points that failed (an error or a failed output check).
    pub failed: u64,
    /// Failed checks, one message each.
    pub problems: Vec<String>,
    /// The simulated outputs of each simulation of the job.
    pub outputs: Vec<Outputs>,
    /// The search's finalists, best first (empty for other workloads).
    pub labels: Vec<String>,
}

impl Rep {
    /// Every simulated output, printed exactly: all repetitions of one
    /// run must agree on it.
    fn fingerprint(&self) -> String {
        format!("{:?} {:?}", self.outputs, self.labels)
    }
}

/// The result of a whole run, before printing.
pub struct Outcome {
    /// Points attempted over the run.
    pub attempted: u64,
    /// Points that failed over the run.
    pub failed: u64,
    /// Failed checks, one message each.
    pub problems: Vec<String>,
    /// The metrics to print.
    pub record: Record,
    /// Workload inputs and outputs for the details line.
    pub detail: serde_json::Value,
}

/// Repeat `rep` until one more repetition as long as the last would pass
/// `seconds`, and at least [`MIN_REPS`] times after the first. The first
/// is a warm-up: checked like the others, but left out of every time.
pub fn repeat(seconds: f64, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(rep());
        let last = t.elapsed().as_secs_f64();
        if reps.len() > MIN_REPS && start.elapsed().as_secs_f64() + last > seconds {
            return reps;
        }
    }
}

/// Host memory high-water mark of this process, in MB (10⁶ bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Set `key` in the JSON object `detail`.
pub fn set_detail(detail: &mut serde_json::Value, key: &str, value: serde_json::Value) {
    if let serde_json::Value::Object(map) = detail {
        map.insert(key, value);
    }
}

/// The end-to-end metrics of an untraced run from its repetitions.
pub fn end_to_end(reps: &[Rep], detail: serde_json::Value) -> Outcome {
    let (warmup, timed) = reps.split_first().expect("a warm-up repetition");
    let median_of =
        |f: &dyn Fn(&Rep) -> f64| stats::median(&timed.iter().map(f).collect::<Vec<_>>());
    let points: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.point_s.iter().copied())
        .collect();
    let attempted: u64 = reps.iter().map(|r| r.point_s.len() as u64).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    if reps
        .iter()
        .any(|r| r.fingerprint() != reps[0].fingerprint())
    {
        problems.push("simulated outputs differ between repetitions".into());
    }
    let mut record = Record::new();
    record.measured("wall_s", median_of(&|r| r.wall_s));
    record.measured("setup_s", median_of(&|r| r.setup_s));
    record.measured("sim_s_per_host_s", median_of(&|r| r.sim_s / r.wall_s));
    record.measured(
        "points_per_s",
        median_of(&|r| r.point_s.len() as f64 / r.wall_s),
    );
    record.measured("point_p50_s", stats::median(&points));
    // With too few points for a p90 (one per repetition, when the job is a
    // single simulation or search), the highest percentile the sample
    // supports stands in for it; the details line says which.
    let tail = stats::supported_percentile(points.len(), 90.0);
    record.measured("point_p90_s", stats::percentile(&points, tail));
    record.measured("peak_rss_mb", peak_rss_mb());
    record.measured(
        "ok_frac",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    let summed = reps[0]
        .outputs
        .iter()
        .fold(Outputs::default(), |a, o| a.add(o));
    let mut detail = detail;
    set_detail(&mut detail, "repetitions", serde_json::json!(timed.len()));
    set_detail(
        &mut detail,
        "warmup_wall_s",
        serde_json::json!(warmup.wall_s),
    );
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    set_detail(
        &mut detail,
        "wall_s_spread_within_run",
        serde_json::json!(stats::quartile_spread(&walls)),
    );
    set_detail(&mut detail, "wall_s_reps", serde_json::json!(walls));
    set_detail(
        &mut detail,
        "point_samples",
        serde_json::json!(points.len()),
    );
    set_detail(&mut detail, "point_p90_percentile", serde_json::json!(tail));
    set_detail(
        &mut detail,
        "outputs_summed",
        serde_json::json!(format!("{summed:?}")),
    );
    set_detail(&mut detail, "ranking", serde_json::json!(reps[0].labels));
    Outcome {
        attempted,
        failed,
        problems,
        record,
        detail,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut work = WorkDir::new();
    let mut outcome = args
        .workload
        .run(args.seed, args.seconds, args.trace, &mut work);
    drop(work);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match outcome.record.to_metrics(table) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "perfbench: {} run emitted the wrong metrics: {e}",
                args.workload.name()
            );
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    // Repetitions repeat one failure; report each once.
    let mut seen = std::collections::BTreeSet::new();
    outcome.problems.retain(|p| seen.insert(p.clone()));
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let details = serde_json::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers_available": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "exact": outcome.record.names(Kind::Exact),
        "measured": outcome.record.names(Kind::Measured),
        "absent": outcome.record.names(Kind::Absent),
        "problems": outcome.problems,
        "workload_detail": outcome.detail,
    });
    println!(
        "{}",
        serde_json::to_string(&details).expect("details serialize")
    );
    let result = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload failstop --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Failstop);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload failstop --seed x --seconds 1 --trace 0",
            "--workload failstop --seed 1 --seconds 0 --trace 0",
            "--workload failstop --seed 1 --seconds 1 --trace 2",
            "--workload failstop --seed 1 --seconds 1",
            "--workload failstop --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
