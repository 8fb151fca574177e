//! The three workloads and their output checks. Why each workload exists is
//! in `README.md`; the sizes here are the ones it records.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use charllm::search::{search_configs_with_cache, Candidate, Objective, SearchOptions};
use charllm::{CacheStats, CoreError, Executor, Experiment, RunReport, SimCache};
use charllm_hw::{presets, Cluster};
use charllm_models::{presets as models, TrainJob};
use charllm_parallel::enumerate::{valid_configs, EnumerateOptions};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_perfbench::{stats, Outputs, Record, SeedRng, PER_LAYER};
use charllm_sim::{EngineStats, FaultPlan, RecoveryPolicy, SimConfig, SimResult, Simulator};
use charllm_trace::{lower_train, DeviceHints};

use crate::{end_to_end, repeat, set_detail, Outcome, Rep, WorkDir};

/// The seed whose simulated outputs are pinned. Workloads without a free
/// input are pinned for every seed.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads of the sweep and the search (the benchmark machine has
/// two cores).
const WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GPT-3 13B on 512 GPUs with one fail-stop: the fault stall and the
    /// thermal control tick.
    Failstop,
    /// 128 Mixtral power-cap points over a pre-populated disk tier: cache
    /// reads and per-point fixed costs.
    SweepPowercap,
    /// A Llama-3 70B configuration search over an empty disk tier:
    /// lowering, plan building and cache writes.
    SearchCold,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Failstop,
        Workload::SweepPowercap,
        Workload::SearchCold,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Failstop => "failstop",
            Workload::SweepPowercap => "sweep_powercap",
            Workload::SearchCold => "search_cold",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload: untraced for about `seconds`, or traced.
    pub fn run(self, seed: u64, seconds: f64, trace: bool, work: &mut WorkDir) -> Outcome {
        match (self, trace) {
            (Workload::Failstop, false) => sim_untraced(&SimCase::failstop(seed), seconds),
            (Workload::Failstop, true) => sim_traced(&SimCase::failstop(seed)),
            (Workload::SweepPowercap, false) => sweep_untraced(seed, seconds, work),
            (Workload::SweepPowercap, true) => sweep_traced(seed, work),
            (Workload::SearchCold, false) => search_untraced(seconds, work),
            (Workload::SearchCold, true) => search_traced(work),
        }
    }
}

// ---------------------------------------------------------------- pins ---

/// `failstop` at [`DEFAULT_SEED`] (GPU 193 fails at 5.537 s).
const FAILSTOP_PIN: Outputs = Outputs {
    step_time_s: 3.245869671637166,
    tokens_per_s: 323049.32300966803,
    tokens_per_joule: 0.13155331269268297,
    energy_per_step_j: 7970730.485894652,
    peak_temp_c: 82.97330261933591,
    goodput_tokens_per_s: 8142.179091123339,
    fault_downtime_s: 125.5373452717881,
    restarts: 1.0,
};

/// `sweep_powercap` at [`DEFAULT_SEED`]: each output summed over the points.
const SWEEP_PIN: Outputs = Outputs {
    step_time_s: 462.66793755353604,
    tokens_per_s: 1160509.371111768,
    tokens_per_joule: 87.14572566555462,
    energy_per_step_j: 6162017.039189932,
    peak_temp_c: 10542.019217919295,
    goodput_tokens_per_s: 1160509.371111768,
    fault_downtime_s: 0.0,
    restarts: 0.0,
};

/// `search_cold` (no free input): the finalists best first, and each
/// output summed over them.
const SEARCH_PIN_RANKING: [&str; SEARCH_FINALISTS] = [
    "TP2-PP4", "TP2-PP8", "TP2-PP16", "TP4-PP4", "TP1-PP16", "TP4-PP8", "TP8-PP4", "TP8-PP2",
];
const SEARCH_PIN: Outputs = Outputs {
    step_time_s: 102.59908082067058,
    tokens_per_s: 174524.0185356383,
    tokens_per_joule: 10.418741117099408,
    energy_per_step_j: 1663688.4995495968,
    peak_temp_c: 663.5028728239897,
    goodput_tokens_per_s: 174524.0185356383,
    fault_downtime_s: 0.0,
    restarts: 0.0,
};

// ------------------------------------------------------- shared helpers ---

const FAULT_LAYER: &[&str] = &[
    "fault.downtime_sim_s",
    "fault.restarts",
    "fault.stall_extra_s",
    "thermal.ns_per_control_step",
];
const CACHE_LAYER: &[&str] = &[
    "cache.lowered_hits",
    "cache.lowered_misses",
    "cache.plan_hits",
    "cache.plan_misses",
    "cache.disk_hits",
    "cache.disk_misses",
    "cache.bytes_written",
    "cache.hit_ratio",
];
const EXPERIMENT_LAYER: &[&str] = &[
    "experiment.lower_s",
    "experiment.plan_setup_s",
    "experiment.event_loop_s",
    "experiment.report_s",
];
const SEARCH_LAYER: &[&str] = &["search.candidates", "search.finalists"];

fn outputs(r: &SimResult) -> Outputs {
    Outputs {
        step_time_s: r.step_time_s,
        tokens_per_s: r.tokens_per_s,
        tokens_per_joule: r.tokens_per_joule,
        energy_per_step_j: r.energy_per_step_j,
        peak_temp_c: r.telemetry.peak_temp_c(),
        goodput_tokens_per_s: r.goodput_tokens_per_s,
        fault_downtime_s: r.fault_downtime_s,
        restarts: r.restarts as f64,
    }
}

fn sum(outputs: &[Outputs]) -> Outputs {
    outputs.iter().fold(Outputs::default(), |acc, o| acc.add(o))
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// GPU control steps a run of `gpus` GPUs takes over `sim_s` simulated
/// seconds.
fn control_steps(gpus: usize, sim_s: f64, cfg: &SimConfig) -> f64 {
    (gpus as f64 * sim_s / cfg.control_period_s).round()
}

/// Engine counters summed over `stats` (peaks: the maximum), under the
/// benchmark's own names.
fn engine_metrics(r: &mut Record, stats: &[EngineStats], construct_s: f64, run_s: f64) {
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&EngineStats) -> u64| stats.iter().map(f).max().unwrap_or(0) as f64;
    let events = sum(|s| s.events);
    let pops = sum(|s| s.heap_pops);
    r.exact("net.plan_builds", sum(|s| s.plan_builds));
    r.exact("net.plan_reuses", sum(|s| s.plan_reuses));
    r.exact("net.shared_plan_hits", sum(|s| s.shared_plan_hits));
    r.measured("sim.construct_s", construct_s);
    r.measured("sim.run_s", run_s);
    r.exact("sim.events", events);
    r.measured("sim.events_per_s", events / run_s);
    r.exact("sim.flows_launched", sum(|s| s.flows_launched));
    r.exact("sim.wakes", sum(|s| s.wakes));
    r.exact("sim.colls_retired", sum(|s| s.colls_retired));
    r.exact("sim.peak_live", max(|s| s.peak_live));
    r.exact("sim.peak_live_colls", max(|s| s.peak_live_colls));
    r.exact("sim.arena_slot_reuses", sum(|s| s.arena_slot_reuses));
    r.exact("sim.cal.pushes", sum(|s| s.heap_pushes));
    r.exact("sim.cal.pops", pops);
    r.exact(
        "sim.cal.pops_per_event",
        if events > 0.0 { pops / events } else { 0.0 },
    );
    r.exact("sim.cal.bucket_drains", sum(|s| s.cal_bucket_drains));
    r.exact("sim.cal.rekeys", sum(|s| s.cal_rekeys));
    r.exact("sim.cal.overflow_peak", max(|s| s.cal_overflow_peak));
}

/// Cache counters under the benchmark's names. `racy` is the one count
/// the workload's two workers can make differ between runs.
fn cache_metrics(r: &mut Record, c: &CacheStats, racy: &'static str) {
    for (name, value) in [
        ("cache.lowered_hits", c.lowered_hits),
        ("cache.lowered_misses", c.lowered_misses),
        ("cache.plan_hits", c.plan_hits),
        ("cache.plan_misses", c.plan_misses),
        ("cache.disk_hits", c.disk_hits()),
        (
            "cache.disk_misses",
            c.lowered_disk_misses + c.plan_disk_misses,
        ),
        ("cache.bytes_written", c.bytes_written),
    ] {
        if name == racy {
            r.measured(name, value as f64);
        } else {
            r.exact(name, value as f64);
        }
    }
    r.exact(
        "cache.hit_ratio",
        c.hits() as f64 / c.lookups().max(1) as f64,
    );
}

/// The outcome of a traced run that could not finish: every per-layer
/// metric reads 0 and the run is not correct.
fn failed_traced(problems: Vec<String>, attempted: u64) -> Outcome {
    let mut record = Record::new();
    record.absent(&PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    Outcome {
        attempted: attempted.max(1),
        failed: 1,
        problems,
        record,
        detail: serde_json::json!({}),
    }
}

/// The repetition of a job that returned an error after `elapsed_s`.
fn failed_rep(problem: String, elapsed_s: f64) -> Rep {
    Rep {
        setup_s: elapsed_s,
        wall_s: elapsed_s,
        sim_s: 0.0,
        point_s: vec![elapsed_s],
        failed: 1,
        problems: vec![problem],
        outputs: Vec::new(),
        labels: Vec::new(),
    }
}

/// Keep the first run's outputs; report a later run that differs.
fn agree<T: PartialEq>(first: &mut Option<T>, now: T, problems: &mut Vec<String>) {
    match first {
        None => *first = Some(now),
        Some(f) if *f != now => {
            problems.push("simulated outputs differ between runs of the same inputs".into());
        }
        Some(_) => {}
    }
}

fn traced_overhead(r: &mut Record, traced_s: f64, untraced_s: f64) {
    r.measured("bench.trace_overhead", traced_s / untraced_s - 1.0);
}

// ------------------------------------------------------------- failstop ---

const FAILSTOP_NODES: usize = 64;
/// The measured (second) iteration of the clean 64-node run spans
/// 3.198–6.444 s of simulated time; fail times are drawn inside it.
const FAILSTOP_WINDOW_S: (f64, f64) = (3.3, 6.3);

/// One directly driven simulation: GPT-3 13B at tp4·pp8, data parallelism
/// filling the 64 HGX-H200 nodes, two iterations with one warm-up.
struct SimCase {
    plan: FaultPlan,
    expected_downtime_s: f64,
    expected_restarts: u64,
    pin: Option<Outputs>,
}

impl SimCase {
    /// One GPU fail-stops inside the first measured iteration; the seed
    /// picks the GPU and the time. Recovery is the default checkpoint
    /// restart, whose outage is the restart latency plus the work lost
    /// since the last checkpoint.
    fn failstop(seed: u64) -> SimCase {
        let mut rng = SeedRng::new(seed);
        let gpu = rng.below((FAILSTOP_NODES * 8) as u64) as u32;
        let at_s = rng.uniform(FAILSTOP_WINDOW_S.0, FAILSTOP_WINDOW_S.1);
        let plan = FaultPlan::none().gpu_fail_stop(gpu, at_s);
        let RecoveryPolicy::CheckpointRestart {
            checkpoint_interval_s,
            restart_latency_s,
        } = plan.recovery
        else {
            unreachable!("the default recovery policy is checkpoint/restart")
        };
        SimCase {
            plan,
            expected_downtime_s: restart_latency_s + at_s % checkpoint_interval_s,
            expected_restarts: 1,
            pin: (seed == DEFAULT_SEED).then_some(FAILSTOP_PIN),
        }
    }

    /// The same run with no fault.
    fn clean() -> SimCase {
        SimCase {
            plan: FaultPlan::none(),
            expected_downtime_s: 0.0,
            expected_restarts: 0,
            pin: None,
        }
    }

    fn config() -> SimConfig {
        SimConfig {
            iterations: 2,
            warmup_iterations: 1,
            ..SimConfig::fast()
        }
    }

    fn check(&self, o: &Outputs) -> Vec<String> {
        let mut problems = o.check_invariants(self.expected_downtime_s, self.expected_restarts);
        if let Some(pin) = &self.pin {
            problems.extend(o.diff_pinned(pin));
        }
        problems
    }

    fn detail(&self) -> serde_json::Value {
        serde_json::json!({
            "model": "gpt3_13b",
            "parallelism": "tp4-pp8",
            "gpus": FAILSTOP_NODES * 8,
            "fault_plan": self.plan,
            "expected_downtime_s": self.expected_downtime_s,
        })
    }
}

/// Host times and results of one [`SimCase`] run.
struct SimRun {
    setup_s: f64,
    lower_s: f64,
    construct_s: f64,
    run_s: f64,
    gpus: usize,
    result: SimResult,
    stats: EngineStats,
}

/// Set up (cluster, lowering, construction, fault plan) and run one case.
fn run_sim(case: &SimCase) -> Result<SimRun, String> {
    let t0 = Instant::now();
    let cluster = presets::hgx_h200_with_nodes(FAILSTOP_NODES);
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(512);
    let spec = ParallelismSpec::infer_dp(4, 8, 1, cluster.num_gpus(), false)
        .expect("tp4-pp8 divides every benchmark cluster");
    let partition =
        StagePartition::even(job.arch.num_layers, spec.pp).expect("40 layers split into 8 stages");
    let hints = DeviceHints::for_spec(cluster.gpu());
    let placement =
        Placement::identity(&cluster, spec.world()).expect("the spec fills the cluster");
    let t = Instant::now();
    let lowered = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .map_err(|e| format!("lower_train: {e}"))?;
    let lower_s = seconds_since(t);
    let t = Instant::now();
    let sim = Simulator::new(&cluster, &placement, &lowered.trace, SimCase::config())
        .and_then(|s| s.with_faults(&case.plan))
        .map_err(|e| format!("Simulator::new: {e}"))?;
    let construct_s = seconds_since(t);
    let setup_s = seconds_since(t0);
    let t = Instant::now();
    let (result, stats) = sim.run_stats().map_err(|e| format!("run_stats: {e}"))?;
    Ok(SimRun {
        setup_s,
        lower_s,
        construct_s,
        run_s: seconds_since(t),
        gpus: spec.world(),
        result,
        stats,
    })
}

fn sim_untraced(case: &SimCase, seconds: f64) -> Outcome {
    let reps = repeat(seconds, || {
        let t = Instant::now();
        match run_sim(case) {
            Ok(run) => {
                let o = outputs(&run.result);
                let problems = case.check(&o);
                Rep {
                    setup_s: run.setup_s,
                    wall_s: run.run_s,
                    sim_s: run.result.sim_time_s,
                    point_s: vec![run.run_s],
                    failed: u64::from(!problems.is_empty()),
                    problems,
                    outputs: vec![o],
                    labels: Vec::new(),
                }
            }
            Err(e) => failed_rep(e, seconds_since(t)),
        }
    });
    end_to_end(&reps, case.detail())
}

fn sim_layers(run: &SimRun) -> Record {
    let mut r = Record::new();
    r.measured("trace.lower_s", run.lower_s);
    r.exact("trace.lowerings", 1.0);
    engine_metrics(&mut r, &[run.stats], run.construct_s, run.run_s);
    r.exact(
        "thermal.control_steps",
        control_steps(run.gpus, run.result.sim_time_s, &SimCase::config()),
    );
    r.exact("fault.downtime_sim_s", run.result.fault_downtime_s);
    r.exact("fault.restarts", run.result.restarts as f64);
    r.absent(CACHE_LAYER);
    r.absent(&["cache.bytes_written_serial", "executor.busy_frac"]);
    r.absent(EXPERIMENT_LAYER);
    r.absent(SEARCH_LAYER);
    r
}

fn sim_traced(case: &SimCase) -> Outcome {
    let mut runs = Vec::new();
    let mut problems = Vec::new();
    let mut first = None;
    // A warm-up run, an untraced run, two traced ones, and the same trace
    // clean, for the stall's extra host time.
    let clean = SimCase::clean();
    let jobs = [case, case, case, case, &clean];
    for job in &jobs {
        match run_sim(job) {
            Ok(run) => {
                let o = outputs(&run.result);
                problems.extend(job.check(&o));
                if job.plan == case.plan {
                    agree(&mut first, o, &mut problems);
                }
                runs.push(run);
            }
            Err(e) => return failed_traced(vec![e], jobs.len() as u64),
        }
    }
    let reps: Vec<Record> = runs[2..4].iter().map(sim_layers).collect();
    let (mut record, mismatches) = Record::merge(&reps);
    problems.extend(mismatches);
    let run_s = record.get("sim.run_s").expect("recorded");
    traced_overhead(&mut record, run_s, runs[1].run_s);
    let mut detail = case.detail();
    let clean_run_s = runs[4].run_s;
    let stall_extra_s = run_s - clean_run_s;
    let stall_steps = control_steps(
        runs[2].gpus,
        runs[2].result.fault_downtime_s,
        &SimCase::config(),
    );
    record.measured("fault.stall_extra_s", stall_extra_s);
    record.measured(
        "thermal.ns_per_control_step",
        stall_extra_s * 1e9 / stall_steps,
    );
    set_detail(&mut detail, "clean_run_s", serde_json::json!(clean_run_s));
    set_detail(
        &mut detail,
        "stall_control_steps",
        serde_json::json!(stall_steps),
    );
    set_detail(
        &mut detail,
        "outputs",
        serde_json::json!(format!("{:?}", outputs(&runs[2].result))),
    );
    let failed = u64::from(!problems.is_empty());
    Outcome {
        attempted: jobs.len() as u64,
        failed,
        problems,
        record,
        detail,
    }
}

// ------------------------------------------------------- sweep_powercap ---

const SWEEP_POINTS: usize = 128;
const SWEEP_CAP_RANGE_W: (f64, f64) = (340.0, 650.0);

/// Mixtral 8x7B at PP4-EP8 on the 32-GPU H200 cluster, node 0 capped.
fn sweep_experiment(
    cluster: &Arc<Cluster>,
    cap_w: f64,
    cache: Option<&Arc<SimCache>>,
    self_profile: bool,
) -> Result<RunReport, CoreError> {
    let mut b = Experiment::builder()
        .cluster(Arc::clone(cluster))
        .job(sweep_job())
        .spec(sweep_spec(cluster))
        .sim_config(sweep_config(cap_w))
        .self_profile(self_profile);
    if let Some(cache) = cache {
        b = b.cache(Arc::clone(cache));
    }
    b.run()
}

fn sweep_job() -> TrainJob {
    TrainJob::pretrain(models::mixtral_8x7b()).with_global_batch(8)
}

fn sweep_spec(cluster: &Cluster) -> ParallelismSpec {
    ParallelismSpec::infer_dp(1, 4, 8, cluster.num_gpus(), false)
        .expect("PP4-EP8 fits the 32-GPU cluster")
}

fn sweep_config(cap_w: f64) -> SimConfig {
    SimConfig {
        node_power_cap: Some((0, cap_w)),
        // The cap bites every control step at this cadence too.
        control_period_s: 0.02,
        sample_period_s: 0.2,
        ..SimConfig::fast()
    }
}

/// The caps (one per point) and the point sampled for the traced checks.
/// Each cap is drawn inside its own equal slice of the range, so every
/// seed covers the range evenly and the per-point cost distribution, which
/// depends on how hard the cap bites, barely moves with the seed.
fn sweep_inputs(seed: u64) -> (Vec<f64>, usize) {
    let mut rng = SeedRng::new(seed);
    let (lo, hi) = SWEEP_CAP_RANGE_W;
    let width = (hi - lo) / SWEEP_POINTS as f64;
    let caps = (0..SWEEP_POINTS)
        .map(|i| rng.uniform(lo + width * i as f64, lo + width * (i + 1) as f64))
        .collect();
    (caps, rng.below(SWEEP_POINTS as u64) as usize)
}

struct SweepSetup {
    cluster: Arc<Cluster>,
    cache: Arc<SimCache>,
    setup_s: f64,
}

/// Build the cluster, populate the empty disk tier `dir` with the sweep's
/// lowered trace and plan set (one point run through a throwaway cache),
/// and open the sweep's cache over it.
fn sweep_setup(dir: PathBuf, populate_cap_w: f64) -> Result<SweepSetup, String> {
    let t = Instant::now();
    let cluster = Arc::new(presets::hgx_h200_cluster());
    let open = || {
        SimCache::new()
            .with_disk_tier(&dir)
            .map(Arc::new)
            .map_err(|e| format!("open cache: {e}"))
    };
    sweep_experiment(&cluster, populate_cap_w, Some(&open()?), false)
        .map_err(|e| format!("populate: {e}"))?;
    let cache = open()?;
    Ok(SweepSetup {
        cluster,
        cache,
        setup_s: seconds_since(t),
    })
}

struct SweepPoints {
    wall_s: f64,
    point_s: Vec<f64>,
    reports: Vec<Result<RunReport, CoreError>>,
}

fn run_sweep(s: &SweepSetup, caps: &[f64], self_profile: bool) -> SweepPoints {
    let t = Instant::now();
    let timed = Executor::with_workers(WORKERS).run(caps, |_, cap| {
        let t = Instant::now();
        let report = sweep_experiment(&s.cluster, *cap, Some(&s.cache), self_profile);
        (report, seconds_since(t))
    });
    let wall_s = seconds_since(t);
    let (reports, point_s) = timed.into_iter().unzip();
    SweepPoints {
        wall_s,
        point_s,
        reports,
    }
}

/// Check every point; returns the outputs of the points that ran, the
/// number that failed, and the problems.
fn check_sweep(points: &SweepPoints, seed: u64) -> (Vec<Outputs>, u64, Vec<String>) {
    let mut outs = Vec::new();
    let mut failed = 0;
    let mut problems = Vec::new();
    for (i, report) in points.reports.iter().enumerate() {
        match report {
            Ok(r) => {
                let o = outputs(&r.sim);
                let bad = o.check_invariants(0.0, 0);
                failed += u64::from(!bad.is_empty());
                problems.extend(bad.into_iter().map(|p| format!("point {i}: {p}")));
                outs.push(o);
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("point {i}: {e}"));
            }
        }
    }
    if seed == DEFAULT_SEED && failed == 0 {
        problems.extend(sum(&outs).diff_pinned(&SWEEP_PIN));
    }
    (outs, failed, problems)
}

fn sweep_detail(caps: &[f64], sampled: usize) -> serde_json::Value {
    serde_json::json!({
        "model": "mixtral_8x7b",
        "parallelism": "PP4-EP8",
        "gpus": 32,
        "points": caps.len(),
        "workers": WORKERS,
        "cap_w_first": caps[0],
        "sampled_point": sampled,
    })
}

fn sweep_untraced(seed: u64, seconds: f64, work: &mut WorkDir) -> Outcome {
    let (caps, sampled) = sweep_inputs(seed);
    let reps = repeat(seconds, || {
        let t = Instant::now();
        let setup = match sweep_setup(work.fresh(), caps[0]) {
            Ok(s) => s,
            Err(e) => return failed_rep(e, seconds_since(t)),
        };
        let points = run_sweep(&setup, &caps, false);
        let (outs, failed, problems) = check_sweep(&points, seed);
        Rep {
            setup_s: setup.setup_s,
            wall_s: points.wall_s,
            sim_s: points
                .reports
                .iter()
                .flatten()
                .map(|r| r.sim.sim_time_s)
                .sum(),
            point_s: points.point_s,
            failed,
            problems,
            outputs: outs,
            labels: Vec::new(),
        }
    });
    end_to_end(&reps, sweep_detail(&caps, sampled))
}

/// The sampled point again, driven directly with the lowered trace and
/// plan set from the warm cache, for the engine counters.
fn sweep_direct(s: &SweepSetup, cap_w: f64) -> Result<(SimResult, EngineStats, f64, f64), String> {
    let cluster = &*s.cluster;
    let (job, spec) = (sweep_job(), sweep_spec(cluster));
    let partition =
        StagePartition::even(job.arch.num_layers, spec.pp).expect("32 layers split into 4 stages");
    let hints = DeviceHints::for_spec(cluster.gpu());
    let key = SimCache::lowered_key(
        &job,
        &spec,
        PipelineSchedule::OneFOneB,
        &partition,
        &hints,
        None,
    );
    let (lowered, _) = s
        .cache
        .lowered(&key, || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                .map_err(CoreError::from)
        })
        .map_err(|e| e.to_string())?;
    let placement = Placement::identity(cluster, spec.world()).expect("the spec fills the cluster");
    let (plans, _) = s.cache.plans(cluster, &placement, &key, &lowered.trace, 1);
    let t = Instant::now();
    let sim = Simulator::new(cluster, &placement, &lowered.trace, sweep_config(cap_w))
        .and_then(|sim| sim.with_shared_plans(plans))
        .map_err(|e| e.to_string())?;
    let construct_s = seconds_since(t);
    let t = Instant::now();
    let (result, stats) = sim.run_stats().map_err(|e| e.to_string())?;
    Ok((result, stats, construct_s, seconds_since(t)))
}

fn sweep_traced(seed: u64, work: &mut WorkDir) -> Outcome {
    let (caps, sampled) = sweep_inputs(seed);
    let mut problems = Vec::new();
    let mut failed = 0;
    let mut first = None;
    // A warm-up run, then the untraced one.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let points = match sweep_setup(work.fresh(), caps[0]) {
            Ok(s) => run_sweep(&s, &caps, false),
            Err(e) => return failed_traced(vec![e], 1),
        };
        let (outs, f, p) = check_sweep(&points, seed);
        failed += f;
        problems.extend(p);
        agree(&mut first, outs, &mut problems);
        untraced_s = points.wall_s;
    }
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..2 {
        let setup = match sweep_setup(work.fresh(), caps[0]) {
            Ok(s) => s,
            Err(e) => return failed_traced(vec![e], 1),
        };
        let mut r = Record::new();
        let (job, spec) = (sweep_job(), sweep_spec(&setup.cluster));
        let partition = StagePartition::even(job.arch.num_layers, spec.pp)
            .expect("32 layers split into 4 stages");
        let hints = DeviceHints::for_spec(setup.cluster.gpu());
        let t = Instant::now();
        if let Err(e) = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints) {
            return failed_traced(vec![format!("lower_train: {e}")], 1);
        }
        r.measured("trace.lower_s", seconds_since(t));
        r.exact("trace.lowerings", 1.0);

        let points = run_sweep(&setup, &caps, true);
        walls.push(points.wall_s);
        let (outs, f, p) = check_sweep(&points, seed);
        failed += f;
        problems.extend(p);
        agree(&mut first, outs, &mut problems);
        // Both workers can miss memory at once and each read the disk.
        cache_metrics(&mut r, &setup.cache.stats(), "cache.disk_hits");
        let stage_sum = |stage: &str| -> f64 {
            points
                .reports
                .iter()
                .flatten()
                .filter_map(|rep| rep.stages.as_ref())
                .map(|s| s.seconds(stage))
                .sum()
        };
        r.measured("experiment.lower_s", stage_sum("lower"));
        r.measured("experiment.plan_setup_s", stage_sum("plan_setup"));
        r.measured("experiment.event_loop_s", stage_sum("event_loop"));
        r.measured("experiment.report_s", stage_sum("report"));
        r.measured(
            "executor.busy_frac",
            points.point_s.iter().sum::<f64>() / (WORKERS as f64 * points.wall_s),
        );
        r.exact(
            "thermal.control_steps",
            points
                .reports
                .iter()
                .flatten()
                .map(|rep| control_steps(spec.world(), rep.sim.sim_time_s, &sweep_config(0.0)))
                .sum(),
        );

        let warm = match &points.reports[sampled] {
            Ok(rep) => serde_json::to_string(&rep.sim).expect("result serializes"),
            Err(e) => return failed_traced(vec![format!("sampled point: {e}")], 1),
        };
        match sweep_direct(&setup, caps[sampled]) {
            Ok((result, stats, construct_s, run_s)) => {
                engine_metrics(&mut r, &[stats], construct_s, run_s);
                if serde_json::to_string(&result).expect("result serializes") != warm {
                    problems
                        .push("direct run of the sampled point differs from the sweep's".into());
                }
            }
            Err(e) => return failed_traced(vec![format!("direct sampled point: {e}")], 1),
        }
        // Cache transparency: the point recomputed without any cache is
        // byte-identical to the warm point.
        match sweep_experiment(&setup.cluster, caps[sampled], None, false) {
            Ok(cold) => {
                if serde_json::to_string(&cold.sim).expect("result serializes") != warm {
                    problems.push("uncached sampled point differs from the warm point".into());
                }
            }
            Err(e) => problems.push(format!("uncached sampled point: {e}")),
        }
        r.absent(FAULT_LAYER);
        r.absent(SEARCH_LAYER);
        r.absent(&["cache.bytes_written_serial"]);
        reps.push(r);
    }
    let (mut record, mismatches) = Record::merge(&reps);
    problems.extend(mismatches);
    traced_overhead(&mut record, stats::median(&walls), untraced_s);
    Outcome {
        attempted: 4 * SWEEP_POINTS as u64,
        failed,
        problems,
        record,
        detail: sweep_detail(&caps, sampled),
    }
}

// ---------------------------------------------------------- search_cold ---

const SEARCH_FINALISTS: usize = 8;

fn search_job() -> TrainJob {
    TrainJob::pretrain(models::llama3_70b()).with_global_batch(64)
}

fn search_options(workers: usize) -> SearchOptions {
    SearchOptions {
        objective: Objective::Efficiency,
        finalists: SEARCH_FINALISTS,
        sim: SimConfig::default(),
        workers,
    }
}

struct SearchSetup {
    cluster: Cluster,
    cache: Arc<SimCache>,
    setup_s: f64,
}

/// Build the cluster and open a cache over the empty disk tier `dir`.
fn search_setup(dir: PathBuf) -> Result<SearchSetup, String> {
    let t = Instant::now();
    let cluster = presets::hgx_h200_cluster();
    let cache = SimCache::new()
        .with_disk_tier(dir)
        .map_err(|e| format!("open cache: {e}"))?;
    Ok(SearchSetup {
        cluster,
        cache: Arc::new(cache),
        setup_s: seconds_since(t),
    })
}

fn run_search(s: &SearchSetup, workers: usize) -> (Result<Vec<Candidate>, CoreError>, f64) {
    let t = Instant::now();
    let result = search_configs_with_cache(
        &search_job(),
        &s.cluster,
        search_options(workers),
        Arc::clone(&s.cache),
    );
    (result, seconds_since(t))
}

/// The finalists' outputs and labels (best first), and the problems.
fn check_search(candidates: &[Candidate]) -> (Vec<Outputs>, Vec<String>, Vec<String>) {
    let finalists: Vec<(&Candidate, &RunReport)> = candidates
        .iter()
        .filter_map(|c| c.report.as_ref().map(|r| (c, r)))
        .collect();
    let outs: Vec<Outputs> = finalists.iter().map(|(_, r)| outputs(&r.sim)).collect();
    let labels: Vec<String> = finalists.iter().map(|(c, _)| c.spec.label()).collect();
    let mut problems = Vec::new();
    if finalists.len() != SEARCH_FINALISTS {
        problems.push(format!(
            "{} finalists, expected {SEARCH_FINALISTS}",
            finalists.len()
        ));
    }
    for (label, o) in labels.iter().zip(&outs) {
        problems.extend(
            o.check_invariants(0.0, 0)
                .into_iter()
                .map(|p| format!("{label}: {p}")),
        );
    }
    if labels != SEARCH_PIN_RANKING {
        problems.push(format!("ranking {labels:?}, pinned {SEARCH_PIN_RANKING:?}"));
    }
    problems.extend(sum(&outs).diff_pinned(&SEARCH_PIN));
    (outs, labels, problems)
}

fn search_detail() -> serde_json::Value {
    serde_json::json!({
        "model": "llama3_70b",
        "global_batch": 64,
        "gpus": 32,
        "objective": "efficiency",
        "finalists": SEARCH_FINALISTS,
        "workers": WORKERS,
    })
}

fn search_untraced(seconds: f64, work: &mut WorkDir) -> Outcome {
    let reps = repeat(seconds, || {
        let t = Instant::now();
        let setup = match search_setup(work.fresh()) {
            Ok(s) => s,
            Err(e) => return failed_rep(e, seconds_since(t)),
        };
        let (result, wall_s) = run_search(&setup, WORKERS);
        let candidates = match result {
            Ok(c) => c,
            Err(e) => return failed_rep(format!("search: {e}"), wall_s),
        };
        let (outs, labels, problems) = check_search(&candidates);
        Rep {
            setup_s: setup.setup_s,
            wall_s,
            sim_s: candidates
                .iter()
                .filter_map(|c| c.report.as_ref())
                .map(|r| r.sim.sim_time_s)
                .sum(),
            point_s: vec![wall_s],
            failed: u64::from(!problems.is_empty()),
            problems,
            outputs: outs,
            labels,
        }
    });
    end_to_end(&reps, search_detail())
}

/// Direct simulations of the finalists (same inputs as the search's), for
/// the engine counters. Each must equal the search's own result.
fn search_direct(cluster: &Cluster, candidates: &[Candidate], r: &mut Record) -> Vec<String> {
    let job = search_job();
    let cfg = search_options(WORKERS).sim;
    let hints = DeviceHints::for_spec(cluster.gpu());
    let mut problems = Vec::new();
    let (mut stats, mut construct_s, mut run_s, mut steps) = (Vec::new(), 0.0, 0.0, 0.0);
    for c in candidates {
        let Some(report) = &c.report else { continue };
        let partition = StagePartition::even(job.arch.num_layers, c.spec.pp)
            .expect("the search only keeps specs with an even split");
        let placement = Placement::identity(cluster, c.spec.world())
            .expect("the search only keeps fitting specs");
        let lowered = match lower_train(
            &job,
            &c.spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
        ) {
            Ok(l) => l,
            Err(e) => {
                problems.push(format!("lower_train {}: {e}", c.spec.label()));
                continue;
            }
        };
        let t = Instant::now();
        let sim = match Simulator::new(cluster, &placement, &lowered.trace, cfg) {
            Ok(s) => s,
            Err(e) => {
                problems.push(format!("Simulator::new {}: {e}", c.spec.label()));
                continue;
            }
        };
        construct_s += seconds_since(t);
        let t = Instant::now();
        match sim.run_stats() {
            Ok((result, s)) => {
                run_s += seconds_since(t);
                steps += control_steps(c.spec.world(), result.sim_time_s, &cfg);
                if serde_json::to_string(&result).expect("result serializes")
                    != serde_json::to_string(&report.sim).expect("result serializes")
                {
                    problems.push(format!(
                        "direct run of {} differs from the search's",
                        c.spec.label()
                    ));
                }
                stats.push(s);
            }
            Err(e) => problems.push(format!("run_stats {}: {e}", c.spec.label())),
        }
    }
    engine_metrics(r, &stats, construct_s, run_s);
    r.exact("thermal.control_steps", steps);
    problems
}

fn search_traced(work: &mut WorkDir) -> Outcome {
    let mut problems = Vec::new();
    let mut first = None;
    // Each search, on two workers or one, must rank and simulate alike.
    let mut check = |c: &[Candidate], problems: &mut Vec<String>| {
        let (outs, labels, p) = check_search(c);
        problems.extend(p);
        agree(&mut first, (outs, labels), problems);
    };
    // A warm-up run, then the untraced one.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        let setup = match search_setup(work.fresh()) {
            Ok(s) => s,
            Err(e) => return failed_traced(vec![e], 1),
        };
        let (result, wall_s) = run_search(&setup, WORKERS);
        match result {
            Ok(c) => check(&c, &mut problems),
            Err(e) => return failed_traced(vec![format!("search: {e}")], 1),
        }
        untraced_s = wall_s;
    }
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..2 {
        let setup = match search_setup(work.fresh()) {
            Ok(s) => s,
            Err(e) => return failed_traced(vec![e], 1),
        };
        let mut r = Record::new();
        let job = search_job();
        let hints = DeviceHints::for_spec(setup.cluster.gpu());
        let specs = valid_configs(&job, &setup.cluster, EnumerateOptions::default());
        let t = Instant::now();
        let lowerings = specs
            .iter()
            .filter_map(|spec| {
                StagePartition::even(job.arch.num_layers, spec.pp)
                    .ok()
                    .map(|p| (spec, p))
            })
            .filter(|(spec, p)| {
                lower_train(&job, spec, PipelineSchedule::OneFOneB, p, &hints).is_ok()
            })
            .count();
        r.measured("trace.lower_s", seconds_since(t));
        r.exact("trace.lowerings", lowerings as f64);

        let (result, wall_s) = run_search(&setup, WORKERS);
        walls.push(wall_s);
        let candidates = match result {
            Ok(c) => c,
            Err(e) => return failed_traced(vec![format!("search: {e}")], 1),
        };
        check(&candidates, &mut problems);
        // Concurrent syncs can write one entry more than once.
        cache_metrics(&mut r, &setup.cache.stats(), "cache.bytes_written");
        r.exact("search.candidates", candidates.len() as f64);
        r.exact(
            "search.finalists",
            candidates.iter().filter(|c| c.report.is_some()).count() as f64,
        );
        problems.extend(search_direct(&setup.cluster, &candidates, &mut r));

        // The same search on one worker, for the write amplification.
        let serial = match search_setup(work.fresh()) {
            Ok(s) => s,
            Err(e) => return failed_traced(vec![e], 1),
        };
        match run_search(&serial, 1).0 {
            Ok(c) => check(&c, &mut problems),
            Err(e) => return failed_traced(vec![format!("serial search: {e}")], 1),
        }
        r.exact(
            "cache.bytes_written_serial",
            serial.cache.stats().bytes_written as f64,
        );
        r.absent(FAULT_LAYER);
        r.absent(EXPERIMENT_LAYER);
        r.absent(&["executor.busy_frac"]);
        reps.push(r);
    }
    let (mut record, mismatches) = Record::merge(&reps);
    problems.extend(mismatches);
    traced_overhead(&mut record, stats::median(&walls), untraced_s);
    let failed = u64::from(!problems.is_empty());
    Outcome {
        attempted: 6,
        failed,
        problems,
        record,
        detail: search_detail(),
    }
}
