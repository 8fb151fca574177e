//! Fault & resilience scenario engine: end-to-end behavior.
//!
//! Pins the three load-bearing properties of the fault engine:
//!
//! 1. **No-fault identity** — attaching [`FaultPlan::none`] leaves results
//!    byte-identical to an engine without fault support (and therefore to
//!    the reference engine, which has none).
//! 2. **Physics under degradation** — a degraded link slows the run but
//!    still moves every payload byte (conservation survives the bandwidth
//!    override), and each fault kind perturbs exactly its own channel.
//! 3. **Recovery cost model** — fail-stop + checkpoint/restart produces
//!    goodput strictly below fault-free throughput, nonzero wasted energy,
//!    and restart/downtime accounting, with MTBF sweeps served by the
//!    shared memoization cache on repeated points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use charllm::prelude::*;
use charllm::sweep::Sweep;
use charllm_hw::{Cluster, GpuId, GpuModel, NodeLayout};
use charllm_models::{presets as models, TrainJob as Job};
use charllm_net::{ChunkingPolicy, CollectiveKind};
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{FaultPlan, RecoveryPolicy, SimError, SimObserver, SimResult, Simulator};
use charllm_trace::builder::{CollKey, TraceBuilder};
use charllm_trace::lower::{lower_train, DeviceHints};
use charllm_trace::trace::TraceMeta;
use charllm_trace::ExecutionTrace;

fn one_node_cluster() -> Cluster {
    Cluster::new("8xH200", GpuModel::H200.spec(), NodeLayout::hgx(), 1).unwrap()
}

fn gpt3_trace(cluster: &Cluster, global_batch: usize) -> ExecutionTrace {
    let job = Job::pretrain(models::gpt3_13b()).with_global_batch(global_batch);
    let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace
}

fn run_with(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    cfg: SimConfig,
    plan: &FaultPlan,
) -> SimResult {
    let placement = Placement::identity(cluster, trace.world()).unwrap();
    Simulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .with_faults(plan)
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn empty_fault_plan_is_byte_identical_three_ways() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let plain = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let with_none = run_with(&cluster, &trace, cfg, &FaultPlan::none());
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plain = serde_json::to_string(&plain).unwrap();
    let with_none = serde_json::to_string(&with_none).unwrap();
    let reference = serde_json::to_string(&reference).unwrap();
    assert_eq!(plain, with_none, "FaultPlan::none() perturbed the engine");
    assert_eq!(
        plain, reference,
        "fault threading perturbed the reference parity"
    );
}

#[test]
fn degraded_link_conserves_payload_and_slows_the_run() {
    // The 2-rank AllReduce from the golden suite, re-run with every link at
    // a quarter of its bandwidth for the whole run: total fabric traffic
    // must still equal exactly 2 × the lowered payload (degradation stalls
    // bytes, never drops them) while the clock runs measurably longer.
    let cluster = one_node_cluster();
    let bytes = 1 << 20;
    let mut b = TraceBuilder::new(2);
    let id = b.collective(
        CollKey {
            site: "ar",
            mb: 0,
            layer: 0,
            aux: 0,
            group_lead: 0,
        },
        CollectiveKind::AllReduce,
        bytes,
        vec![0, 1],
        ChunkingPolicy::nccl_default(),
        false,
    );
    b.blocking(0, id);
    b.blocking(1, id);
    let trace = b.build(TraceMeta {
        tokens_per_iteration: 1,
        ..Default::default()
    });
    let placement = Placement::identity(&cluster, 2).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let pristine = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let mut plan = FaultPlan::none();
    for link in 0..cluster.num_links() {
        plan = plan.link_degrade(link as u32, 0.0, 1e6, 0.25);
    }
    let degraded = run_with(&cluster, &trace, cfg, &plan);
    let lowered = charllm_net::lower_collective(
        CollectiveKind::AllReduce,
        bytes,
        &[GpuId(0), GpuId(1)],
        &cluster,
        ChunkingPolicy::nccl_default(),
    )
    .unwrap();
    let payload: f64 = lowered
        .flows
        .iter()
        .filter(|f| {
            let route = f.route(&cluster).unwrap();
            !route.is_empty() && f.work_bytes(&cluster, &route) > 0.0
        })
        .map(|f| f.bytes as f64)
        .sum();
    let measured: f64 = (0..2).map(|g| degraded.traffic.fabric(g)).sum();
    let expected = 2.0 * payload;
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "degraded fabric traffic {measured} vs expected {expected} (rel err {rel:e})"
    );
    assert!(
        degraded.sim_time_s > pristine.sim_time_s * 1.5,
        "quarter bandwidth should stretch the run: {} vs {}",
        degraded.sim_time_s,
        pristine.sim_time_s
    );
}

#[test]
fn fail_stop_with_checkpoint_restart_cuts_goodput() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 4;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(
        baseline.sim_time_s > 0.5,
        "fault time below must land inside the run"
    );
    let plan =
        FaultPlan::none()
            .gpu_fail_stop(0, 0.5)
            .with_recovery(RecoveryPolicy::CheckpointRestart {
                checkpoint_interval_s: 10.0,
                restart_latency_s: 0.3,
            });
    let faulted = run_with(&cluster, &trace, cfg, &plan);
    assert_eq!(faulted.restarts, 1);
    assert!(
        faulted.fault_downtime_s > 0.7,
        "restart latency + full rollback expected, got {}",
        faulted.fault_downtime_s
    );
    assert!(
        faulted.energy_wasted_j > 0.0,
        "an outage spanning many control periods must waste energy"
    );
    assert!(faulted.energy_wasted_per_failure_j() > 0.0);
    assert!(
        faulted.goodput_tokens_per_s < faulted.tokens_per_s,
        "goodput {} must sit strictly below the productive rate {}",
        faulted.goodput_tokens_per_s,
        faulted.tokens_per_s
    );
    assert!(
        faulted.goodput_tokens_per_s < baseline.tokens_per_s,
        "goodput {} must sit strictly below fault-free throughput {}",
        faulted.goodput_tokens_per_s,
        baseline.tokens_per_s
    );
    // The baseline reports fault-free identities.
    assert_eq!(baseline.restarts, 0);
    assert_eq!(baseline.energy_wasted_j, 0.0);
    assert_eq!(baseline.goodput_tokens_per_s, baseline.tokens_per_s);
}

#[test]
fn straggler_rank_stretches_step_time() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plan = FaultPlan::none().straggler(0, 0.0, 1e6, 4.0);
    let slowed = run_with(&cluster, &trace, cfg, &plan);
    assert!(
        slowed.step_time_s > baseline.step_time_s * 1.2,
        "a 4x straggler must stretch the step: {} vs {}",
        slowed.step_time_s,
        baseline.step_time_s
    );
}

#[test]
fn thermal_runaway_raises_target_gpu_throttle() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plan = FaultPlan::none().thermal_runaway(0, 0.0, 1e6, 40.0);
    let heated = run_with(&cluster, &trace, cfg, &plan);
    // Thermal mass smooths short runs, so the guaranteed signal is the
    // temperature channel itself; throttle residency may only deepen on
    // longer horizons and must never recede.
    assert!(
        heated.telemetry.temp(0).peak() > baseline.telemetry.temp(0).peak() + 1.0,
        "a +40C inlet must heat the target GPU: {} vs {}",
        heated.telemetry.temp(0).peak(),
        baseline.telemetry.temp(0).peak()
    );
    assert!(
        (heated.telemetry.temp(1).peak() - baseline.telemetry.temp(1).peak()).abs() < 1.0,
        "the runaway targets one GPU, not its neighbors"
    );
    assert!(heated.thermal_throttle_ratio[0] >= baseline.thermal_throttle_ratio[0]);
}

#[test]
fn invalid_fault_plans_are_rejected() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    for plan in [
        FaultPlan::none().gpu_fail_stop(99, 1.0),
        FaultPlan::none().link_degrade(0, 1.0, 1.0, 0.0),
        FaultPlan::none().straggler(64, 0.0, 1.0, 2.0),
        FaultPlan::none().gpu_fail_stop(0, f64::NAN),
    ] {
        let err = Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
            .unwrap()
            .with_faults(&plan)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidFaultPlan(_)),
            "expected InvalidFaultPlan, got {err}"
        );
    }
}

#[test]
fn mtbf_sweep_hits_shared_cache_on_repeated_points() {
    let cluster = Arc::new(single_hgx_node());
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let spec = ParallelismSpec::parse("TP2-PP2", cluster.num_gpus()).unwrap();
    let cache = Arc::new(SimCache::new());
    let plan = FaultPlan::periodic_fail_stops(16.0, cluster.num_gpus() as u32, 10.0).with_recovery(
        RecoveryPolicy::CheckpointRestart {
            checkpoint_interval_s: 1.0,
            restart_latency_s: 0.2,
        },
    );
    let sweep = |p: FaultPlan| {
        Sweep::new(Arc::clone(&cluster), job.clone(), vec![spec])
            .with_sim_config(SimConfig::fast())
            .with_cache(Arc::clone(&cache))
            .with_faults(p)
            .strict()
            .run()
            .unwrap()
    };
    let first = sweep(plan.clone());
    let stats = first[0].cache.unwrap();
    assert_eq!(stats.lowered_misses, 1, "cold cache lowers the trace");
    // The identical MTBF point again (a repeated sweep point): fully served.
    let second = sweep(plan);
    let stats = second[0].cache.unwrap();
    assert_eq!(stats.lowered_hits, 1, "same fault plan must hit");
    assert_eq!(stats.plan_hits, 1);
    assert_eq!(
        serde_json::to_string(&first[0].sim).unwrap(),
        serde_json::to_string(&second[0].sim).unwrap(),
        "cache reuse must not change faulted results"
    );
    // A different MTBF is a different scenario: the fault plan participates
    // in the key, so it must miss instead of serving a stale schedule.
    let other = FaultPlan::periodic_fail_stops(8.0, cluster.num_gpus() as u32, 10.0).with_recovery(
        RecoveryPolicy::CheckpointRestart {
            checkpoint_interval_s: 1.0,
            restart_latency_s: 0.2,
        },
    );
    let third = sweep(other);
    let stats = third[0].cache.unwrap();
    assert_eq!(stats.lowered_misses, 1, "different fault plan must miss");
}

// ------------------------------------------------ fail-stop byte identity ---

/// FNV-1a over a canonical byte encoding of a run's outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Digest of every `SimResult` field: the serialized result without its
/// telemetry (shortest round-trip floats, so value-exact), then each GPU's
/// five telemetry series as raw f64 bits read through the store's
/// accessors — an encoding independent of how the store serializes.
fn result_digest(r: &SimResult) -> u64 {
    let mut d = Digest::new();
    let mut value = serde_json::to_value(r).unwrap();
    if let serde_json::Value::Object(fields) = &mut value {
        assert!(fields.remove("telemetry").is_some());
    }
    d.bytes(serde_json::to_string(&value).unwrap().as_bytes());
    let t = &r.telemetry;
    d.u64(t.num_gpus() as u64);
    for g in 0..t.num_gpus() {
        for s in [t.power(g), t.temp(g), t.freq(g), t.util(g), t.pcie(g)] {
            d.f64s(s.times());
            d.f64s(s.values());
        }
    }
    d.0
}

/// 32 GPUs on four HGX-H200 nodes, GPT-3 13B at tp2·pp2·dp8, two
/// iterations (one warm-up) with GPU 13 fail-stopping inside the measured
/// one. The default checkpoint/restart recovery makes the outage a 120 s
/// idle restart followed by a 5.5 s redo of the lost work.
fn four_node_fail_stop() -> (Cluster, Placement, ExecutionTrace, SimConfig, FaultPlan) {
    let cluster = Cluster::new("4xH200", GpuModel::H200.spec(), NodeLayout::hgx(), 4).unwrap();
    let job = Job::pretrain(models::gpt3_13b()).with_global_batch(32);
    let spec = ParallelismSpec::infer_dp(2, 2, 1, cluster.num_gpus(), false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 1;
    let plan = FaultPlan::none().gpu_fail_stop(13, 5.5);
    (cluster, placement, trace, cfg, plan)
}

fn assert_digest(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x} differs from the pinned {want:#018x}"
    );
}

/// The outage's idle ticks run as holds, which must reproduce the full
/// control update exactly: the digests below were recorded with an engine
/// that stepped every GPU through `control_update` on every outage tick.
#[test]
fn fail_stop_outputs_are_pinned_bit_for_bit() {
    let (cluster, placement, trace, cfg, plan) = four_node_fail_stop();
    let run = |cfg: SimConfig, plan: &FaultPlan| {
        Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .run_stats()
            .unwrap()
    };
    let (default, stats) = run(cfg, &plan);
    assert_eq!(default.restarts, 1);
    assert!(default.fault_downtime_s > 125.0, "idle restart plus redo");
    // 120 s idle + 5.5 s redo at 5 ms per tick. All but the first few idle
    // ticks (pre-fault activity, then the clock stepping down to base) are
    // holds; the redo stretch runs full ticks.
    assert_eq!(stats.stall_ticks, 25_101);
    assert_eq!(stats.stall_hold_ticks, 23_994);
    assert_digest(
        "default recovery",
        result_digest(&default),
        0x726c_875d_3c3c_0c5b,
    );

    let (pinned_clocks, stats) = run(
        SimConfig {
            thermal_feedback: false,
            ..cfg
        },
        &plan,
    );
    assert_eq!(stats.stall_hold_ticks, 23_994);
    assert_digest(
        "thermal_feedback: false",
        result_digest(&pinned_clocks),
        0x4ad5_fcc6_e4a3_a04e,
    );

    let (_, clean) = run(cfg, &FaultPlan::none());
    assert_eq!((clean.stall_ticks, clean.stall_hold_ticks), (0, 0));

    let (observed, recorder) = Simulator::with_observer(
        &cluster,
        &placement,
        &trace,
        cfg,
        charllm_telemetry::SpanRecorder::new(),
    )
    .unwrap()
    .with_faults(&plan)
    .unwrap()
    .run_observed()
    .unwrap();
    assert_digest(
        "observed run",
        result_digest(&observed),
        0x726c_875d_3c3c_0c5b,
    );
    assert!(
        recorder
            .power_ticks()
            .iter()
            .any(|tick| tick.measuring && tick.t_s > 6.0 && tick.t_s < 120.0),
        "the outage must fall inside the measured iteration"
    );
    let mut d = Digest::new();
    for tick in recorder.power_ticks() {
        d.u64(u64::from(tick.gpu));
        d.f64(tick.t_s);
        d.f64(tick.power_w);
        d.f64(tick.period_s);
        d.u64(u64::from(tick.measuring));
    }
    assert_digest("observed power ticks", d.0, 0xd50e_da10_ab11_07c4);
}

/// Counts `sample_tick` calls through a shared counter, so the count
/// survives a run that ends in an error (which drops the observer).
struct TickCounter(Arc<AtomicU64>);

impl SimObserver for TickCounter {
    fn sample_tick(
        &mut self,
        _gpu: u32,
        _t_s: f64,
        _power_w: f64,
        _period_s: f64,
        _measuring: bool,
    ) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// An outage far longer than the simulated-time cap ends the run with a
/// timeout once the clock passes the cap, instead of ticking through the
/// whole outage first.
#[test]
fn fail_stop_outage_past_the_time_cap_times_out_promptly() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.max_sim_time_s = 50.0;
    let plan =
        FaultPlan::none()
            .gpu_fail_stop(0, 0.1)
            .with_recovery(RecoveryPolicy::CheckpointRestart {
                checkpoint_interval_s: 10.0,
                restart_latency_s: 1e5,
            });
    let ticks = Arc::new(AtomicU64::new(0));
    let outcome = Simulator::with_observer(
        &cluster,
        &placement,
        &trace,
        cfg,
        TickCounter(Arc::clone(&ticks)),
    )
    .unwrap()
    .with_faults(&plan)
    .unwrap()
    .run();
    assert!(
        matches!(outcome, Err(SimError::Timeout { cap_s }) if cap_s == 50.0),
        "expected a timeout at the 50 s cap, got {outcome:?}"
    );
    let per_gpu = (cfg.max_sim_time_s / cfg.control_period_s) as u64 + 2;
    let ticks = ticks.load(Ordering::Relaxed);
    let bound = per_gpu * cluster.num_gpus() as u64;
    assert!(
        ticks <= bound,
        "{ticks} sample ticks, more than the {bound} the cap allows"
    );
}
