//! The traced run: the benchmark plays the continuous server's loop
//! itself, calling the same public layer functions, and times the
//! calls into each layer from outside.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ntx_sched::{
    BackendKind, ClusterPlan, DurationTable, Job, JobKind, JobResult, ReadbackSource, SchedError,
    SimulatorBackend, TilePipeline, Tiler,
};
use ntx_sim::{Cluster, ClusterConfig};

use crate::client::{wrong_outputs, Client, Record, Until};
use crate::procfs::ProcSample;
use crate::serve::{drive, server_config, set_up};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{compile_step, hash_output, macs, Kind, Op, Stream, Workload};

/// Which execution path a replay takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `SimulatorBackend` admission and farm stepping.
    Sim,
    /// `ntx_cpu` exact kernels, answered inline.
    Native,
}

/// Where the simulator placed one job.
#[derive(Debug, Clone)]
pub struct Placed {
    /// Stream of the job's request.
    pub stream: Stream,
    /// Request of the job.
    pub req: u64,
    /// Op index within the request.
    pub op: usize,
    /// Shard count the tiler planned with.
    pub planned_shards: usize,
    /// Cluster of each non-empty shard.
    pub clusters: Vec<usize>,
}

/// What one replay measured over its window.
#[derive(Debug)]
pub struct Replayed {
    /// Spans of the window (empty when untraced).
    pub tracer: Tracer,
    /// Wall time of the window, s.
    pub wall_s: f64,
    /// Every job the simulator admitted in the window.
    pub placements: Vec<Placed>,
    /// Every job the simulator admitted during warm-up.
    pub warm_placements: Vec<Placed>,
    /// Per simulated job: start cycle minus the farm's virtual now at
    /// admission.
    pub waits: Vec<f64>,
    /// Shards retired in the window.
    pub shards: u64,
    /// Cluster-cycles of those shards.
    pub busy_cycles: u64,
    /// Multiply-accumulates executed natively in the window.
    pub macs: u64,
    /// The window's closed loop.
    pub rec: Record,
    /// Failed or wrong jobs, warm-up included.
    pub bad: u64,
}

/// A job waiting for predecessors, as the server parks it.
struct Parked {
    job: Job,
    missing: Vec<u64>,
}

/// The server loop the benchmark plays.
struct Engine<'w> {
    w: &'w Workload,
    path: Path,
    sim: SimulatorBackend,
    table: DurationTable,
    cpu: ntx_cpu::NativeBackend,
    next_id: u64,
    owner: HashMap<u64, (u64, usize)>,
    done: HashSet<u64>,
    parked: Vec<Parked>,
    vnow_at_admit: HashMap<u64, u64>,
    out: Replayed,
}

/// Warms up on the warm-up stream, then replays `window` requests of
/// the main stream of `w` along `path`, traced when `traced`.
#[must_use]
pub fn replay(w: &Workload, path: Path, window: u64, traced: bool) -> Replayed {
    let mut e = Engine {
        w,
        path,
        sim: SimulatorBackend::new(server_config(w).scale_out),
        table: DurationTable::new(),
        cpu: ntx_cpu::NativeBackend::exact().with_threads(1),
        next_id: 0,
        owner: HashMap::new(),
        done: HashSet::new(),
        parked: Vec::new(),
        vnow_at_admit: HashMap::new(),
        out: empty(w, false),
    };
    let until = Until::Warm {
        clusters: path == Path::Sim,
    };
    let mut warm = Client::new(w, Stream::Warmup, until);
    e.play(&mut warm);
    let warm_placements = std::mem::replace(&mut e.out, empty(w, traced)).placements;
    let mut main = Client::new(w, Stream::Main, Until::Requests(window));
    let t0 = Instant::now();
    e.play(&mut main);
    let mut out = e.out;
    out.wall_s = t0.elapsed().as_secs_f64();
    out.bad = warm.rec.failed
        + main.rec.failed
        + wrong_outputs(w, Stream::Warmup, &warm.rec.outputs)
        + wrong_outputs(w, Stream::Main, &main.rec.outputs);
    out.rec = main.rec;
    out.warm_placements = warm_placements;
    out
}

/// Empty window measurements, recording spans when `traced`.
fn empty(w: &Workload, traced: bool) -> Replayed {
    Replayed {
        tracer: Tracer::new(traced),
        wall_s: 0.0,
        placements: Vec::new(),
        warm_placements: Vec::new(),
        waits: Vec::new(),
        shards: 0,
        busy_cycles: 0,
        macs: 0,
        rec: Record::new(w.clusters()),
        bad: 0,
    }
}

impl Engine<'_> {
    /// The server loop for one caller: admit what the caller sends,
    /// retire one shard event, deliver, repeat.
    fn play(&mut self, client: &mut Client<'_>) {
        loop {
            while let Some((req, ops)) = client.next_request() {
                self.submit(client, req, ops);
            }
            if !client.busy() {
                return;
            }
            let retire = self
                .out
                .tracer
                .span("farm.step", u64::MAX, |_| self.sim.step_farm())
                .expect("a busy simulator loop has farm work");
            self.table
                .observe(retire.class, retire.est_cycles, retire.cycles);
            self.out.shards += 1;
            self.out.busy_cycles += retire.cycles;
            if let Some(result) = retire.result {
                let released = self.finish(client, result.job_id, Ok(&result));
                self.admit_all(client, released);
            }
        }
    }

    /// Validates every op of a request; ready ones are admitted, the
    /// rest park on their predecessors.
    fn submit(&mut self, client: &mut Client<'_>, req: u64, ops: Vec<Op>) {
        let base = self.next_id;
        self.next_id += ops.len() as u64;
        let mut ready = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let id = base + i as u64;
            self.owner.insert(id, (req, i));
            let mut job = Job::new(id, op.label, op.kind);
            job.opts.backend = match self.path {
                Path::Sim => BackendKind::Simulate,
                Path::Native => BackendKind::NativeExact,
            };
            job.deps = op.deps.iter().map(|&d| base + d as u64).collect();
            if let Err(e) = self.out.tracer.span("validate", id, |_| job.validate()) {
                ready.extend(self.finish(client, id, Err(&e)));
                continue;
            }
            let missing: Vec<u64> = job
                .deps
                .iter()
                .copied()
                .filter(|d| !self.done.contains(d))
                .collect();
            if missing.is_empty() {
                ready.push(job);
            } else {
                self.parked.push(Parked { job, missing });
            }
        }
        self.admit_all(client, ready);
    }

    /// Admits ready jobs in id order (every job has the default
    /// priority), cascading through inline completions.
    fn admit_all(&mut self, client: &mut Client<'_>, mut ready: Vec<Job>) {
        while !ready.is_empty() {
            ready.sort_by_key(|j| std::cmp::Reverse(j.id));
            let job = ready.pop().expect("non-empty");
            let id = job.id;
            let released = match self.path {
                Path::Sim => {
                    let vnow = self.sim.virtual_now();
                    let placed = self.out.tracer.span("admit", id, |_| {
                        self.sim.admit_continuous_within(&job, &self.table, None)
                    });
                    match placed {
                        Ok(p) => {
                            let (req, op) = self.owner[&id];
                            self.out.placements.push(Placed {
                                stream: client.stream(),
                                req,
                                op,
                                planned_shards: p.planned_shards,
                                clusters: p.clusters,
                            });
                            self.vnow_at_admit.insert(id, vnow);
                            Vec::new()
                        }
                        Err(e) => self.finish(client, id, Err(&e)),
                    }
                }
                Path::Native => {
                    let output = self
                        .out
                        .tracer
                        .span("native.kernel", id, |_| native(&self.cpu, &job.kind));
                    self.out.macs += macs(&job.kind);
                    let result = JobResult {
                        job_id: id,
                        label: job.label,
                        output,
                        report: ntx_sched::ScaleOutReport::new(self.w.clusters(), 1.0),
                        start_cycle: 0,
                        finish_cycle: 0,
                        estimate: None,
                        backend: BackendKind::NativeExact,
                    };
                    self.finish(client, id, Ok(&result))
                }
            };
            ready.extend(released);
        }
    }

    /// Delivers job `id` to its caller and returns the parked jobs it
    /// was the last missing predecessor of.
    fn finish(
        &mut self,
        client: &mut Client<'_>,
        id: u64,
        result: Result<&JobResult, &SchedError>,
    ) -> Vec<Job> {
        if let (Ok(r), Some(vnow)) = (result, self.vnow_at_admit.remove(&id)) {
            self.out
                .waits
                .push(r.start_cycle.saturating_sub(vnow) as f64);
        }
        let (req, op) = self.owner.remove(&id).expect("finished job has an owner");
        client.complete(req, op, None, result);
        self.done.insert(id);
        let mut released = Vec::new();
        let mut i = 0;
        while i < self.parked.len() {
            self.parked[i].missing.retain(|d| *d != id);
            if self.parked[i].missing.is_empty() {
                released.push(self.parked.swap_remove(i).job);
            } else {
                i += 1;
            }
        }
        released
    }
}

/// Runs a job on the native exact kernels.
fn native(cpu: &ntx_cpu::NativeBackend, kind: &JobKind) -> Vec<f32> {
    match kind {
        JobKind::Gemm { dims, a, b } => cpu.gemm(dims, a, b),
        JobKind::Axpy { a, x, y } => cpu.axpy(*a, x, y),
        JobKind::Conv2d {
            kernel,
            image,
            weights,
        } => cpu.conv2d(kernel, image, weights),
        JobKind::Stencil2d {
            height,
            width,
            grid,
        } => cpu.stencil2d(*height as usize, *width as usize, grid),
        JobKind::Raw(_) => unreachable!("the workloads submit no raw jobs"),
    }
}

/// Host time of each shard phase, from replaying the simulator's plans
/// on standalone clusters exactly as the farm runs a shard.
#[derive(Debug, Default)]
pub struct Split {
    /// Jobs planned.
    pub jobs: u64,
    /// Non-empty shard plans.
    pub shards: u64,
    /// Simulated cluster-cycles.
    pub cycles: u64,
    /// `Tiler::plan` time, ns.
    pub plan_ns: u64,
    /// Preload (ext and TCDM writes) time, ns.
    pub stage_ns: u64,
    /// `TilePipeline` time, ns.
    pub sim_ns: u64,
    /// Readback time, ns.
    pub readback_ns: u64,
    /// `(request, op, hash)` of every assembled output.
    pub outputs: Vec<(u64, usize, u64)>,
    /// Assembled outputs that differ from the replay's.
    pub mismatched: u64,
}

/// Re-plans every placed job at its recorded shard count and runs each
/// shard on a standalone cluster standing in for the farm cluster it
/// was placed on — so every cluster sees the farm's shard sequence,
/// warm-up included — through the calls the farm makes per shard:
/// preload writes, `TilePipeline::run_to_completion`, readbacks. Only
/// the window's shards are counted.
#[must_use]
pub fn split_pass(w: &Workload, replayed: &Replayed) -> Split {
    let mut clusters: Vec<Cluster> = (0..w.clusters())
        .map(|_| Cluster::new(ClusterConfig::default()))
        .collect();
    let mut warm = Split::default();
    split_into(w, &replayed.warm_placements, &mut clusters, &mut warm);
    let mut s = Split::default();
    split_into(w, &replayed.placements, &mut clusters, &mut s);
    let hashes: HashSet<(u64, usize, u64)> = replayed.rec.outputs.iter().copied().collect();
    s.mismatched = s.outputs.iter().filter(|o| !hashes.contains(o)).count() as u64;
    s
}

fn split_into(w: &Workload, placements: &[Placed], clusters: &mut [Cluster], s: &mut Split) {
    let mut current: Option<(u64, Vec<Op>)> = None;
    for p in placements {
        if current.as_ref().is_none_or(|(r, _)| *r != p.req) {
            current = Some((p.req, w.request(p.stream, p.req)));
        }
        let o = &current.as_ref().expect("request generated").1[p.op];
        let job = Job::new(0, o.label.clone(), o.kind.clone());
        let t = Instant::now();
        let plans = Tiler::new(p.planned_shards)
            .plan(&job, &clusters[0])
            .expect("an admitted job re-plans");
        s.plan_ns += t.elapsed().as_nanos() as u64;
        s.jobs += 1;
        let mut out = vec![0f32; job.output_len()];
        let nonempty = plans.into_iter().filter(|plan| !plan.is_empty());
        for (plan, &c) in nonempty.zip(&p.clusters) {
            run_shard(&mut clusters[c], plan, &mut out, s);
        }
        s.outputs.push((p.req, p.op, hash_output(&out)));
    }
}

fn run_shard(cluster: &mut Cluster, mut plan: ClusterPlan, out: &mut [f32], s: &mut Split) {
    s.shards += 1;
    let t0 = Instant::now();
    for (addr, values) in &plan.ext_writes {
        cluster.ext_mem().write_f32_slice(*addr, values);
    }
    for (addr, values) in &plan.tcdm_writes {
        cluster.write_tcdm_f32(*addr, values);
    }
    let t1 = Instant::now();
    let c0 = cluster.cycle();
    if let Some(raw) = &plan.raw {
        cluster.offload(0, &raw.config);
        cluster.run_to_completion();
    }
    let tiles = std::mem::take(&mut plan.tiles);
    if !tiles.is_empty() {
        TilePipeline::new(cluster, tiles).run_to_completion(cluster);
    }
    let t2 = Instant::now();
    s.cycles += cluster.cycle() - c0;
    for rb in &plan.readbacks {
        let dst = &mut out[rb.dst..rb.dst + rb.len as usize];
        match rb.source {
            ReadbackSource::Ext(addr) => cluster.ext_mem().read_f32_into(addr, dst),
            ReadbackSource::Tcdm(addr) => cluster.read_tcdm_into(addr, dst),
        }
    }
    let t3 = Instant::now();
    s.stage_ns += (t1 - t0).as_nanos() as u64;
    s.sim_ns += (t2 - t1).as_nanos() as u64;
    s.readback_ns += (t3 - t2).as_nanos() as u64;
}

/// Requests replayed per traced run: `(own path, other path)`. Fixed,
/// so the cycle-domain metrics repeat exactly for a given seed.
fn windows(kind: Kind) -> (u64, u64) {
    match kind {
        Kind::ServeMix => (2048, 2048),
        Kind::TrainStep => (2, 2),
        Kind::TrainStepNative => (8, 1),
    }
}

/// Result of the traced run.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics `(name, value, unit)`, in `BENCHMARK.json`
    /// order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs submitted across all passes.
    pub attempted: u64,
    /// Jobs refused, failed or wrong across all passes.
    pub failed: u64,
    /// Where the spans were written, if they were.
    pub spans_file: Option<String>,
}

/// The traced run of `kind`: a served pass through the `Session`, the
/// workload's own path replayed untraced, traced and untraced again,
/// the other path replayed traced as a control, and the shard split.
#[must_use]
pub fn run(kind: Kind, seed: u64) -> Traced {
    let compile_ms = {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(compile_step());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times).unwrap_or(0.0)
    };
    let (window, other_window) = windows(kind);

    // Served pass: the same requests through the public Session.
    let (server, w, warm) = set_up(kind, seed);
    let t0 = Instant::now();
    let (served, submit) = drive(
        &server.session(),
        &w,
        Stream::Main,
        Until::Requests(window),
        true,
    );
    let served_s = t0.elapsed().as_secs_f64();
    let _ = server.shutdown();
    let served_bad = served.rejected
        + served.failed
        + warm.rejected
        + warm.failed
        + wrong_outputs(&w, Stream::Main, &served.outputs)
        + wrong_outputs(&w, Stream::Warmup, &warm.outputs);

    let (own, other) = if w.backend() == BackendKind::Simulate {
        (Path::Sim, Path::Native)
    } else {
        (Path::Native, Path::Sim)
    };
    // Untraced replays on both sides of the traced one, so a steady
    // drift in host speed cancels out of the overhead ratio.
    let plain = replay(&w, own, window, false);
    let traced = replay(&w, own, window, true);
    let plain2 = replay(&w, own, window, false);
    let plain_s = (plain.wall_s + plain2.wall_s) / 2.0;
    let control = replay(&w, other, other_window, true);
    let (sim, nat) = match own {
        Path::Sim => (&traced, &control),
        Path::Native => (&control, &traced),
    };
    let split = split_pass(&w, sim);
    // Every pass builds its own farm, so the whole run's faults and
    // system time scale with what the ext-memory stores cost.
    let proc = ProcSample::now();

    let us = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / 1e3;
    let own_t = traced.tracer.layer_times();
    let sim_t = sim.tracer.layer_times();
    let nat_t = nat.tracer.layer_times();
    let per_req = |v: u64| v as f64 / sim.rec.requests.max(1) as f64;
    let totals = sim.rec.rollup.totals();
    let engines = ClusterConfig::default().num_ntx as f64;
    let step_us = sim_t.get("farm.step").map_or(0.0, |t| t.mean_self_us());
    let (stage_us, sim_us, read_us) = (
        us(split.stage_ns, split.shards),
        us(split.sim_ns, split.shards),
        us(split.readback_ns, split.shards),
    );
    let kernel_ns = nat_t.get("native.kernel").map_or(0, |t| t.self_ns);
    let replays = [&plain, &traced, &plain2, &control];
    let bad = served_bad + split.mismatched + replays.iter().map(|r| r.bad).sum::<u64>();
    let metrics = vec![
        ("shard.sim_us", sim_us, "us"),
        (
            "sim.ns_per_cluster_cycle",
            split.sim_ns as f64 / split.cycles.max(1) as f64,
            "ns",
        ),
        ("sim.cluster_cycles", per_req(totals.cycles), "cycles"),
        (
            "sim.active_cycles",
            per_req(totals.ntx_active_cycles),
            "cycles",
        ),
        (
            "sim.tcdm_stall_cycles",
            per_req(totals.ntx_stall_cycles),
            "cycles",
        ),
        (
            "sim.dma_busy_cycles",
            per_req(totals.dma_busy_cycles),
            "cycles",
        ),
        (
            "sim.tcdm_conflict_ratio",
            totals.tcdm_conflicts as f64 / totals.tcdm_requests.max(1) as f64,
            "ratio",
        ),
        (
            "sim.utilization",
            totals.ntx_active_cycles as f64 / (engines * totals.cycles.max(1) as f64),
            "ratio",
        ),
        ("shard.stage_us", stage_us, "us"),
        ("process.minor_faults", proc.minflt as f64, "count"),
        ("process.sys_s", proc.stime_s, "s"),
        ("tiler.plan_us", us(split.plan_ns, split.jobs), "us"),
        (
            "tiler.shards_per_job",
            split.shards as f64 / split.jobs.max(1) as f64,
            "count",
        ),
        (
            "backend.admit_us",
            sim_t.get("admit").map_or(0.0, |t| t.mean_self_us()),
            "us",
        ),
        (
            "farm.wait_cycles_p50",
            median(&sim.waits).unwrap_or(0.0),
            "cycles",
        ),
        (
            "farm.occupancy",
            sim.busy_cycles as f64
                / (sim.rec.rollup.makespan_cycles().max(1) as f64 * w.clusters() as f64),
            "ratio",
        ),
        ("farm.shards", per_req(sim.shards), "count"),
        ("farm.step_us", step_us, "us"),
        ("farm.merge_us", step_us - stage_us - sim_us - read_us, "us"),
        ("shard.readback_us", read_us, "us"),
        ("session.submit_us", us(submit.ns, submit.calls), "us"),
        (
            "job.validate_us",
            own_t.get("validate").map_or(0.0, |t| t.mean_self_us()),
            "us",
        ),
        ("job.failed", bad as f64, "count"),
        (
            "server.residual_ms",
            (served_s - plain_s) * 1e3 / window as f64,
            "ms",
        ),
        (
            "cpu.exact_ns_per_mac",
            kernel_ns as f64 / nat.macs.max(1) as f64,
            "ns",
        ),
        (
            "cpu.busy_ms",
            kernel_ns as f64 / 1e6 / nat.rec.requests.max(1) as f64,
            "ms",
        ),
        ("dnn.compile_ms", compile_ms, "ms"),
        (
            "trace.overhead_share",
            traced.wall_s / plain_s - 1.0,
            "ratio",
        ),
    ];
    let attempted =
        warm.submitted + served.submitted + replays.iter().map(|r| r.rec.submitted).sum::<u64>();
    let spans_file = write_spans(&w, seed, &[("own", &traced), ("control", &control)]);
    Traced {
        metrics,
        attempted,
        failed: bad,
        spans_file,
    }
}

/// Writes the traced replays' spans under the benchmark's `spans/`
/// directory; `None` (with a warning) when that fails.
fn write_spans(w: &Workload, seed: u64, replays: &[(&str, &Replayed)]) -> Option<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
    let path = format!("{dir}/{}-seed{seed}.json", w.kind.name());
    let mut body = String::from("{\n");
    for (i, (name, r)) in replays.iter().enumerate() {
        body.push_str(&format!("\"{name}\": {}", r.tracer.to_json()));
        body.push_str(if i + 1 == replays.len() { "\n" } else { ",\n" });
    }
    body.push_str("}\n");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: spans not written to {path}: {e}");
            None
        }
    }
}
