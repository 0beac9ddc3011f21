//! The end-to-end run: the workload's closed loop through the public
//! `Session` API of a running `Server`, with tracing off.

use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use ntx_sched::{JobResult, SchedError, Server, ServerConfig, Session};

use crate::client::{wrong_outputs, Client, Record, Until};
use crate::procfs::ProcSample;
use crate::stats::{median, percentile, tail_percentile, Rollup};
use crate::workload::{compile_step, Kind, Stream, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The served configuration: ideal memory, the workload's farm width,
/// one pool worker and one native thread whatever the environment
/// says.
#[must_use]
pub fn server_config(w: &Workload) -> ServerConfig {
    ServerConfig::with_clusters(w.clusters()).with_worker_threads(1)
}

/// A completion as the callback hands it to the caller's thread.
struct Done {
    req: u64,
    op: usize,
    at: Instant,
    result: Result<JobResult, SchedError>,
}

/// Host time spent inside `submit_callback` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitTime {
    /// Calls timed.
    pub calls: u64,
    /// Total time, ns.
    pub ns: u64,
}

/// Runs one closed loop of `stream` through `session` until `until`;
/// with `time_submits` also times every submission call.
pub fn drive(
    session: &Session,
    w: &Workload,
    stream: Stream,
    until: Until,
    time_submits: bool,
) -> (Record, SubmitTime) {
    let (tx, rx) = channel::<Done>();
    let mut client = Client::new(w, stream, until);
    let mut submit_time = SubmitTime::default();
    loop {
        while let Some((req, ops)) = client.next_request() {
            submit(
                session,
                w,
                &tx,
                &mut client,
                req,
                ops,
                time_submits.then_some(&mut submit_time),
            );
        }
        if !client.busy() {
            break;
        }
        // A wedged or crashed server must fail the run, not hang it.
        let d = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the server delivers every accepted job within a minute");
        client.complete(d.req, d.op, Some(d.at), d.result.as_ref());
    }
    (client.rec, submit_time)
}

/// Submits every op of request `req`, chained by `after_id` edges.
fn submit(
    session: &Session,
    w: &Workload,
    tx: &Sender<Done>,
    client: &mut Client<'_>,
    req: u64,
    ops: Vec<crate::workload::Op>,
    mut timing: Option<&mut SubmitTime>,
) {
    let mut ids: Vec<u64> = Vec::with_capacity(ops.len());
    client.sent(req, Instant::now());
    for (i, op) in ops.into_iter().enumerate() {
        let mut job = session.job(op.label).kind(op.kind).backend(w.backend());
        for d in op.deps {
            job = job.after_id(ids[d]);
        }
        let tx = tx.clone();
        let t = timing.is_some().then(Instant::now);
        let sent = job.submit_callback(move |c| {
            // The caller may have given up on the request already.
            let _ = tx.send(Done {
                req,
                op: i,
                at: Instant::now(),
                result: c.result,
            });
        });
        if let (Some(t), Some(st)) = (t, timing.as_deref_mut()) {
            st.ns += t.elapsed().as_nanos() as u64;
            st.calls += 1;
        }
        match sent {
            Ok(id) => ids.push(id),
            Err(_) => {
                client.refused(req);
                return;
            }
        }
    }
}

/// Starts a server for `w` and warms it up; returns it with the
/// warm-up record.
pub fn set_up(kind: Kind, seed: u64) -> (Server, Workload, Record) {
    let step = (kind != Kind::ServeMix).then(compile_step);
    let w = Workload::new(kind, seed, step);
    let server = Server::start(server_config(&w));
    let until = Until::Warm {
        clusters: w.backend() == ntx_sched::BackendKind::Simulate,
    };
    let (warm, _) = drive(&server.session(), &w, Stream::Warmup, until, false);
    (server, w, warm)
}

/// Result of one end-to-end run.
#[derive(Debug)]
pub struct E2e {
    /// The workload measured.
    pub workload: Workload,
    /// Every set-up's duration, s.
    pub setups_s: Vec<f64>,
    /// The measured closed loop.
    pub rec: Record,
    /// Jobs of the warm-ups.
    pub warm_jobs: u64,
    /// Warm-up failures, refusals and wrong outputs.
    pub warm_errors: u64,
    /// Wrong outputs of the measured phase.
    pub wrong: u64,
    /// Process counters when set-up ended.
    pub at_setup: ProcSample,
    /// Process counters when the run ended.
    pub at_end: ProcSample,
}

/// Sets up [`SETUPS`] times, then runs the closed loop for `seconds`.
#[must_use]
pub fn run(kind: Kind, seed: u64, seconds: u64) -> E2e {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut warm_jobs = 0;
    let mut warm_errors = 0;
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (server, w, warm) = set_up(kind, seed);
        setups_s.push(t0.elapsed().as_secs_f64());
        warm_jobs += warm.submitted;
        warm_errors +=
            warm.rejected + warm.failed + wrong_outputs(&w, Stream::Warmup, &warm.outputs);
        if i + 1 < SETUPS {
            let _ = server.shutdown();
        } else {
            kept = Some((server, w));
        }
    }
    let (server, w) = kept.expect("at least one set-up");
    let at_setup = ProcSample::now();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (rec, _) = drive(
        &server.session(),
        &w,
        Stream::Main,
        Until::Deadline(deadline),
        false,
    );
    let _ = server.shutdown();
    let at_end = ProcSample::now();
    let wrong = wrong_outputs(&w, Stream::Main, &rec.outputs);
    E2e {
        workload: w,
        setups_s,
        rec,
        warm_jobs,
        warm_errors,
        wrong,
        at_setup,
        at_end,
    }
}

impl E2e {
    /// Jobs that were refused, failed or wrong, over all submitted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        let bad = self.rec.rejected + self.rec.failed + self.wrong + self.warm_errors;
        bad as f64 / (self.rec.submitted + self.warm_jobs).max(1) as f64
    }

    /// Completed jobs per wall-clock second of the measured phase.
    #[must_use]
    pub fn jobs_per_s(&self) -> f64 {
        self.rec.jobs as f64 / self.rec.elapsed_s()
    }

    /// The end-to-end metrics of `BENCHMARK.json`, in its order.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut lat = self.rec.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        vec![
            ("setup_s", median(&self.setups_s).unwrap_or(0.0), "s"),
            ("jobs_per_s", self.jobs_per_s(), "jobs/s"),
            (
                "latency_p50_ms",
                percentile(&lat, 50.0).unwrap_or(0.0),
                "ms",
            ),
            ("peak_rss_mb", self.at_end.peak_rss_mb(), "MB"),
        ]
    }

    /// Human-readable lines: every metric by name, with its unit and
    /// sample count.
    #[must_use]
    pub fn report(&self) -> Vec<String> {
        let w = &self.workload;
        let noun = w.request_noun();
        let mut lat = self.rec.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        let mut out = vec![
            format!(
                "setup_s             {:.4} s        median of {} set-ups {:?}",
                median(&self.setups_s).unwrap_or(0.0),
                self.setups_s.len(),
                self.setups_s
            ),
            format!(
                "jobs_per_s          {:.2} jobs/s    {} jobs in {:.3} s",
                self.jobs_per_s(),
                self.rec.jobs,
                self.rec.elapsed_s()
            ),
        ];
        let p50 = percentile(&lat, 50.0).unwrap_or(0.0);
        if w.kind == Kind::ServeMix {
            out.push(format!("latency_p50_ms      {p50:.4} ms       n={n} jobs"));
            out.push(match tail_percentile(&lat, 99.0) {
                Some((v, beyond)) => {
                    format!("latency_p99_ms      {v:.4} ms       n={n} jobs, {beyond} beyond")
                }
                None => format!(
                    "latency_p99_ms      not reported: fewer than 10 of n={n} jobs beyond it"
                ),
            });
        } else {
            out.push(format!(
                "step_p50_ms         {p50:.4} ms       n={n} steps (latency_p50_ms)"
            ));
        }
        out.push(format!(
            "peak_rss_mb         {:.3} MB       VmHWM",
            self.at_end.peak_rss_mb()
        ));
        if w.backend() == ntx_sched::BackendKind::Simulate {
            let (span, gfw) = if w.kind == Kind::ServeMix {
                let r = &self.rec.rollup;
                let what = format!("over the measured phase, n={} jobs", r.jobs);
                (
                    format!("{} cycles   {what}", r.makespan_cycles()),
                    format!("{:.3} Gflop/s/W {what}", r.gflops_per_w()),
                )
            } else {
                let rolls = &self.rec.request_rollups;
                let spans: Vec<f64> = rolls.iter().map(|r| r.makespan_cycles() as f64).collect();
                let gfws: Vec<f64> = rolls.iter().map(Rollup::gflops_per_w).collect();
                let lo = spans.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = spans.iter().copied().fold(0.0, f64::max);
                let n = spans.len();
                (
                    format!(
                        "{} cycles   median per {noun}, n={n} {noun}s, range {lo}..{hi}",
                        median(&spans).unwrap_or(0.0)
                    ),
                    format!(
                        "{:.3} Gflop/s/W median per {noun}, n={n} {noun}s",
                        median(&gfws).unwrap_or(0.0)
                    ),
                )
            };
            out.push(format!(
                "sim_makespan_cycles {span} (model output, unvalidated)"
            ));
            out.push(format!(
                "gflops_per_w        {gfw} (model output, unvalidated)"
            ));
        } else {
            out.push("sim_makespan_cycles n/a: the native backend has no modelled cycles".into());
            out.push("gflops_per_w        n/a: the native backend has no modelled energy".into());
        }
        out.push(format!(
            "error_rate          {} fraction   {} refused + {} failed + {} wrong of {} jobs",
            self.error_rate(),
            self.rec.rejected,
            self.rec.failed,
            self.wrong + self.warm_errors,
            self.rec.submitted + self.warm_jobs
        ));
        let (s, e) = (self.at_setup, self.at_end);
        out.push(format!(
            "process             set-up end: minflt {} utime {:.2} s stime {:.2} s; \
             run end: minflt {} utime {:.2} s stime {:.2} s",
            s.minflt, s.utime_s, s.stime_s, e.minflt, e.utime_s, e.stime_s
        ));
        out
    }
}
