//! The closed-loop caller: which request to send next, what came back,
//! and whether the outputs were right. The served run (through the
//! public `Session`) and the replay (the benchmark playing the server
//! loop) drive the same bookkeeping.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ntx_sched::{BackendKind, JobResult, SchedError};

use crate::stats::Rollup;
use crate::workload::{hash_output, reference, Kind, Op, Stream, Workload};

/// When the caller stops sending new requests (requests in flight
/// always finish).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Once this instant has passed.
    Deadline(Instant),
    /// After this many requests.
    Requests(u64),
    /// Once warm: the workload's minimum warm-up requests are done,
    /// every job class has a measured duration, and (with `clusters`,
    /// for simulated jobs) every cluster has retired a shard.
    Warm {
        /// Also wait for every cluster to retire a shard.
        clusters: bool,
    },
}

/// Everything one closed loop observed.
#[derive(Debug)]
pub struct Record {
    /// Jobs submitted.
    pub submitted: u64,
    /// Submissions the server refused.
    pub rejected: u64,
    /// Jobs that completed with an error.
    pub failed: u64,
    /// Jobs that completed (with or without an error).
    pub jobs: u64,
    /// Requests that completed.
    pub requests: u64,
    /// Per-request latency, ms (served runs only).
    pub latencies_ms: Vec<f64>,
    /// `(request, op, output hash)` of every successful job.
    pub outputs: Vec<(u64, usize, u64)>,
    /// Modelled counters of every simulated job.
    pub rollup: Rollup,
    /// Modelled counters per request (train-step workloads only).
    pub request_rollups: Vec<Rollup>,
    /// First submission of the loop.
    pub first_submit: Option<Instant>,
    /// Last completion of the loop.
    pub last_done: Option<Instant>,
    busy: Vec<bool>,
    classes: BTreeSet<&'static str>,
}

impl Record {
    /// An empty record for a `clusters`-wide farm.
    #[must_use]
    pub fn new(clusters: usize) -> Self {
        Self {
            submitted: 0,
            rejected: 0,
            failed: 0,
            jobs: 0,
            requests: 0,
            latencies_ms: Vec::new(),
            outputs: Vec::new(),
            rollup: Rollup::new(clusters),
            request_rollups: Vec::new(),
            first_submit: None,
            last_done: None,
            busy: vec![false; clusters],
            classes: BTreeSet::new(),
        }
    }

    /// Seconds from the first submission to the last completion.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        match (self.first_submit, self.last_done) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// One request in flight.
#[derive(Debug)]
struct Inflight {
    submitted: Option<Instant>,
    last: Option<Instant>,
    remaining: usize,
    classes: Vec<&'static str>,
    rollup: Option<Rollup>,
}

/// The closed-loop caller of one stream.
#[derive(Debug)]
pub struct Client<'w> {
    w: &'w Workload,
    stream: Stream,
    until: Until,
    next: u64,
    inflight: BTreeMap<u64, Inflight>,
    /// What the loop observed so far.
    pub rec: Record,
}

impl<'w> Client<'w> {
    /// A caller sending `stream` of `w` until `until`.
    #[must_use]
    pub fn new(w: &'w Workload, stream: Stream, until: Until) -> Self {
        Self {
            w,
            stream,
            until,
            next: 0,
            inflight: BTreeMap::new(),
            rec: Record::new(w.clusters()),
        }
    }

    /// The stream this caller sends.
    #[must_use]
    pub fn stream(&self) -> Stream {
        self.stream
    }

    fn stopped(&self) -> bool {
        match self.until {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Requests(n) => self.next >= n,
            Until::Warm { clusters } => {
                self.rec.requests >= self.w.warmup_requests()
                    && self.rec.classes.len() >= self.w.classes()
                    && (!clusters || self.rec.busy.iter().all(|&b| b))
            }
        }
    }

    /// The next request to send, when the loop has room for one and
    /// has not stopped.
    pub fn next_request(&mut self) -> Option<(u64, Vec<Op>)> {
        if self.inflight.len() >= self.w.depth() || self.stopped() {
            return None;
        }
        let req = self.next;
        self.next += 1;
        let ops = self.w.request(self.stream, req);
        self.inflight.insert(
            req,
            Inflight {
                submitted: None,
                last: None,
                remaining: ops.len(),
                classes: ops.iter().map(|op| op.kind.class().name()).collect(),
                rollup: (self.w.depth() == 1).then(|| Rollup::new(self.w.clusters())),
            },
        );
        self.rec.submitted += ops.len() as u64;
        Some((req, ops))
    }

    /// Stamps the moment the request's first job was handed over.
    pub fn sent(&mut self, req: u64, at: Instant) {
        self.rec.first_submit.get_or_insert(at);
        if let Some(st) = self.inflight.get_mut(&req) {
            st.submitted = Some(at);
        }
    }

    /// The server refused a job of `req`: the request is abandoned (its
    /// other jobs may still complete and are ignored).
    pub fn refused(&mut self, req: u64) {
        self.rec.rejected += 1;
        self.inflight.remove(&req);
    }

    /// Folds in the completion of job `op` of request `req`.
    pub fn complete(
        &mut self,
        req: u64,
        op: usize,
        at: Option<Instant>,
        result: Result<&JobResult, &SchedError>,
    ) {
        let Some(st) = self.inflight.get_mut(&req) else {
            return;
        };
        self.rec.jobs += 1;
        st.remaining -= 1;
        if at.is_some() {
            st.last = st.last.max(at);
        }
        match result {
            Ok(r) => {
                self.rec.outputs.push((req, op, hash_output(&r.output)));
                self.rec.classes.insert(st.classes[op]);
                if r.backend == BackendKind::Simulate {
                    self.rec.rollup.add(r);
                    if let Some(roll) = &mut st.rollup {
                        roll.add(r);
                    }
                    for (c, p) in r.report.per_cluster.iter().enumerate() {
                        self.rec.busy[c] |= p.cycles > 0;
                    }
                }
            }
            Err(_) => self.rec.failed += 1,
        }
        if st.remaining == 0 {
            let st = self.inflight.remove(&req).expect("request in flight");
            self.rec.requests += 1;
            if let (Some(a), Some(b)) = (st.submitted, st.last) {
                self.rec
                    .latencies_ms
                    .push(b.duration_since(a).as_secs_f64() * 1e3);
                self.rec.last_done = self.rec.last_done.max(Some(b));
            }
            if let Some(roll) = st.rollup.filter(|r| r.jobs > 0) {
                self.rec.request_rollups.push(roll);
            }
        }
    }

    /// True while requests are in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.inflight.is_empty()
    }
}

/// Recomputes the reference output of every recorded job and counts
/// the ones whose hash differs.
#[must_use]
pub fn wrong_outputs(w: &Workload, stream: Stream, outputs: &[(u64, usize, u64)]) -> u64 {
    let mut sorted = outputs.to_vec();
    sorted.sort_unstable();
    let exact_f64 = w.kind != Kind::ServeMix;
    let mut wrong = 0;
    let mut current: Option<(u64, Vec<Op>)> = None;
    for (req, op, hash) in sorted {
        if current.as_ref().is_none_or(|(r, _)| *r != req) {
            current = Some((req, w.request(stream, req)));
        }
        let ops = &current.as_ref().expect("request generated").1;
        if hash_output(&reference(&ops[op].kind, exact_f64)) != hash {
            wrong += 1;
        }
    }
    wrong
}
