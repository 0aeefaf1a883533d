//! Discrete-event staging server actor and client-side request planning.
//!
//! The server actor models a single staging process: requests arrive through
//! the simulated network (already serialized by the destination NIC), then
//! queue for the server CPU, which services them one at a time at the cost
//! computed by [`crate::service::ServerCosts`]. Responses travel back through
//! the network. This two-stage queue (NIC, then CPU) is what turns concurrent
//! writer load into the response-time inflation measured in Figure 9.

use crate::dist::{Distribution, ServerIdx};
use crate::geometry::{BBox, MAX_DIMS};
use crate::payload::Payload;
use crate::proto::{
    AppId, CtlMsg, CtlRequest, GetPiece, GetRequest, ObjDesc, PutRequest, VarId, Version,
};
use crate::router::Router;
use crate::service::{ServerLogic, StoreBackend};
use net::des::{Delivered, EndpointId, NetworkHandle};
use obs::{arg, TraceCtx};
use sim_core::engine::{Actor, Ctx, Event};
use sim_core::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Approximate wire size of a request/response header.
pub const HEADER_BYTES: u64 = 64;

/// A queued unit of server work.
struct Pending {
    from_ep: EndpointId,
    req: Req,
}

enum Req {
    Put(PutRequest),
    Get(GetRequest),
    /// A control envelope. `raw` marks un-sequenced [`CtlRequest`] ingress
    /// (the fault-exempt director); such requests bypass dedup and are
    /// answered with a bare [`crate::proto::CtlResponse`], while sequenced
    /// envelopes get a [`crate::proto::CtlAck`].
    Ctl {
        msg: CtlMsg,
        raw: bool,
    },
}

/// Completion marker scheduled to self when the current request's service
/// time elapses. Carries the server incarnation so completions from before a
/// failure are ignored.
struct OpDone {
    incarnation: u32,
}

/// Fail-stop failure of this staging server process (runner → server).
///
/// The staging area's resilience layer (replication / erasure coding à la
/// CoREC) reconstructs the lost fragments from survivors; the server is
/// unavailable while the rebuild runs. The rebuild duration is
/// `fixed + bytes_resident × per_byte` — the caller derives `per_byte` from
/// the protection geometry and rebuild bandwidth.
pub struct ServerFail {
    /// Fixed failover/detection cost.
    pub fixed: SimTime,
    /// Rebuild seconds per resident byte.
    pub per_byte_s: f64,
}

/// Timer: rebuild finished, server resumes.
struct RebuildDone {
    incarnation: u32,
}

/// Server → supervisor: this staging server lost its process and entered a
/// resilience rebuild. Sent only when a supervisor is wired.
pub struct ServerDownNotice {
    /// The failed server's index.
    pub server: ServerIdx,
}

/// Server → supervisor: the rebuild completed and the server is serving
/// again. Sent only when a supervisor is wired.
pub struct ServerUpNotice {
    /// The recovered server's index.
    pub server: ServerIdx,
}

/// Transient stall of this staging server (runner → server): the server CPU
/// stops consuming its queue for `dur`. Unlike [`ServerFail`] this is not
/// fail-stop — nothing is lost or rebuilt, requests simply queue and are
/// served when the stall lifts (a GC pause, an OS hiccup, a slow RDMA CQ).
pub struct Stall {
    /// How long the server is unresponsive.
    pub dur: SimTime,
}

/// Timer: stall window elapsed, server resumes.
struct StallOver {
    incarnation: u32,
}

/// The staging server actor.
pub struct StagingServerActor<B> {
    logic: ServerLogic<B>,
    net: NetworkHandle,
    ep: EndpointId,
    /// Queued requests awaiting the CPU.
    queue: VecDeque<Pending>,
    /// Gets whose requested version is not yet available (DataSpaces `get`
    /// blocks), indexed by `(var, version)` so a completed write wakes only
    /// the gets it can actually unblock instead of rescanning every parked
    /// request. BTreeMap (not HashMap) at the outer level too: rescans
    /// requeue parked gets in map order, and that order must not depend on
    /// hasher state for runs to replay identically.
    waiting: BTreeMap<VarId, BTreeMap<Version, Vec<Pending>>>,
    /// Request currently in service, if any.
    in_service: Option<Pending>,
    /// Metric name for this server's resident bytes gauge.
    mem_metric: String,
    /// Server index (for naming).
    index: ServerIdx,
    /// Response computed at dequeue time, sent when the service timer fires.
    stash_put: Option<crate::proto::PutResponse>,
    stash_get: Option<crate::proto::GetResponse>,
    stash_ctl: Option<crate::proto::CtlResponse>,
    stash_ctl_ack: Option<crate::proto::CtlAck>,
    /// Is the server currently down for a resilience rebuild? Requests queue
    /// and are served when the rebuild completes.
    down: bool,
    /// Is the server inside an injected stall window? Requests queue, no
    /// state is lost.
    stalled: bool,
    /// End of the longest stall window injected so far. Overlapping stalls
    /// extend the window; a StallOver timer from a shorter, earlier window
    /// must not resume the server while a longer one is still open.
    stall_until: SimTime,
    /// Guards stale rebuild timers across overlapping failures.
    incarnation: u32,
    /// Rebuilds survived.
    rebuilds: u32,
    /// Stall windows survived.
    stalls: u32,
    /// Puts served to completion (shard-balance accounting).
    puts_served: u64,
    /// Gets served to completion (shard-balance accounting).
    gets_served: u64,
    /// Synthetic sequence source for raw (un-sequenced) control ingress.
    raw_ctl_seq: u64,
    /// Observability (inert when the tracer is off).
    tracer: obs::Tracer,
    track: obs::TrackId,
    /// Span of the request currently in service.
    op_span: TraceCtx,
    /// Span of an in-progress resilience rebuild.
    rebuild_span: TraceCtx,
    /// Span of an in-progress stall window.
    stall_span: TraceCtx,
    /// Journal bytes flushed as of the last traced operation; diffed against
    /// the backend's monotone counter to emit `journal.flush` instants.
    seen_flushed: u64,
    /// Journal segments compacted as of the last traced operation.
    seen_compacted: u64,
    /// Supervisor to notify on fail-stop / rebuild-complete (runner wiring;
    /// `None` outside supervised runs).
    supervisor: Option<sim_core::engine::ActorId>,
}

impl<B: StoreBackend> StagingServerActor<B> {
    /// Create a server actor. `ep` must be this actor's registered network
    /// endpoint.
    pub fn new(
        index: ServerIdx,
        logic: ServerLogic<B>,
        net: NetworkHandle,
        ep: EndpointId,
    ) -> Self {
        StagingServerActor {
            logic,
            net,
            ep,
            queue: VecDeque::new(),
            waiting: BTreeMap::new(),
            in_service: None,
            mem_metric: format!("staging.server{index}.bytes"),
            index,
            stash_put: None,
            stash_get: None,
            stash_ctl: None,
            stash_ctl_ack: None,
            down: false,
            stalled: false,
            stall_until: SimTime::ZERO,
            incarnation: 0,
            rebuilds: 0,
            stalls: 0,
            puts_served: 0,
            gets_served: 0,
            raw_ctl_seq: 0,
            tracer: obs::Tracer::off(),
            track: obs::TrackId(0),
            op_span: TraceCtx::NONE,
            rebuild_span: TraceCtx::NONE,
            stall_span: TraceCtx::NONE,
            seen_flushed: 0,
            seen_compacted: 0,
            supervisor: None,
        }
    }

    /// Runner wiring: notify `supervisor` when this server fails and when
    /// its rebuild completes (supervised runs only).
    pub fn set_supervisor(&mut self, supervisor: sim_core::engine::ActorId) {
        self.supervisor = Some(supervisor);
    }

    /// Runner wiring: attach a tracer. The server records onto its own
    /// track (`server<index>`); serve spans nest under the trace context
    /// carried by each request.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.track = tracer.track(&format!("server{}", self.index));
        self.tracer = tracer;
    }

    /// Rebuilds this server has survived.
    pub fn rebuilds(&self) -> u32 {
        self.rebuilds
    }

    /// Injected stall windows this server has survived.
    pub fn stalls(&self) -> u32 {
        self.stalls
    }

    /// Puts this shard has served to completion (including deduplicated
    /// retries) — the per-shard balance number reported by run summaries.
    pub fn puts_served(&self) -> u64 {
        self.puts_served
    }

    /// Gets this shard has served to completion.
    pub fn gets_served(&self) -> u64 {
        self.gets_served
    }

    /// Runner wiring: set the network handle and this server's endpoint
    /// after actor registration (ids are only known then).
    pub fn wire(&mut self, net: NetworkHandle, ep: EndpointId) {
        self.net = net;
        self.ep = ep;
    }

    /// The wrapped logic, for post-run inspection.
    pub fn logic(&self) -> &ServerLogic<B> {
        &self.logic
    }

    /// Mutable access to the wrapped logic.
    pub fn logic_mut(&mut self) -> &mut ServerLogic<B> {
        &mut self.logic
    }

    /// This server's index.
    pub fn index(&self) -> ServerIdx {
        self.index
    }

    /// Drop queued and parked requests from `app` (or from everyone, with
    /// `None`) — the server-side half of a connection teardown.
    fn purge_requests_from(&mut self, app: Option<AppId>) {
        let stale = |req: &Req| {
            let owner = match req {
                Req::Put(r) => r.app,
                Req::Get(r) => r.app,
                Req::Ctl { .. } => return false, // control traffic is never stale
            };
            app.map(|a| a == owner).unwrap_or(true)
        };
        self.queue.retain(|p| !stale(&p.req));
        self.waiting.retain(|_, by_version| {
            by_version.retain(|_, pendings| {
                pendings.retain(|p| !stale(&p.req));
                !pendings.is_empty()
            });
            !by_version.is_empty()
        });
    }

    /// Park a blocked get under its `(var, version)` wake key.
    fn park_get(&mut self, var: VarId, version: Version, p: Pending) {
        self.waiting.entry(var).or_default().entry(version).or_default().push(p);
    }

    /// Requeue `p` if its get is now ready, else park it again.
    fn requeue_or_repark(&mut self, var: VarId, version: Version, p: Pending) {
        let ready = match &p.req {
            Req::Get(r) => self.logic.get_ready(r),
            _ => true,
        };
        if ready {
            self.queue.push_back(p);
        } else {
            self.park_get(var, version, p);
        }
    }

    /// Wake the parked gets a completed write of `(var, upto)` can unblock:
    /// exactly those keyed at version `<= upto` (their version just landed,
    /// or a newer one now exists). Parked gets for other variables or newer
    /// versions are untouched.
    fn wake_upto(&mut self, var: VarId, upto: Version) {
        let Some(by_version) = self.waiting.get_mut(&var) else { return };
        let woken = match upto.checked_add(1) {
            Some(split) => {
                let newer = by_version.split_off(&split);
                std::mem::replace(by_version, newer)
            }
            None => std::mem::take(by_version),
        };
        if by_version.is_empty() {
            self.waiting.remove(&var);
        }
        for (version, pendings) in woken {
            for p in pendings {
                self.requeue_or_repark(var, version, p);
            }
        }
    }

    /// Re-check every parked get (control transitions such as entering
    /// replay mode can unblock gets of any variable or version).
    fn rescan_waiting(&mut self) {
        if self.waiting.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.waiting);
        for (var, by_version) in parked {
            for (version, pendings) in by_version {
                for p in pendings {
                    self.requeue_or_repark(var, version, p);
                }
            }
        }
    }

    /// Sample the queue-shaped gauges: parked blocking gets awaiting a
    /// version, and live (not yet GC'd) events in the backend's log. The
    /// CPU-queue depth gauge is set at enqueue time; these close out the
    /// remaining uninstrumented hot paths for the windowed telemetry series.
    fn sample_depth_gauges(&self, ctx: &mut Ctx<'_>) {
        let parked: usize =
            self.waiting.values().map(|bv| bv.values().map(Vec::len).sum::<usize>()).sum();
        ctx.metrics().gauge_set(&format!("staging.server{}.get_waits", self.index), parked as i64);
        ctx.metrics().gauge_set(
            &format!("staging.server{}.log_events", self.index),
            self.logic.backend().live_log_events() as i64,
        );
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_service.is_some() || self.down || self.stalled {
            return;
        }
        let (p, cost) = loop {
            let Some(p) = self.queue.pop_front() else { return };
            // The state transition happens at dequeue time; the service delay
            // models the CPU cost of that transition, after which the stashed
            // response is sent.
            match &p.req {
                Req::Put(r) => {
                    let (resp, cost) = self.logic.handle_put(r);
                    self.stash_put = Some(resp);
                    break (p, cost);
                }
                Req::Get(r) => {
                    if !self.logic.get_ready(r) {
                        // Blocking get: park it under its wake key and try
                        // the next request.
                        let (var, version) = (r.var, r.version);
                        self.park_get(var, version, p);
                        continue;
                    }
                    let (resp, cost) = self.logic.handle_get(r);
                    self.stash_get = Some(resp);
                    break (p, cost);
                }
                Req::Ctl { msg, raw } => {
                    let (msg, raw) = (*msg, *raw);
                    // A re-delivered envelope (client retry or transport
                    // duplication) must not repeat side effects: requests the
                    // app issued after the original was applied stay intact.
                    let duplicate = !raw && self.logic.ctl_seen(msg.app, msg.seq);
                    if !duplicate {
                        // A recovery notification means the component's old
                        // connection died with it: requests it sent before
                        // the failure (queued or parked) are torn down,
                        // exactly as broken RDMA connections drop in-flight
                        // requests. A global reset invalidates everyone's
                        // in-flight requests.
                        match msg.req {
                            CtlRequest::Recovery { app, .. } => {
                                self.purge_requests_from(Some(app));
                            }
                            CtlRequest::GlobalReset { .. } => {
                                self.purge_requests_from(None);
                            }
                            CtlRequest::Checkpoint { .. } => {}
                        }
                    }
                    let cost = if raw {
                        let (resp, cost) = self.logic.handle_ctl(msg.req);
                        self.stash_ctl = Some(resp);
                        cost
                    } else {
                        let (ack, cost) = self.logic.handle_ctl_msg(msg);
                        self.stash_ctl_ack = Some(ack);
                        cost
                    };
                    break (p, cost);
                }
            }
        };
        if self.tracer.enabled() {
            self.open_op_span(ctx, &p);
        }
        self.in_service = Some(p);
        let incarnation = self.incarnation;
        ctx.timer(cost, OpDone { incarnation });
        ctx.metrics().gauge_set(&self.mem_metric, self.logic.bytes_resident() as i64);
        self.sample_depth_gauges(ctx);
    }

    /// Open the serve span for the request just dequeued (its state
    /// transition has already been applied by [`ServerLogic`]), nested under
    /// the trace context the client stamped on the wire. Backend side
    /// effects — log appends, GC frees, replay serves — become instants
    /// under the span.
    fn open_op_span(&mut self, ctx: &Ctx<'_>, p: &Pending) {
        let op = self.logic.last_op();
        let dup = self.logic.last_was_dup();
        let (parent, name, args) = match &p.req {
            Req::Put(r) => {
                let decision = if dup {
                    "dup"
                } else if self.stash_put.as_ref().map(|s| s.status)
                    == Some(crate::proto::PutStatus::Absorbed)
                {
                    "absorbed"
                } else {
                    "stored"
                };
                let args = vec![
                    arg("shard", self.index),
                    arg("var", r.desc.var),
                    arg("version", r.desc.version),
                    arg("decision", decision),
                ];
                (r.tctx, "serve.put", args)
            }
            Req::Get(r) => {
                let decision = if dup {
                    "dup"
                } else if op.replayed {
                    "replayed"
                } else {
                    "served"
                };
                let args = vec![
                    arg("shard", self.index),
                    arg("var", r.var),
                    arg("version", r.version),
                    arg("decision", decision),
                ];
                (r.tctx, "serve.get", args)
            }
            Req::Ctl { msg, .. } => {
                let kind = match msg.req {
                    CtlRequest::Checkpoint { .. } => "checkpoint",
                    CtlRequest::Recovery { .. } => "recovery",
                    CtlRequest::GlobalReset { .. } => "global_reset",
                };
                let mut args = vec![arg("shard", self.index), arg("kind", kind)];
                if dup {
                    args.push(arg("decision", "dup"));
                }
                (msg.tctx, "serve.ctl", args)
            }
        };
        let (t, s) = (ctx.now().as_nanos(), ctx.seq());
        self.op_span = self.tracer.begin(parent, self.track, name, t, s, args);
        if op.log_events > 0 {
            self.tracer.instant(
                self.op_span,
                self.track,
                "log.append",
                t,
                s,
                vec![arg("events", op.log_events), arg("bytes", op.logged_bytes)],
            );
        }
        if op.freed_bytes > 0 {
            self.tracer.instant(
                self.op_span,
                self.track,
                "gc.free",
                t,
                s,
                vec![arg("bytes", op.freed_bytes)],
            );
        }
        // Durable-layer visibility: the journal counters are monotone, so a
        // delta since the last traced op means this op's append crossed a
        // flush threshold (or watermark compaction dropped segments).
        let journal = self.logic.backend().journal_stats();
        let flushed = journal.bytes_flushed;
        if flushed > self.seen_flushed {
            self.tracer.instant(
                self.op_span,
                self.track,
                "journal.flush",
                t,
                s,
                vec![arg("bytes", flushed - self.seen_flushed)],
            );
            self.seen_flushed = flushed;
        }
        let compacted = journal.segments_compacted;
        if compacted > self.seen_compacted {
            self.tracer.instant(
                self.op_span,
                self.track,
                "journal.compact",
                t,
                s,
                vec![arg("segments", compacted - self.seen_compacted)],
            );
            self.seen_compacted = compacted;
        }
    }
}

impl<B: StoreBackend> Actor for StagingServerActor<B> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let ev = match ev.downcast::<Delivered>() {
            Ok((_, d)) => {
                let Delivered { from, payload, .. } = d;
                let req = if payload.is::<PutRequest>() {
                    Req::Put(*payload.downcast::<PutRequest>().unwrap())
                } else if payload.is::<GetRequest>() {
                    Req::Get(*payload.downcast::<GetRequest>().unwrap())
                } else if payload.is::<CtlMsg>() {
                    Req::Ctl { msg: *payload.downcast::<CtlMsg>().unwrap(), raw: false }
                } else if payload.is::<CtlRequest>() {
                    // Un-sequenced control ingress (the director). Wrap it
                    // with a synthetic never-repeating identity so the queue
                    // machinery is uniform; dedup never fires for it.
                    let req = *payload.downcast::<CtlRequest>().unwrap();
                    self.raw_ctl_seq += 1;
                    let msg = CtlMsg {
                        app: AppId::MAX,
                        seq: self.raw_ctl_seq,
                        req,
                        tctx: TraceCtx::NONE,
                    };
                    Req::Ctl { msg, raw: true }
                } else {
                    return; // unknown message: drop
                };
                self.queue.push_back(Pending { from_ep: from, req });
                ctx.metrics().gauge_set(
                    &format!("staging.server{}.qdepth", self.index),
                    self.queue.len() as i64,
                );
                self.start_next(ctx);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ServerFail>() {
            Ok((_, f)) => {
                // Lose the process; the resilience layer rebuilds the lost
                // fragments from surviving replicas/shards. Queued requests —
                // including the op in flight, whose effect already reached
                // the (protected) log — are answered once the rebuild
                // completes.
                self.down = true;
                // A fail-stop supersedes any stall window in progress (the
                // incarnation bump orphans the pending StallOver timer, so
                // the window end must be cleared too — a later stall would
                // otherwise inherit it and never see its own timer).
                self.stalled = false;
                self.stall_until = SimTime::ZERO;
                self.incarnation += 1;
                let rebuild = f.fixed
                    + SimTime::from_secs_f64(self.logic.bytes_resident() as f64 * f.per_byte_s);
                ctx.metrics().inc("staging.server_failures", 1);
                ctx.metrics().observe("staging.rebuild_s", rebuild.as_secs_f64());
                if self.tracer.enabled() {
                    // A fail-stop supersedes an open stall window.
                    let s = std::mem::take(&mut self.stall_span);
                    self.tracer.end(
                        s,
                        self.track,
                        ctx.now().as_nanos(),
                        ctx.seq(),
                        vec![arg("status", "superseded")],
                    );
                    if self.rebuild_span.is_none() {
                        self.rebuild_span = self.tracer.begin(
                            TraceCtx::NONE,
                            self.track,
                            "rebuild",
                            ctx.now().as_nanos(),
                            ctx.seq(),
                            vec![arg("bytes", self.logic.bytes_resident())],
                        );
                    }
                }
                if let Some(sup) = self.supervisor {
                    ctx.send_now(sup, ServerDownNotice { server: self.index });
                }
                let incarnation = self.incarnation;
                ctx.timer(rebuild, RebuildDone { incarnation });
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<Stall>() {
            Ok((_, s)) => {
                // Freeze the server CPU: nothing is lost, requests queue and
                // are served when the window lifts. Overlapping windows
                // merge: the server resumes at the latest end, not when the
                // first (shorter) window's timer fires.
                self.stalled = true;
                self.stall_until = self.stall_until.max(ctx.now() + s.dur);
                ctx.metrics().inc("staging.server_stalls", 1);
                if self.tracer.enabled() && self.stall_span.is_none() {
                    self.stall_span = self.tracer.begin(
                        TraceCtx::NONE,
                        self.track,
                        "stall",
                        ctx.now().as_nanos(),
                        ctx.seq(),
                        Vec::new(),
                    );
                }
                let incarnation = self.incarnation;
                ctx.timer(s.dur, StallOver { incarnation });
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<StallOver>() {
            Ok((_, s)) => {
                if s.incarnation == self.incarnation
                    && self.stalled
                    && ctx.now() >= self.stall_until
                {
                    self.stalled = false;
                    self.stalls += 1;
                    let sp = std::mem::take(&mut self.stall_span);
                    self.tracer.end(sp, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
                    if self.in_service.is_some() {
                        // Deliver the frozen op's (late) response.
                        let incarnation = self.incarnation;
                        ctx.timer(SimTime::ZERO, OpDone { incarnation });
                    } else {
                        self.rescan_waiting();
                        self.start_next(ctx);
                    }
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RebuildDone>() {
            Ok((_, r)) => {
                if r.incarnation == self.incarnation && self.down {
                    self.down = false;
                    self.rebuilds += 1;
                    let sp = std::mem::take(&mut self.rebuild_span);
                    self.tracer.end(sp, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
                    if let Some(sup) = self.supervisor {
                        ctx.send_now(sup, ServerUpNotice { server: self.index });
                    }
                    if self.in_service.is_some() {
                        // Deliver the interrupted op's (late) response.
                        let incarnation = self.incarnation;
                        ctx.timer(SimTime::ZERO, OpDone { incarnation });
                    } else {
                        self.rescan_waiting();
                        self.start_next(ctx);
                    }
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<OpDone>() {
            Ok((_, o)) => {
                if self.down || self.stalled || o.incarnation != self.incarnation {
                    return; // completion from before a failure or mid-stall
                }
                self.finish_op(ctx);
                return;
            }
            Err(ev) => ev,
        };
        let _ = ev;
    }

    fn name(&self) -> &str {
        "staging-server"
    }
}

impl<B: StoreBackend> StagingServerActor<B> {
    fn finish_op(&mut self, ctx: &mut Ctx<'_>) {
        let Some(done) = self.in_service.take() else { return };
        // Completed writes wake only the gets keyed at or below the written
        // version; control transitions (e.g. recovery entering replay mode)
        // can unblock anything and trigger a full rescan. Reads never change
        // data availability.
        let wake_key = match &done.req {
            Req::Put(r) => Some((r.desc.var, r.desc.version)),
            _ => None,
        };
        let full_rescan = matches!(&done.req, Req::Ctl { .. });
        match done.req {
            Req::Put(_) => {
                self.puts_served += 1;
                let resp = self.stash_put.take().expect("stashed put response");
                self.net.send(ctx, self.ep, done.from_ep, HEADER_BYTES, resp);
            }
            Req::Get(_) => {
                self.gets_served += 1;
                let resp = self.stash_get.take().expect("stashed get response");
                let size: u64 = HEADER_BYTES
                    + resp.pieces.iter().map(|p| p.payload.accounted_len()).sum::<u64>();
                self.net.send(ctx, self.ep, done.from_ep, size, resp);
            }
            Req::Ctl { raw: true, .. } => {
                let resp = self.stash_ctl.take().expect("stashed ctl response");
                self.net.send(ctx, self.ep, done.from_ep, HEADER_BYTES, resp);
            }
            Req::Ctl { raw: false, .. } => {
                let ack = self.stash_ctl_ack.take().expect("stashed ctl ack");
                self.net.send(ctx, self.ep, done.from_ep, HEADER_BYTES, ack);
            }
        }
        let s = std::mem::take(&mut self.op_span);
        self.tracer.end(s, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
        ctx.metrics().gauge_set(&self.mem_metric, self.logic.bytes_resident() as i64);
        if let Some((var, version)) = wake_key {
            self.wake_upto(var, version);
        } else if full_rescan {
            self.rescan_waiting();
        }
        self.sample_depth_gauges(ctx);
        self.start_next(ctx);
    }
}

/// Assemble the per-block put requests from an already-routed block list.
fn puts_from_blocks(
    blocks: Vec<([u64; MAX_DIMS], BBox, ServerIdx)>,
    app: AppId,
    var: VarId,
    version: Version,
    seq_start: u64,
    mut fill: impl FnMut(&BBox) -> Payload,
) -> Vec<(ServerIdx, PutRequest)> {
    blocks
        .into_iter()
        .enumerate()
        .map(|(i, (_coord, clipped, server))| {
            (
                server,
                PutRequest {
                    app,
                    desc: ObjDesc { var, version, bbox: clipped },
                    payload: fill(&clipped),
                    seq: seq_start + i as u64,
                    tctx: TraceCtx::NONE,
                },
            )
        })
        .collect()
}

/// Assemble the per-block get requests from an already-routed block list.
fn gets_from_blocks(
    blocks: Vec<([u64; MAX_DIMS], BBox, ServerIdx)>,
    app: AppId,
    var: VarId,
    version: Version,
    seq_start: u64,
) -> Vec<(ServerIdx, GetRequest)> {
    blocks
        .into_iter()
        .enumerate()
        .map(|(i, (_coord, clipped, server))| {
            (
                server,
                GetRequest {
                    app,
                    var,
                    version,
                    bbox: clipped,
                    seq: seq_start + i as u64,
                    tctx: TraceCtx::NONE,
                },
            )
        })
        .collect()
}

/// The virtual-payload fill shared by the dist- and router-planned puts:
/// deterministic digests derived from `(app, var, version, block corner)` —
/// the identity a producer would deterministically regenerate on
/// re-execution, which is what makes digest-based replay checks meaningful.
fn virtual_fill(
    app: AppId,
    var: VarId,
    version: Version,
    bytes_per_point: u64,
) -> impl FnMut(&BBox) -> Payload {
    move |clipped: &BBox| {
        let len = clipped.volume() * bytes_per_point;
        let identity =
            [app as u64, var as u64, version as u64, clipped.lb[0], clipped.lb[1], clipped.lb[2]];
        Payload::virtual_from(len, &identity)
    }
}

/// Plan the per-server requests for a `put` of `bbox` with `bytes_per_point`
/// bytes at each grid point, payloads virtual (see [`plan_put_with`] for
/// caller-provided content).
pub fn plan_put_virtual(
    dist: &Distribution,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    bytes_per_point: u64,
    seq_start: u64,
) -> Vec<(ServerIdx, PutRequest)> {
    puts_from_blocks(
        dist.blocks_overlapping(bbox),
        app,
        var,
        version,
        seq_start,
        virtual_fill(app, var, version, bytes_per_point),
    )
}

/// [`plan_put_virtual`] routed through a shard-aware [`Router`]: each block
/// goes to the shard owning it *for this data version*, so writes after a
/// rebalance land on the new owner while earlier versions stay put.
pub fn plan_put_virtual_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    bytes_per_point: u64,
    seq_start: u64,
) -> Vec<(ServerIdx, PutRequest)> {
    puts_from_blocks(
        router.blocks_overlapping(bbox, version),
        app,
        var,
        version,
        seq_start,
        virtual_fill(app, var, version, bytes_per_point),
    )
}

/// Plan a `put` with caller-provided payload content per block.
pub fn plan_put_with(
    dist: &Distribution,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
    fill: impl FnMut(&BBox) -> Payload,
) -> Vec<(ServerIdx, PutRequest)> {
    puts_from_blocks(dist.blocks_overlapping(bbox), app, var, version, seq_start, fill)
}

/// [`plan_put_with`], routed through a shard-aware [`Router`].
pub fn plan_put_with_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
    fill: impl FnMut(&BBox) -> Payload,
) -> Vec<(ServerIdx, PutRequest)> {
    puts_from_blocks(router.blocks_overlapping(bbox, version), app, var, version, seq_start, fill)
}

/// Plan the per-server requests for a `get` of `bbox`.
pub fn plan_get(
    dist: &Distribution,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
) -> Vec<(ServerIdx, GetRequest)> {
    // One request per server covering the union of that server's clipped
    // blocks would be tighter; per-block requests keep responses block-sized
    // and match how DataSpaces issues queries.
    gets_from_blocks(dist.blocks_overlapping(bbox), app, var, version, seq_start)
}

/// [`plan_get`], routed through a shard-aware [`Router`]: reads of a version
/// written before a rebalance go to the shard that held the block *then*.
pub fn plan_get_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
) -> Vec<(ServerIdx, GetRequest)> {
    gets_from_blocks(router.blocks_overlapping(bbox, version), app, var, version, seq_start)
}

/// Verify that `pieces` exactly tile `bbox` (pairwise disjoint, all inside,
/// volumes summing to the box volume).
pub fn covers_exactly(bbox: &BBox, pieces: &[GetPiece]) -> bool {
    let mut vol = 0u64;
    for (i, p) in pieces.iter().enumerate() {
        if !bbox.contains(&p.bbox) {
            return false;
        }
        vol += p.bbox.volume();
        for q in &pieces[i + 1..] {
            if p.bbox.intersects(&q.bbox) {
                return false;
            }
        }
    }
    vol == bbox.volume()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlainBackend, ServerCosts};
    use net::cost::CostModel;
    use net::des::Network;
    use sim_core::engine::Engine;

    /// Client actor that fires a fixed set of requests at time zero and
    /// records response arrival times.
    struct TestClient {
        net: NetworkHandle,
        ep: EndpointId,
        to_send: Vec<(ServerIdx, EndpointId, PutRequest)>,
        put_acks: Vec<(u64, u64)>, // (seq, arrival ns)
        get_pieces: Vec<GetPiece>,
    }

    struct Kickoff;

    impl Actor for TestClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if ev.is::<Kickoff>() {
                for (_, server_ep, req) in self.to_send.drain(..) {
                    let size = HEADER_BYTES + req.payload.accounted_len();
                    self.net.send(ctx, self.ep, server_ep, size, req);
                }
                return;
            }
            if let Ok((_, d)) = ev.downcast::<Delivered>() {
                if d.payload.is::<crate::proto::PutResponse>() {
                    let r = d.payload.downcast::<crate::proto::PutResponse>().unwrap();
                    self.put_acks.push((r.seq, ctx.now().as_nanos()));
                } else if d.payload.is::<crate::proto::GetResponse>() {
                    let r = d.payload.downcast::<crate::proto::GetResponse>().unwrap();
                    self.get_pieces.extend(r.pieces);
                }
            }
        }
    }

    fn dist_1server() -> Distribution {
        Distribution::new(BBox::whole([64, 64, 64]), [32, 32, 32], 1)
    }

    #[test]
    fn put_round_trip_via_des() {
        let mut eng = Engine::new(3);
        let mut net = Network::new(CostModel::slow_test());

        // Placeholder registration order: client actor id 0, server id 1, net id 2.
        let dist = dist_1server();
        let reqs = plan_put_virtual(&dist, 0, 0, 1, &BBox::whole([64, 64, 64]), 8, 0);
        assert_eq!(reqs.len(), 8); // 2x2x2 blocks

        // Create actors; register endpoints after ids exist.
        let client_stub = TestClient {
            net: NetworkHandle { actor: 0 }, // patched below
            ep: 0,
            to_send: Vec::new(),
            put_acks: Vec::new(),
            get_pieces: Vec::new(),
        };
        let client_id = eng.add_actor(Box::new(client_stub));
        let client_ep = net.register(client_id);

        let server_logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        // Server actor needs the net handle; create after net actor id known.
        let server_id = eng.add_actor(Box::new(StagingServerActor::new(
            0,
            server_logic,
            NetworkHandle { actor: 0 },
            0,
        )));
        let server_ep = net.register(server_id);
        let net_id = eng.add_actor(Box::new(net));
        let handle = NetworkHandle { actor: net_id };

        // Patch handles/endpoints now that ids are known.
        {
            let c = eng.actor_as_mut::<TestClient>(client_id).unwrap();
            c.net = handle;
            c.ep = client_ep;
            c.to_send = reqs.into_iter().map(|(s, r)| (s, server_ep, r)).collect();
        }
        {
            let s = eng.actor_as_mut::<StagingServerActor<PlainBackend>>(server_id).unwrap();
            s.net = handle;
            s.ep = server_ep;
        }

        eng.schedule_now(client_id, Kickoff);
        eng.run();

        let c = eng.actor_as::<TestClient>(client_id).unwrap();
        assert_eq!(c.put_acks.len(), 8, "every block put must be acked");
        // Responses arrive strictly ordered (single server CPU serializes).
        let mut times: Vec<u64> = c.put_acks.iter().map(|&(_, t)| t).collect();
        let sorted = {
            let mut s = times.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(times.len(), 8);
        times.sort_unstable();
        assert_eq!(times, sorted);

        let s = eng.actor_as::<StagingServerActor<PlainBackend>>(server_id).unwrap();
        assert_eq!(s.logic().puts_served(), 8);
        let expected_bytes = 64u64 * 64 * 64 * 8;
        assert_eq!(s.logic().bytes_resident(), expected_bytes);
    }

    #[test]
    fn plan_put_partitions_exactly() {
        let dist = Distribution::new(BBox::whole([100, 100, 100]), [32, 32, 32], 4);
        let bbox = BBox::d3([0, 0, 0], [99, 99, 49]);
        let reqs = plan_put_virtual(&dist, 0, 1, 7, &bbox, 8, 100);
        let vol: u64 = reqs.iter().map(|(_, r)| r.desc.bbox.volume()).sum();
        assert_eq!(vol, bbox.volume());
        let bytes: u64 = reqs.iter().map(|(_, r)| r.payload.len()).sum();
        assert_eq!(bytes, bbox.volume() * 8);
        // Seqs are unique and consecutive from seq_start.
        let mut seqs: Vec<u64> = reqs.iter().map(|(_, r)| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (100..100 + reqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn plan_get_matches_put_servers() {
        let dist = Distribution::new(BBox::whole([64, 64, 64]), [16, 16, 16], 4);
        let bbox = BBox::d3([0, 0, 0], [63, 63, 63]);
        let puts = plan_put_virtual(&dist, 0, 0, 1, &bbox, 1, 0);
        let gets = plan_get(&dist, 1, 0, 1, &bbox, 0);
        assert_eq!(puts.len(), gets.len());
        for ((ps, pr), (gs, gr)) in puts.iter().zip(gets.iter()) {
            assert_eq!(ps, gs);
            assert_eq!(pr.desc.bbox, gr.bbox);
        }
    }

    #[test]
    fn covers_exactly_detects_gaps_and_overlaps() {
        let bbox = BBox::d1(0, 9);
        let piece = |lo, hi| GetPiece {
            bbox: BBox::d1(lo, hi),
            version: 1,
            payload: Payload::virtual_from(1, &[lo]),
        };
        assert!(covers_exactly(&bbox, &[piece(0, 4), piece(5, 9)]));
        assert!(!covers_exactly(&bbox, &[piece(0, 4)])); // gap
        assert!(!covers_exactly(&bbox, &[piece(0, 5), piece(5, 9)])); // overlap
        assert!(!covers_exactly(&BBox::d1(0, 3), &[piece(0, 4)])); // outside
    }

    #[test]
    fn plan_put_with_inline_content() {
        let dist = Distribution::new(BBox::whole([8, 8, 8]), [4, 4, 4], 2);
        let bbox = BBox::whole([8, 8, 8]);
        let reqs =
            plan_put_with(&dist, 0, 0, 1, &bbox, 0, |b| Payload::inline(vec![b.lb[0] as u8; 4]));
        assert_eq!(reqs.len(), 8);
        for (_, r) in &reqs {
            assert_eq!(r.payload.bytes().unwrap()[0] as u64, r.desc.bbox.lb[0]);
        }
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::service::{PlainBackend, ServerCosts, ServerLogic};
    use net::cost::CostModel;
    use net::des::Network;
    use sim_core::engine::Engine;

    /// Sink recording put-ack arrival times.
    #[derive(Default)]
    struct AckSink {
        acks: Vec<u64>,
    }

    impl Actor for AckSink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, d)) = ev.downcast::<Delivered>() {
                if d.payload.is::<crate::proto::PutResponse>() {
                    self.acks.push(ctx.now().as_nanos());
                }
            }
        }
    }

    fn build() -> (Engine, usize, usize, usize, usize) {
        let mut eng = Engine::new(5);
        let sink = eng.add_actor(Box::<AckSink>::default());
        let mut net = Network::new(CostModel::slow_test());
        let client_ep = net.register(sink);
        let logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let server = eng.add_actor(Box::new(StagingServerActor::new(
            0,
            logic,
            NetworkHandle { actor: 0 },
            0,
        )));
        let server_ep = net.register(server);
        let net_id = eng.add_actor(Box::new(net));
        let s = eng.actor_as_mut::<StagingServerActor<PlainBackend>>(server).unwrap();
        s.wire(NetworkHandle { actor: net_id }, server_ep);
        (eng, sink, server, net_id, client_ep)
    }

    fn put_req(version: Version) -> PutRequest {
        PutRequest {
            app: 0,
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(100, &[version as u64]),
            seq: version as u64,
            tctx: obs::TraceCtx::NONE,
        }
    }

    #[test]
    fn requests_during_rebuild_are_served_after() {
        let (mut eng, sink, server, net_id, client_ep) = build();
        // Seed some data, then fail the server, then send a put mid-rebuild.
        eng.schedule_at(
            sim_core::time::SimTime::from_nanos(0),
            net_id,
            net::des::Transmit { from: client_ep, to: 1, size: 164, payload: Box::new(put_req(1)) },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_micros(10),
            server,
            ServerFail { fixed: sim_core::time::SimTime::from_millis(5), per_byte_s: 0.0 },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_micros(20),
            net_id,
            net::des::Transmit { from: client_ep, to: 1, size: 164, payload: Box::new(put_req(2)) },
        );
        eng.run();
        let s = eng.actor_as::<AckSink>(sink).unwrap();
        assert_eq!(s.acks.len(), 2, "both puts eventually acked");
        // The second ack waits out the 5 ms rebuild.
        assert!(s.acks[1] >= 5_000_000, "ack at {} ns", s.acks[1]);
        let srv = eng.actor_as::<StagingServerActor<PlainBackend>>(server).unwrap();
        assert_eq!(srv.rebuilds(), 1);
        assert_eq!(srv.logic().puts_served(), 2);
        assert_eq!(eng.metrics().counter("staging.server_failures"), 1);
    }

    #[test]
    fn in_flight_op_acked_after_rebuild() {
        let (mut eng, sink, server, net_id, client_ep) = build();
        // Put arrives at ~1.3 µs and is in service until ~3.3 µs; fail the
        // server at 2 µs — mid-service. The ack must still arrive, after the
        // rebuild.
        eng.schedule_at(
            sim_core::time::SimTime::ZERO,
            net_id,
            net::des::Transmit { from: client_ep, to: 1, size: 164, payload: Box::new(put_req(1)) },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_micros(2),
            server,
            ServerFail { fixed: sim_core::time::SimTime::from_millis(2), per_byte_s: 0.0 },
        );
        eng.run();
        let s = eng.actor_as::<AckSink>(sink).unwrap();
        assert_eq!(s.acks.len(), 1, "the interrupted op is acked late, not lost");
        assert!(s.acks[0] >= 2_000_000);
    }

    #[test]
    fn requests_during_stall_are_served_after() {
        let (mut eng, sink, server, net_id, client_ep) = build();
        eng.schedule_at(
            sim_core::time::SimTime::ZERO,
            server,
            Stall { dur: sim_core::time::SimTime::from_millis(3) },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_micros(10),
            net_id,
            net::des::Transmit { from: client_ep, to: 1, size: 164, payload: Box::new(put_req(1)) },
        );
        eng.run();
        let s = eng.actor_as::<AckSink>(sink).unwrap();
        assert_eq!(s.acks.len(), 1, "stalled request served, not lost");
        assert!(s.acks[0] >= 3_000_000, "ack at {} ns waited out the stall", s.acks[0]);
        let srv = eng.actor_as::<StagingServerActor<PlainBackend>>(server).unwrap();
        assert_eq!(srv.stalls(), 1);
        assert_eq!(eng.metrics().counter("staging.server_stalls"), 1);
    }

    #[test]
    fn overlapping_stalls_resume_at_the_latest_end() {
        // Regression for an early-resume bug found by schedule exploration:
        // a second, longer stall landing inside the first window used to be
        // cut short when the first window's timer fired.
        let (mut eng, sink, server, net_id, client_ep) = build();
        eng.schedule_at(
            sim_core::time::SimTime::ZERO,
            server,
            Stall { dur: sim_core::time::SimTime::from_millis(3) },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_millis(1),
            server,
            Stall { dur: sim_core::time::SimTime::from_millis(4) },
        );
        eng.schedule_at(
            sim_core::time::SimTime::from_micros(10),
            net_id,
            net::des::Transmit { from: client_ep, to: 1, size: 164, payload: Box::new(put_req(1)) },
        );
        eng.run();
        let s = eng.actor_as::<AckSink>(sink).unwrap();
        assert_eq!(s.acks.len(), 1);
        assert!(
            s.acks[0] >= 5_000_000,
            "ack at {} ns must wait out the merged window (1 ms + 4 ms)",
            s.acks[0]
        );
        let srv = eng.actor_as::<StagingServerActor<PlainBackend>>(server).unwrap();
        assert_eq!(srv.stalls(), 1, "merged windows count as one stall survived");
        assert_eq!(eng.metrics().counter("staging.server_stalls"), 2, "but both injections count");
    }

    #[test]
    fn duplicate_ctl_envelope_answered_from_cache() {
        let (mut eng, _sink, server, net_id, client_ep) = build();
        let msg = CtlMsg {
            app: 0,
            seq: 7,
            req: CtlRequest::Checkpoint { app: 0, upto_version: 3 },
            tctx: obs::TraceCtx::NONE,
        };
        for _ in 0..2 {
            eng.schedule_now(
                net_id,
                net::des::Transmit { from: client_ep, to: 1, size: 64, payload: Box::new(msg) },
            );
        }
        eng.run();
        let srv = eng.actor_as::<StagingServerActor<PlainBackend>>(server).unwrap();
        assert_eq!(srv.logic().dup_hits(), 1, "second envelope served from the ack cache");
    }

    #[test]
    fn rebuild_time_scales_with_resident_bytes() {
        let (mut eng, _sink, server, net_id, client_ep) = build();
        for v in 1..=4u32 {
            eng.schedule_at(
                sim_core::time::SimTime::from_nanos(v as u64),
                net_id,
                net::des::Transmit {
                    from: client_ep,
                    to: 1,
                    size: 164,
                    payload: Box::new(put_req(v)),
                },
            );
        }
        eng.run();
        // 4 versions × 100 B resident (max_versions = 4).
        eng.schedule_now(
            server,
            ServerFail { fixed: sim_core::time::SimTime::ZERO, per_byte_s: 0.001 },
        );
        eng.run();
        let rebuild = eng.metrics().stream("staging.rebuild_s");
        assert_eq!(rebuild.count(), 1);
        assert!((rebuild.mean() - 0.4).abs() < 1e-9, "400 B × 1 ms/B = 0.4 s");
    }
}
