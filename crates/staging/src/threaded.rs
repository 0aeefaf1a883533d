//! Real-thread staging: a server loop over `net::ThreadedNet` and a blocking
//! client, running the same [`ServerLogic`] as the discrete-event server.
//!
//! This is the mode the examples use: several staging server threads, a
//! producer thread, and a consumer thread exchanging real bytes — the
//! protocol logic (including `wfcr`'s logging backend) is identical to the
//! DES path, so races surfaced here are races in the real design.

// detlint: skip-file — real-thread transport: wall-clock timeouts and local
// HashMaps are inherent here; determinism is only required of the DES path.

use crate::dist::Distribution;
use crate::geometry::BBox;
use crate::payload::Payload;
use crate::proto::{
    AppId, CtlAck, CtlMsg, CtlRequest, CtlResponse, GetPiece, GetRequest, GetResponse, PutRequest,
    PutResponse, PutStatus, VarId, Version,
};
use crate::router::Router;
use crate::server::{covers_exactly, plan_get_routed, plan_put_with_routed, HEADER_BYTES};
use crate::service::{ServerLogic, StoreBackend};
use faultplane::RetryPolicy;
use net::threaded::{NetMsg, RecvTimeoutError, ThreadEndpoint};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shutdown message for server threads.
pub struct Shutdown;

/// Stall request for server threads: sleep for the given duration without
/// consuming the queue (the threaded analogue of [`crate::server::Stall`]).
pub struct StallFor(pub Duration);

/// Spawn a staging server thread servicing `endpoint`.
///
/// The thread runs until it receives a [`Shutdown`] message or the mesh is
/// torn down, then returns the final [`ServerLogic`] so tests can inspect
/// the store.
pub fn spawn_server<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    logic: ServerLogic<B>,
) -> JoinHandle<ServerLogic<B>> {
    std::thread::spawn(move || serve_loop(endpoint, logic, obs::Tracer::off(), "server").0)
}

/// Spawn a *traced* staging server thread: same loop as [`spawn_server`],
/// but every serviced operation becomes a span in a thread-local recorder,
/// returned alongside the logic at shutdown.
///
/// Real threads have no shared virtual clock, so each thread stamps its
/// records with a private logical tick counter: per-thread record order is
/// exact, and cross-thread order is whatever [`obs::merge`] derives from the
/// ticks — a pure function of the per-thread traces, so merging the joined
/// parts in any order produces the same bytes. Span-id collisions between
/// threads are prevented by giving thread `index` the id base `index + 1`
/// (see [`obs::Tracer::full_with_base`]).
pub fn spawn_server_traced<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    logic: ServerLogic<B>,
    index: usize,
) -> JoinHandle<(ServerLogic<B>, obs::Trace)> {
    std::thread::spawn(move || {
        let tracer = obs::Tracer::full_with_base(index as u32 + 1);
        serve_loop(endpoint, logic, tracer, &format!("server{index}"))
    })
}

/// The server message loop shared by the traced and untraced spawns. With a
/// disabled tracer every span call is a no-op and the returned trace is
/// empty.
// lint: commit-point(commit=handle_put, ack=send)
fn serve_loop<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    mut logic: ServerLogic<B>,
    tracer: obs::Tracer,
    track_name: &str,
) -> (ServerLogic<B>, obs::Trace) {
    use obs::arg;
    let track = tracer.track(track_name);
    // Logical per-thread clock: tick → (t_ns, seq). Spaced 1 µs apart so
    // span durations are nonzero in timeline views.
    let mut clock = 0u64;
    let mut tick = move || {
        clock += 1;
        (clock * 1000, clock)
    };
    while let Some(msg) = endpoint.recv() {
        if msg.payload.is::<Shutdown>() {
            break;
        }
        if msg.payload.is::<PutRequest>() {
            let req = msg.payload.downcast::<PutRequest>().unwrap();
            let (t, s) = tick();
            let span = tracer.begin(
                req.tctx,
                track,
                "serve.put",
                t,
                s,
                vec![arg("var", req.desc.var), arg("version", req.desc.version)],
            );
            let (resp, _cost) = logic.handle_put(&req);
            let decision = if logic.last_was_dup() {
                "dup"
            } else if resp.status == PutStatus::Absorbed {
                "absorbed"
            } else {
                "stored"
            };
            let op = logic.last_op();
            if op.log_events > 0 {
                let (t, s) = tick();
                tracer.instant(
                    span,
                    track,
                    "log.append",
                    t,
                    s,
                    vec![arg("events", op.log_events), arg("bytes", op.logged_bytes)],
                );
            }
            let (t, s) = tick();
            tracer.end(span, track, t, s, vec![arg("decision", decision)]);
            endpoint.send(msg.from, HEADER_BYTES, resp);
        } else if msg.payload.is::<GetRequest>() {
            let req = msg.payload.downcast::<GetRequest>().unwrap();
            let (t, s) = tick();
            let span = tracer.begin(
                req.tctx,
                track,
                "serve.get",
                t,
                s,
                vec![arg("var", req.var), arg("version", req.version)],
            );
            if !logic.get_ready(&req) {
                // DataSpaces `get` blocks until the requested version is
                // available; the DES server parks such requests. Over
                // real threads the server instead answers "not yet"
                // (empty, nothing logged) and the client retries, so a
                // racing reader can never observe a torn or stale
                // version — and failed polls never pollute the replay
                // log.
                let resp = GetResponse {
                    var: req.var,
                    version: req.version,
                    seq: req.seq,
                    pieces: Vec::new(),
                };
                let (t, s) = tick();
                tracer.end(span, track, t, s, vec![arg("decision", "notready")]);
                endpoint.send(msg.from, HEADER_BYTES, resp);
            } else {
                let (resp, _cost) = logic.handle_get(&req);
                let decision = if logic.last_was_dup() {
                    "dup"
                } else if logic.last_op().replayed {
                    "replayed"
                } else {
                    "served"
                };
                let (t, s) = tick();
                tracer.end(span, track, t, s, vec![arg("decision", decision)]);
                let size = HEADER_BYTES
                    + resp.pieces.iter().map(|p| p.payload.accounted_len()).sum::<u64>();
                endpoint.send(msg.from, size, resp);
            }
        } else if msg.payload.is::<CtlMsg>() {
            let req = msg.payload.downcast::<CtlMsg>().unwrap();
            let (t, s) = tick();
            let span = tracer.begin(req.tctx, track, "serve.ctl", t, s, Vec::new());
            let (ack, _cost) = logic.handle_ctl_msg(*req);
            let (t, s) = tick();
            tracer.end(span, track, t, s, Vec::new());
            endpoint.send(msg.from, HEADER_BYTES, ack);
        } else if msg.payload.is::<CtlRequest>() {
            let req = msg.payload.downcast::<CtlRequest>().unwrap();
            let (resp, _cost) = logic.handle_ctl(*req);
            endpoint.send(msg.from, HEADER_BYTES, resp);
        } else if msg.payload.is::<StallFor>() {
            let stall = msg.payload.downcast::<StallFor>().unwrap();
            let (t, s) = tick();
            tracer.instant(obs::TraceCtx::NONE, track, "stall", t, s, Vec::new());
            std::thread::sleep(stall.0);
        }
        // Unknown messages are dropped, as in the DES server.
    }
    let trace = tracer.finish();
    (logic, trace)
}

/// Errors from the blocking client.
#[derive(Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The mesh was torn down mid-operation.
    Disconnected,
    /// A get returned pieces that do not tile the requested region.
    IncompleteCoverage,
    /// A get returned pieces from more than one version: the requested
    /// version was only partially written, and lagging servers filled in
    /// with older data. The client's own [`RetryPolicy`] does not loop on
    /// this — it is not a transport fault but a data race the caller
    /// resolves by re-reading once the producer finishes the write.
    TornRead,
    /// The bounded [`RetryPolicy`] gave up before every server acked: the
    /// backoff deadline or attempt budget ran out with responses still
    /// outstanding. Replaces the old open-ended "retry until the write
    /// completes" contract with a typed, diagnosable failure.
    RetryExhausted {
        /// Which operation gave up ("put", "get", or "control").
        op: &'static str,
        /// Retry attempts performed.
        attempts: u32,
        /// Acks still missing when the policy gave up.
        outstanding: usize,
    },
}

/// Receive until `deadline` or until `on_msg` reports completion. Returns
/// `Ok(true)` when complete, `Ok(false)` on window expiry.
fn drain_window(
    endpoint: &ThreadEndpoint,
    deadline: Instant,
    mut on_msg: impl FnMut(NetMsg) -> bool,
) -> Result<bool, ClientError> {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Ok(false);
        }
        match endpoint.recv_timeout(deadline - now) {
            Ok(msg) => {
                if on_msg(msg) {
                    return Ok(true);
                }
            }
            Err(RecvTimeoutError::Timeout) => return Ok(false),
            Err(RecvTimeoutError::Disconnected) => return Err(ClientError::Disconnected),
        }
    }
}

/// A blocking DataSpaces-style client for one application component.
///
/// Mirrors the paper's user interface: [`SyncClient::put`] ≙
/// `dspaces_put_with_log`, [`SyncClient::get`] ≙ `dspaces_get_with_log`
/// (when the servers run the logging backend), [`SyncClient::checkpoint`] ≙
/// `workflow_check`, and [`SyncClient::recover`] ≙ `workflow_restart`'s
/// notification half.
///
/// Every operation runs under a bounded [`RetryPolicy`]: requests that are
/// not acknowledged within the current backoff window are re-sent (safe —
/// servers dedup on `(app, seq)` and replay the recorded response), and when
/// the attempt budget or deadline runs out the operation fails with
/// [`ClientError::RetryExhausted`] instead of blocking forever.
pub struct SyncClient {
    endpoint: ThreadEndpoint,
    router: Router,
    /// Endpoint index of each staging server in the mesh.
    server_eps: Vec<usize>,
    app: AppId,
    seq: u64,
    retry: RetryPolicy,
}

impl SyncClient {
    /// Create a client routed by `dist`'s built-in range partition.
    /// `server_eps[i]` must be the mesh endpoint of staging server `i` in
    /// `dist`'s numbering.
    pub fn new(
        endpoint: ThreadEndpoint,
        dist: Distribution,
        server_eps: Vec<usize>,
        app: AppId,
    ) -> Self {
        Self::new_routed(endpoint, Router::unsharded(dist), server_eps, app)
    }

    /// Create a client routed through an explicit (possibly sharded)
    /// [`Router`]. `server_eps[i]` must be the mesh endpoint of shard `i`.
    pub fn new_routed(
        endpoint: ThreadEndpoint,
        router: Router,
        server_eps: Vec<usize>,
        app: AppId,
    ) -> Self {
        assert_eq!(server_eps.len(), router.nservers(), "one endpoint per server");
        let retry = RetryPolicy::default().with_seed(app as u64);
        SyncClient { endpoint, router, server_eps, app, seq: 0, retry }
    }

    /// Replace the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in use.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    fn next_seq(&mut self, n: usize) -> u64 {
        let s = self.seq;
        self.seq += n as u64;
        s
    }

    /// Write `bbox` of `(var, version)`, generating per-block payloads with
    /// `fill`. Blocks are scattered to their owning servers; the call returns
    /// when every server acked. Returns the per-block statuses (seq order).
    pub fn put(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
        fill: impl FnMut(&BBox) -> Payload,
    ) -> Result<Vec<PutStatus>, ClientError> {
        let seq0 = self.seq;
        let reqs = plan_put_with_routed(&self.router, self.app, var, version, bbox, seq0, fill);
        self.next_seq(reqs.len());
        let mut outstanding: HashMap<u64, (usize, PutRequest)> =
            reqs.into_iter().map(|(server, req)| (req.seq, (server, req))).collect();
        let send_all = |ep: &ThreadEndpoint,
                        server_eps: &[usize],
                        pending: &HashMap<u64, (usize, PutRequest)>|
         -> Result<(), ClientError> {
            for (server, req) in pending.values() {
                let size = HEADER_BYTES + req.payload.accounted_len();
                if !ep.send(server_eps[*server], size, req.clone()) {
                    return Err(ClientError::Disconnected);
                }
            }
            Ok(())
        };
        send_all(&self.endpoint, &self.server_eps, &outstanding)?;
        let mut statuses: Vec<(u64, PutStatus)> = Vec::with_capacity(outstanding.len());
        let mut attempts = 0u32;
        let mut backoff_spent = 0u64;
        while !outstanding.is_empty() {
            let window = self.retry.backoff(attempts + 1);
            let done = drain_window(&self.endpoint, Instant::now() + window, |msg| {
                if msg.payload.is::<PutResponse>() {
                    let r = msg.payload.downcast::<PutResponse>().unwrap();
                    // Remove-once dedups transport-duplicated acks.
                    if outstanding.remove(&r.seq).is_some() {
                        statuses.push((r.seq, r.status));
                    }
                }
                outstanding.is_empty()
            })?;
            if done {
                break;
            }
            attempts += 1;
            backoff_spent += window.as_nanos() as u64;
            if !self.retry.allows(attempts, backoff_spent) {
                return Err(ClientError::RetryExhausted {
                    op: "put",
                    attempts,
                    outstanding: outstanding.len(),
                });
            }
            send_all(&self.endpoint, &self.server_eps, &outstanding)?;
        }
        statuses.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(statuses.into_iter().map(|(_, s)| s).collect())
    }

    /// Read `bbox` of `(var, version)`; returns the pieces (tiling `bbox`).
    pub fn get(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
    ) -> Result<Vec<GetPiece>, ClientError> {
        let seq0 = self.seq;
        let reqs = plan_get_routed(&self.router, self.app, var, version, bbox, seq0);
        self.next_seq(reqs.len());
        let mut outstanding: HashMap<u64, (usize, GetRequest)> =
            reqs.into_iter().map(|(server, req)| (req.seq, (server, req))).collect();
        let send_all = |ep: &ThreadEndpoint,
                        server_eps: &[usize],
                        pending: &HashMap<u64, (usize, GetRequest)>|
         -> Result<(), ClientError> {
            for (server, req) in pending.values() {
                if !ep.send(server_eps[*server], HEADER_BYTES, req.clone()) {
                    return Err(ClientError::Disconnected);
                }
            }
            Ok(())
        };
        send_all(&self.endpoint, &self.server_eps, &outstanding)?;
        let mut pieces = Vec::new();
        let mut attempts = 0u32;
        let mut backoff_spent = 0u64;
        while !outstanding.is_empty() {
            let window = self.retry.backoff(attempts + 1);
            let done = drain_window(&self.endpoint, Instant::now() + window, |msg| {
                if msg.payload.is::<GetResponse>() {
                    let r = msg.payload.downcast::<GetResponse>().unwrap();
                    if outstanding.remove(&r.seq).is_some() {
                        pieces.extend(r.pieces);
                    }
                }
                outstanding.is_empty()
            })?;
            if done {
                break;
            }
            attempts += 1;
            backoff_spent += window.as_nanos() as u64;
            if !self.retry.allows(attempts, backoff_spent) {
                return Err(ClientError::RetryExhausted {
                    op: "get",
                    attempts,
                    outstanding: outstanding.len(),
                });
            }
            send_all(&self.endpoint, &self.server_eps, &outstanding)?;
        }
        if !covers_exactly(bbox, &pieces) {
            return Err(ClientError::IncompleteCoverage);
        }
        // Servers may individually fall back to an older version while a put
        // of the requested version is still in flight; a mix of versions
        // tiles the region but is not a consistent snapshot.
        if pieces.windows(2).any(|w| w[0].version != w[1].version) {
            return Err(ClientError::TornRead);
        }
        Ok(pieces)
    }

    /// Notify every server that this component checkpointed through
    /// `upto_version` (the paper's `workflow_check()`).
    pub fn checkpoint(&mut self, upto_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::Checkpoint { app: self.app, upto_version })
    }

    /// Notify every server that this component rolled back to
    /// `resume_version` and will replay (the paper's `workflow_restart()`).
    pub fn recover(&mut self, resume_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::Recovery { app: self.app, resume_version })
    }

    /// Coordinated rollback: every server discards staged data and log
    /// events newer than `to_version` (the Co protocol's global reset).
    /// Non-idempotent — a redelivered duplicate applied after re-execution
    /// resumed would discard fresh data, which is exactly what the server's
    /// `(app, seq)` dedup cache prevents.
    pub fn global_reset(&mut self, to_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::GlobalReset { to_version })
    }

    fn control(&mut self, req: CtlRequest) -> Result<Vec<CtlResponse>, ClientError> {
        // One sequence number for the whole round: each server dedups the
        // envelope independently in its own (app, seq) namespace.
        let seq = self.next_seq(1);
        let msg = CtlMsg { app: self.app, seq, req, tctx: obs::TraceCtx::NONE };
        let mut outstanding: HashMap<usize, ()> =
            self.server_eps.iter().map(|&ep| (ep, ())).collect();
        let send_all =
            |ep: &ThreadEndpoint, pending: &HashMap<usize, ()>| -> Result<(), ClientError> {
                for &server_ep in pending.keys() {
                    if !ep.send(server_ep, HEADER_BYTES, msg) {
                        return Err(ClientError::Disconnected);
                    }
                }
                Ok(())
            };
        send_all(&self.endpoint, &outstanding)?;
        let mut resps = Vec::with_capacity(self.server_eps.len());
        let mut attempts = 0u32;
        let mut backoff_spent = 0u64;
        while !outstanding.is_empty() {
            let window = self.retry.backoff(attempts + 1);
            let done = drain_window(&self.endpoint, Instant::now() + window, |m| {
                if m.payload.is::<CtlAck>() {
                    let ack = m.payload.downcast::<CtlAck>().unwrap();
                    if ack.seq == seq && outstanding.remove(&m.from).is_some() {
                        resps.push(ack.resp);
                    }
                }
                outstanding.is_empty()
            })?;
            if done {
                break;
            }
            attempts += 1;
            backoff_spent += window.as_nanos() as u64;
            if !self.retry.allows(attempts, backoff_spent) {
                return Err(ClientError::RetryExhausted {
                    op: "control",
                    attempts,
                    outstanding: outstanding.len(),
                });
            }
            send_all(&self.endpoint, &outstanding)?;
        }
        Ok(resps)
    }

    /// The application id this client acts as.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The distribution in use.
    pub fn dist(&self) -> &Distribution {
        self.router.dist()
    }

    /// The router in use.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Per-server endpoints (for sending [`Shutdown`] at teardown).
    pub fn server_eps(&self) -> &[usize] {
        &self.server_eps
    }

    /// Send [`Shutdown`] to every server.
    pub fn shutdown_servers(&self) {
        for &ep in &self.server_eps {
            let _ = self.endpoint.send_reliable(ep, HEADER_BYTES, Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlainBackend, ServerCosts};
    use net::threaded::ThreadedNet;

    fn setup(
        nservers: usize,
        napps: usize,
        dims: [u64; 3],
        block: [u64; 3],
    ) -> (Vec<JoinHandle<ServerLogic<PlainBackend>>>, Vec<SyncClient>) {
        let dist = Distribution::new(BBox::whole(dims), block, nservers);
        let mut eps = ThreadedNet::mesh(nservers + napps);
        // Endpoints 0..nservers are servers; the rest are clients.
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                spawn_server(ep, ServerLogic::new(PlainBackend::new(8), ServerCosts::default()))
            })
            .collect();
        let clients = client_eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| SyncClient::new(ep, dist.clone(), (0..nservers).collect(), i as AppId))
            .collect();
        (handles, clients)
    }

    fn block_fill(var: VarId, version: Version) -> impl FnMut(&BBox) -> Payload {
        move |b: &BBox| {
            let mut data = Vec::with_capacity(b.volume() as usize);
            for i in 0..b.volume() {
                data.push((var as u64 + version as u64 * 31 + b.lb[0] + i) as u8);
            }
            Payload::inline(data)
        }
    }

    #[test]
    fn put_get_round_trip_across_threads() {
        let (handles, mut clients) = setup(3, 2, [32, 32, 32], [16, 16, 16]);
        let bbox = BBox::whole([32, 32, 32]);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();

        let statuses = producer.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        assert_eq!(statuses.len(), 8);
        assert!(statuses.iter().all(|s| *s == PutStatus::Stored));

        let pieces = consumer.get(0, 1, &bbox).unwrap();
        assert!(covers_exactly(&bbox, &pieces));
        let total: u64 = pieces.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, bbox.volume());

        consumer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            assert!(logic.puts_served() + logic.gets_served() > 0);
        }
    }

    #[test]
    fn get_missing_region_reports_incomplete() {
        let (handles, mut clients) = setup(2, 1, [16, 16, 16], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let bbox = BBox::whole([16, 16, 16]);
        // Nothing was put; coverage check must fail.
        assert!(matches!(c.get(0, 1, &bbox), Err(ClientError::IncompleteCoverage)));
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_producers_disjoint_regions() {
        let (handles, mut clients) = setup(2, 2, [32, 32, 32], [8, 8, 8]);
        let mut c2 = clients.pop().unwrap();
        let mut c1 = clients.pop().unwrap();
        let left = BBox::d3([0, 0, 0], [15, 31, 31]);
        let right = BBox::d3([16, 0, 0], [31, 31, 31]);
        let t1 = std::thread::spawn(move || {
            c1.put(0, 1, &left, block_fill(0, 1)).unwrap();
            c1
        });
        let t2 = std::thread::spawn(move || {
            c2.put(0, 1, &right, block_fill(0, 1)).unwrap();
            c2
        });
        let mut c1 = t1.join().unwrap();
        let _c2 = t2.join().unwrap();
        let whole = BBox::whole([32, 32, 32]);
        let pieces = c1.get(0, 1, &whole).unwrap();
        assert!(covers_exactly(&whole, &pieces));
        c1.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn control_round_trip() {
        let (handles, mut clients) = setup(2, 1, [8, 8, 8], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let resps = c.checkpoint(4).unwrap();
        assert_eq!(resps.len(), 2);
        for r in resps {
            assert_eq!(r.req, CtlRequest::Checkpoint { app: 0, upto_version: 4 });
        }
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Like [`setup`] but the mesh injects faults from `plan` and the clients
    /// use `retry`.
    fn setup_faulty(
        nservers: usize,
        napps: usize,
        dims: [u64; 3],
        block: [u64; 3],
        plan: faultplane::FaultPlan,
        retry: RetryPolicy,
    ) -> (Vec<JoinHandle<ServerLogic<PlainBackend>>>, Vec<SyncClient>) {
        let dist = Distribution::new(BBox::whole(dims), block, nservers);
        let mut eps = ThreadedNet::mesh_with_faults(nservers + napps, plan);
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                spawn_server(ep, ServerLogic::new(PlainBackend::new(8), ServerCosts::default()))
            })
            .collect();
        let clients = client_eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                SyncClient::new(ep, dist.clone(), (0..nservers).collect(), i as AppId)
                    .with_retry(retry)
            })
            .collect();
        (handles, clients)
    }

    fn lossy_plan(seed: u64) -> faultplane::FaultPlan {
        faultplane::FaultPlan {
            seed,
            rates: faultplane::FaultRates {
                drop: 0.10,
                duplicate: 0.15,
                reorder: 0.10,
                delay: 0.10,
                max_extra_delay_ns: 200_000,
                ..Default::default()
            },
            windows: Vec::new(),
        }
    }

    fn patient_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 0,
            base_ns: 1_000_000,
            cap_ns: 8_000_000,
            deadline_ns: 30_000_000_000,
            seed: 42,
        }
    }

    #[test]
    fn put_get_survive_drop_dup_reorder_faults() {
        let (handles, mut clients) =
            setup_faulty(3, 2, [32, 32, 32], [16, 16, 16], lossy_plan(7), patient_retry());
        let bbox = BBox::whole([32, 32, 32]);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();

        let statuses = producer.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        assert_eq!(statuses.len(), 8);
        assert!(statuses.iter().all(|s| *s == PutStatus::Stored));

        // Retry until the get is both complete and untorn (servers may still
        // be absorbing duplicated puts).
        let pieces = loop {
            match consumer.get(0, 1, &bbox) {
                Ok(p) => break p,
                Err(ClientError::IncompleteCoverage) | Err(ClientError::TornRead) => {
                    std::thread::yield_now()
                }
                Err(e) => panic!("get failed under faults: {e:?}"),
            }
        };
        assert!(covers_exactly(&bbox, &pieces));
        let total: u64 = pieces.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, bbox.volume());

        consumer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            // Exactly-once application: the store never saw more distinct
            // blocks than were planned, even though the wire duplicated.
            assert!(logic.puts_served() + logic.gets_served() > 0);
        }
    }

    #[test]
    fn control_survives_duplication_faults() {
        let plan = faultplane::FaultPlan {
            seed: 11,
            rates: faultplane::FaultRates {
                duplicate: 0.5,
                max_extra_delay_ns: 100_000,
                ..Default::default()
            },
            windows: Vec::new(),
        };
        let (handles, mut clients) =
            setup_faulty(2, 1, [8, 8, 8], [8, 8, 8], plan, patient_retry());
        let mut c = clients.pop().unwrap();
        for round in 0..8u32 {
            let resps = c.checkpoint(round).unwrap();
            // Per-endpoint dedup: exactly one response per server per round,
            // no matter how many duplicates the wire delivered.
            assert_eq!(resps.len(), 2, "round {round}");
        }
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn traced_servers_record_serves_and_merge_deterministically() {
        let nservers = 3;
        let dist = Distribution::new(BBox::whole([32, 32, 32]), [16, 16, 16], nservers);
        let mut eps = ThreadedNet::mesh(nservers + 1);
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                spawn_server_traced(
                    ep,
                    ServerLogic::new(PlainBackend::new(8), ServerCosts::default()),
                    i,
                )
            })
            .collect();
        let mut c = SyncClient::new(
            client_eps.into_iter().next().unwrap(),
            dist,
            (0..nservers).collect(),
            0,
        );
        let bbox = BBox::whole([32, 32, 32]);
        c.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        let pieces = c.get(0, 1, &bbox).unwrap();
        assert!(covers_exactly(&bbox, &pieces));
        c.shutdown_servers();
        let mut parts = Vec::new();
        for h in handles {
            let (_logic, trace) = h.join().unwrap();
            parts.push(trace);
        }
        // Every server recorded its serves as spans.
        let serves: usize = parts
            .iter()
            .flat_map(|p| p.records.iter())
            .filter(|r| r.name == "serve.put" || r.name == "serve.get")
            .count();
        assert_eq!(serves, 16, "8 put + 8 get spans across the mesh");
        // Merging is a pure function of the parts: any join order, same bytes.
        let forward = obs::merge(parts.clone());
        let mut rev = parts;
        rev.reverse();
        let backward = obs::merge(rev);
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
        obs::analyze::validate(&forward).expect("merged trace validates");
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let blackhole = faultplane::FaultPlan {
            seed: 3,
            rates: faultplane::FaultRates { drop: 1.0, ..Default::default() },
            windows: Vec::new(),
        };
        let strict = RetryPolicy {
            max_attempts: 2,
            base_ns: 500_000,
            cap_ns: 1_000_000,
            deadline_ns: 0,
            seed: 0,
        };
        let (handles, mut clients) = setup_faulty(1, 1, [8, 8, 8], [8, 8, 8], blackhole, strict);
        let mut c = clients.pop().unwrap();
        let err = c.put(0, 1, &BBox::whole([8, 8, 8]), block_fill(0, 1)).unwrap_err();
        match err {
            ClientError::RetryExhausted { op, attempts, outstanding } => {
                assert_eq!(op, "put");
                assert_eq!(attempts, 2);
                assert_eq!(outstanding, 1);
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
        // Shutdown bypasses faults, so the servers still exit cleanly.
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }
}
