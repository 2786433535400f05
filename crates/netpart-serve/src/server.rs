//! The generic overload-control engine: bounded admission, worker pool,
//! and a fingerprinted response cache with single-flight coalescing.
//!
//! The engine is generic over a [`PlanService`] — the netpart facade
//! binds it to `Scenario → plan()`; tests bind it to tiny controllable
//! services. Everything overload-related lives here once, typed and
//! unit-tested, independent of what is being computed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use netpart_model::NetpartError;

use crate::stats::ServerStats;

/// What a [`Server`] serves: how to fingerprint and execute one kind of
/// request. Execution is deterministic — a failed request re-run would
/// fail the same way — so a failure goes back to its caller (and to the
/// callers coalesced onto it) and is not cached.
pub trait PlanService: Send + Sync + 'static {
    /// The request type (moved into the queue).
    type Request: Send + 'static;
    /// The response type (cloned to coalesced duplicate requests and
    /// into the cache).
    type Response: Clone + Send + 'static;

    /// Cache / single-flight key: requests with equal fingerprints must
    /// be interchangeable (same response).
    fn fingerprint(&self, req: &Self::Request) -> u64;

    /// Compute a fresh response.
    fn execute(&self, req: &Self::Request) -> Result<Self::Response, NetpartError>;
}

/// Which path produced a [`Served`] response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Computed by [`PlanService::execute`] for this request.
    Fresh,
    /// The fingerprint's cached response — or, to a duplicate request
    /// that arrived while the response was being computed, the same
    /// response handed over on completion ([`ServerStats::coalesced`]
    /// counts those apart).
    Cache,
}

/// A successful response plus provenance and latency accounting.
#[derive(Debug, Clone)]
pub struct Served<R> {
    /// The response.
    pub plan: R,
    /// Which path produced it.
    pub source: PlanSource,
    /// Wall-clock ms spent in the admission queue.
    pub queue_ms: f64,
    /// Wall-clock ms from submission to completion.
    pub total_ms: f64,
}

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-queue capacity: a submission finding this many requests
    /// already queued is shed with `ServerOverloaded`. `usize::MAX`
    /// disables shedding.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
        }
    }
}

impl ServeConfig {
    /// The trivial configuration: one worker, no shedding — the server
    /// is then byte-transparent to calling the service directly.
    pub fn transparent() -> ServeConfig {
        ServeConfig {
            workers: 1,
            queue_depth: usize::MAX,
        }
    }
}

/// A submitted request's completion handle.
#[derive(Debug)]
pub struct Ticket<R> {
    state: Arc<TicketState<R>>,
}

#[derive(Debug)]
struct TicketState<R> {
    slot: Mutex<Option<Result<Served<R>, NetpartError>>>,
    cv: Condvar,
}

impl<R: Clone> Ticket<R> {
    /// Block until the request terminates — with a response or a typed
    /// error. Every admitted request terminates: shedding happens at
    /// submission, and shutdown drains the queue with `ServerStopped`.
    /// A caller that will not wait past some bound polls
    /// [`try_wait`](Ticket::try_wait) instead and walks away; the
    /// computation still finishes, and its success is cached for the
    /// next caller.
    pub fn wait(&self) -> Result<Served<R>, NetpartError> {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.state.cv.wait(slot).expect("ticket poisoned");
        }
    }

    /// Non-blocking peek: `Some` once the request has terminated.
    pub fn try_wait(&self) -> Option<Result<Served<R>, NetpartError>> {
        self.state
            .slot
            .lock()
            .expect("ticket poisoned")
            .as_ref()
            .cloned()
    }
}

struct Job<S: PlanService> {
    req: S::Request,
    submitted: Instant,
    ticket: Arc<TicketState<S::Response>>,
}

/// A leader's published result that single-flight followers wait on.
struct Flight<R> {
    result: Mutex<Option<Result<R, NetpartError>>>,
    cv: Condvar,
}

impl<R: Clone> Flight<R> {
    fn new() -> Flight<R> {
        Flight {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<R, NetpartError>) {
        let mut slot = self.result.lock().expect("flight poisoned");
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Wait for the leader's result.
    fn wait(&self) -> Result<R, NetpartError> {
        let mut slot = self.result.lock().expect("flight poisoned");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.cv.wait(slot).expect("flight poisoned");
        }
    }
}

/// A response and the path that produced it, before latency stamping.
type Outcome<R> = Result<(R, PlanSource), NetpartError>;

struct Inner<S: PlanService> {
    service: S,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job<S>>>,
    queue_cv: Condvar,
    stopping: AtomicBool,
    cache: Mutex<HashMap<u64, S::Response>>,
    inflight: Mutex<HashMap<u64, Arc<Flight<S::Response>>>>,
    stats: Mutex<ServerStats>,
}

/// A multi-threaded server over a [`PlanService`]: bounded admission
/// with typed shedding and a fingerprinted response cache with
/// single-flight coalescing. The invariant: **every submitted request
/// terminates with a response or a typed error** — shed at the door,
/// drained at shutdown, or completed.
pub struct Server<S: PlanService> {
    inner: Arc<Inner<S>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: PlanService + Default> Server<S> {
    /// Start the worker pool over the service's default instance.
    pub fn start(cfg: ServeConfig) -> Server<S> {
        Server::with_service(S::default(), cfg)
    }
}

impl<S: PlanService> Server<S> {
    /// Start the worker pool over `service`.
    pub fn with_service(service: S, cfg: ServeConfig) -> Server<S> {
        let inner = Arc::new(Inner {
            service,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            cache: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::default()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a request. Fails with [`NetpartError::ServerStopped`] once
    /// [`stop`](Server::stop) has begun, sheds synchronously with
    /// [`NetpartError::ServerOverloaded`] when the admission queue is
    /// full; otherwise returns a [`Ticket`] that is guaranteed to
    /// terminate.
    pub fn submit(&self, req: S::Request) -> Result<Ticket<S::Response>, NetpartError> {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            // Under the queue lock: `stop` sets the flag before it takes
            // this lock to drain, so a job pushed here is either drained
            // or refused — never left behind after the workers are gone.
            if self.inner.stopping.load(Ordering::Acquire) {
                return Err(NetpartError::ServerStopped);
            }
            if q.len() >= self.inner.cfg.queue_depth {
                let depth = q.len();
                drop(q);
                let mut st = self.inner.stats.lock().expect("stats poisoned");
                st.shed += 1;
                return Err(NetpartError::ServerOverloaded {
                    depth,
                    capacity: self.inner.cfg.queue_depth,
                });
            }
            q.push_back(Job {
                req,
                submitted: Instant::now(),
                ticket: Arc::clone(&state),
            });
            let depth = q.len();
            drop(q);
            let mut st = self.inner.stats.lock().expect("stats poisoned");
            st.admitted += 1;
            if depth > st.queue_high_water {
                st.queue_high_water = depth;
            }
        }
        self.inner.queue_cv.notify_one();
        Ok(Ticket { state })
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.lock().expect("stats poisoned").clone()
    }

    /// Stop accepting work, complete every queued request with
    /// [`NetpartError::ServerStopped`], let in-flight requests finish,
    /// and join the workers. Idempotent.
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        let drained: Vec<Job<S>> = {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            q.drain(..).collect()
        };
        self.inner.queue_cv.notify_all();
        for job in drained {
            self.inner
                .complete(&job, Err(NetpartError::ServerStopped), 0.0);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut w = self.workers.lock().expect("workers poisoned");
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<S: PlanService> Drop for Server<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop<S: PlanService>(inner: Arc<Inner<S>>) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                q = inner.queue_cv.wait(q).expect("queue poisoned");
            }
        };
        inner.process(job);
    }
}

impl<S: PlanService> Inner<S> {
    fn process(&self, job: Job<S>) {
        let queue_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        let outcome = self.serve(&job);
        self.complete(&job, outcome, queue_ms);
    }

    /// One request's way through the cache, single flight and the
    /// service.
    fn serve(&self, job: &Job<S>) -> Outcome<S::Response> {
        let fp = self.service.fingerprint(&job.req);
        // The loop re-enters only when the cache miss has gone stale: a
        // leader for this fingerprint finished between the cache check
        // and the in-flight check.
        let flight = loop {
            let hit = self.cache.lock().expect("cache poisoned").get(&fp).cloned();
            if let Some(value) = hit {
                self.stats.lock().expect("stats poisoned").cache_hits += 1;
                return Ok((value, PlanSource::Cache));
            }

            // Single-flight: first request for a fingerprint leads, the
            // rest follow its published result.
            let mut inf = self.inflight.lock().expect("inflight poisoned");
            match inf.get(&fp) {
                Some(f) => break Some(Arc::clone(f)),
                // A leader caches its success before it releases the
                // flight, so the miss above may be stale by now: a leader
                // that finished in between left no flight but a cache
                // entry.
                None if self.cache.lock().expect("cache poisoned").contains_key(&fp) => {}
                None => {
                    inf.insert(fp, Arc::new(Flight::new()));
                    break None;
                }
            }
        };
        match flight {
            Some(flight) => {
                let value = flight.wait()?;
                self.stats.lock().expect("stats poisoned").coalesced += 1;
                Ok((value, PlanSource::Cache))
            }
            None => self.lead(job, fp),
        }
    }

    /// Compute as the fingerprint's single-flight leader: cache a
    /// success, publish the outcome to followers.
    fn lead(&self, job: &Job<S>, fp: u64) -> Outcome<S::Response> {
        let result = self.service.execute(&job.req);
        if let Ok(v) = &result {
            self.cache
                .lock()
                .expect("cache poisoned")
                .insert(fp, v.clone());
        }
        // Publish to followers and release the flight.
        let flight = self.inflight.lock().expect("inflight poisoned").remove(&fp);
        if let Some(flight) = flight {
            flight.publish(result.clone());
        }
        if result.is_ok() {
            self.stats.lock().expect("stats poisoned").fresh += 1;
        }
        result.map(|v| (v, PlanSource::Fresh))
    }

    /// Count an error outcome (successes were counted where they were
    /// produced), stamp the latencies and wake the ticket.
    fn complete(&self, job: &Job<S>, outcome: Outcome<S::Response>, queue_ms: f64) {
        if let Err(e) = &outcome {
            let mut st = self.stats.lock().expect("stats poisoned");
            match e {
                NetpartError::ServerStopped => st.stopped += 1,
                _ => st.failed += 1,
            }
        }
        let total_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        let outcome = outcome.map(|(plan, source)| Served {
            plan,
            source,
            queue_ms,
            total_ms,
        });
        let mut slot = job.ticket.slot.lock().expect("ticket poisoned");
        *slot = Some(outcome);
        job.ticket.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A controllable service: responds with `req * 10`, counts
    /// executions, fails every execution of a request in its `fail` map,
    /// and can gate executions on a latch so tests control concurrency.
    struct TestService {
        executions: AtomicU64,
        fail: Mutex<HashMap<u64, NetpartError>>,
        gate: Option<Arc<(Mutex<bool>, Condvar)>>,
    }

    impl TestService {
        fn new() -> TestService {
            TestService {
                executions: AtomicU64::new(0),
                fail: Mutex::new(HashMap::new()),
                gate: None,
            }
        }

        fn gated() -> (TestService, Arc<(Mutex<bool>, Condvar)>) {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let mut s = TestService::new();
            s.gate = Some(Arc::clone(&gate));
            (s, gate)
        }

        fn fail_with(&self, req: u64, err: NetpartError) {
            self.fail.lock().expect("fail").insert(req, err);
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().expect("gate") = true;
        cv.notify_all();
    }

    impl PlanService for TestService {
        type Request = u64;
        type Response = u64;

        fn fingerprint(&self, req: &u64) -> u64 {
            *req
        }

        fn execute(&self, req: &u64) -> Result<u64, NetpartError> {
            if let Some(gate) = &self.gate {
                let (lock, cv) = &**gate;
                let mut open = lock.lock().expect("gate");
                while !*open {
                    open = cv.wait(open).expect("gate");
                }
            }
            self.executions.fetch_add(1, Ordering::SeqCst);
            match self.fail.lock().expect("fail").get(req) {
                Some(err) => Err(err.clone()),
                None => Ok(req * 10),
            }
        }
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 8,
        }
    }

    #[test]
    fn serves_and_caches() {
        let server = Server::with_service(TestService::new(), quick_cfg());
        let a = server.submit(7).expect("admitted").wait().expect("served");
        assert_eq!(a.plan, 70);
        assert_eq!(a.source, PlanSource::Fresh);
        let b = server.submit(7).expect("admitted").wait().expect("served");
        assert_eq!(b.plan, 70);
        assert_eq!(b.source, PlanSource::Cache);
        let st = server.stats();
        assert_eq!(st.fresh, 1);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.admitted, 2);
        server.stop();
    }

    #[test]
    fn sheds_beyond_queue_depth_with_typed_error() {
        let (svc, gate) = TestService::gated();
        let server = Server::with_service(
            svc,
            ServeConfig {
                workers: 1,
                queue_depth: 2,
            },
        );
        // Worker blocks on the gate with request 0; then 2 fit in the
        // queue; the 4th submission must shed.
        let t0 = server.submit(100).expect("in flight");
        std::thread::sleep(Duration::from_millis(20)); // let the worker pick it up
        let t1 = server.submit(101).expect("queued 1");
        let t2 = server.submit(102).expect("queued 2");
        match server.submit(103) {
            Err(NetpartError::ServerOverloaded { depth, capacity }) => {
                assert_eq!(depth, 2);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected ServerOverloaded, got {other:?}"),
        }
        open_gate(&gate);
        for t in [t0, t1, t2] {
            t.wait().expect("terminates");
        }
        let st = server.stats();
        assert_eq!(st.shed, 1);
        assert!(st.queue_high_water >= 2);
        server.stop();
    }

    #[test]
    fn duplicate_in_flight_requests_coalesce_to_one_execution() {
        let (svc, gate) = TestService::gated();
        let server = Server::with_service(
            svc,
            ServeConfig {
                workers: 4,
                queue_depth: usize::MAX,
            },
        );
        let tickets: Vec<_> = (0..4)
            .map(|_| server.submit(42).expect("admitted"))
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        open_gate(&gate);
        let mut values = Vec::new();
        for t in tickets {
            values.push(t.wait().expect("served").plan);
        }
        assert_eq!(values, vec![420; 4], "identical results");
        let st = server.stats();
        assert_eq!(
            st.fresh, 1,
            "exactly one execution; the rest coalesced or hit cache: {st:?}"
        );
        assert_eq!(st.fresh + st.coalesced + st.cache_hits, 4);
        server.stop();
    }

    /// A failed execution reaches its leader and every follower coalesced
    /// onto it as the same typed error, and is not cached: the next
    /// submission of the fingerprint executes again.
    #[test]
    fn failure_reaches_every_coalesced_caller_and_is_not_cached() {
        let (svc, gate) = TestService::gated();
        let err = NetpartError::Calibration("broken testbed".into());
        svc.fail_with(42, err.clone());
        let server = Server::with_service(
            svc,
            ServeConfig {
                workers: 4,
                queue_depth: usize::MAX,
            },
        );
        let tickets: Vec<_> = (0..4)
            .map(|_| server.submit(42).expect("admitted"))
            .collect();
        // The leader is held at the gate until its three followers hold
        // its flight (the map's reference plus one each).
        while server
            .inner
            .inflight
            .lock()
            .expect("inflight")
            .get(&42)
            .map_or(0, Arc::strong_count)
            < 4
        {
            std::thread::yield_now();
        }
        open_gate(&gate);
        for t in tickets {
            assert_eq!(t.wait().map(|r| r.plan), Err(err.clone()));
        }
        let executions = || server.inner.service.executions.load(Ordering::SeqCst);
        assert_eq!(executions(), 1, "the followers coalesced onto the leader");
        let st = server.stats();
        assert_eq!(
            (st.failed, st.coalesced, st.cache_hits),
            (4, 0, 0),
            "{st:?}"
        );
        let again = server.submit(42).expect("admitted").wait();
        assert_eq!(again.map(|r| r.plan), Err(err));
        assert_eq!(executions(), 2, "nothing was cached");
        server.stop();
    }

    #[test]
    fn stop_drains_queue_with_typed_error_and_terminates_everything() {
        let (svc, gate) = TestService::gated();
        let server = Server::with_service(
            svc,
            ServeConfig {
                workers: 1,
                queue_depth: usize::MAX,
            },
        );
        let in_flight = server.submit(300).expect("picked up");
        std::thread::sleep(Duration::from_millis(10));
        let queued: Vec<_> = (301..305)
            .map(|r| server.submit(r).expect("queued"))
            .collect();
        open_gate(&gate);
        server.stop();
        // The in-flight request finished normally; the queued ones were
        // drained with the typed shutdown error.
        assert_eq!(in_flight.wait().expect("finished").plan, 3000);
        for t in queued {
            match t.wait() {
                Err(NetpartError::ServerStopped) | Ok(_) => {}
                other => panic!("expected termination, got {other:?}"),
            }
        }
        assert!(matches!(
            server.submit(999),
            Err(NetpartError::ServerStopped)
        ));
    }

    /// Regression: `submit` read the stopping flag before it took the
    /// queue lock, so a job pushed after `stop` had drained the queue and
    /// joined the workers was never completed. The race is narrow; many
    /// short server lifetimes, each with one submitter racing `stop`,
    /// catch it.
    #[test]
    fn submit_racing_stop_never_strands_a_ticket() {
        const CAP: Duration = Duration::from_secs(5);
        for round in 0..1_000 {
            let server = Arc::new(Server::with_service(
                TestService::new(),
                ServeConfig::transparent(),
            ));
            let start = Arc::new(Barrier::new(2));
            let submitter = {
                let server = Arc::clone(&server);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut tickets = Vec::new();
                    for req in 0.. {
                        match server.submit(req) {
                            Ok(t) => tickets.push(t),
                            Err(NetpartError::ServerStopped) => break,
                            Err(e) => panic!("round {round}: {e:?}"),
                        }
                    }
                    tickets
                })
            };
            start.wait();
            server.stop();
            let tickets = submitter.join().expect("submitter");
            let deadline = Instant::now() + CAP;
            for (i, t) in tickets.iter().enumerate() {
                while t.try_wait().is_none() {
                    assert!(
                        Instant::now() < deadline,
                        "round {round}: ticket {i} stranded"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}
