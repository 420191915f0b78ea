//! Deterministic cooperative scheduling for interleaving exploration.
//!
//! [`FaultPlan`](crate::FaultPlan) makes *when operations fail*
//! deterministic; this module makes *in what order operations run*
//! deterministic. A [`Scheduler`] drives N client threads through named
//! yield points one at a time — a "baton" model: exactly one registered
//! client is runnable at any instant, and at every yield point the
//! scheduler picks the next runnable client from a seeded RNG stream.
//! Two runs with the same seed and the same per-client workload execute
//! the identical interleaving, and the recorded [schedule
//! trace](Scheduler::trace_text) is the byte-diffable witness.
//!
//! Two exploration strategies are built in:
//!
//! * [`SchedMode::RandomWalk`] — at each yield point, pick uniformly
//!   among runnable clients (including the current one). Good breadth.
//! * [`SchedMode::Pct`] — probabilistic concurrency testing: clients get
//!   random priorities and the highest-priority runnable client always
//!   runs, except at `depth - 1` pre-sampled priority-change steps where
//!   the running client's priority drops below everyone else's. PCT
//!   provably hits any bug of preemption depth `d` with probability
//!   ≥ 1/(n·k^(d-1)) per run, so a modest seed sweep covers small-depth
//!   races much better than uniform walks.
//!
//! Instrumented code calls the free function [`yield_point`] with a point
//! name. Threads not registered with any scheduler (production, ordinary
//! tests) pay one thread-local probe and return — the same "disabled is
//! nearly free" contract the fault plan and tracer follow.
//!
//! Deadlock discipline: yield points must only be placed where the
//! calling thread holds **no lock another scheduled client could need**
//! (e.g. outside the cache write gate and the txdb commit lock). A parked
//! client then never blocks the running one, so the baton always moves.
//! Nor may a scheduled client wait on another (a condvar wait holds the
//! baton while the thread that would wake it can never run). The one
//! exception is an *opt-in* point ([`OPT_IN`]): it sits inside a lock,
//! and only a scheduler that asks for it ([`Scheduler::park_at`]) stops
//! there — one whose other clients never need that lock. Every other
//! scheduler passes through it without a step.

use std::cell::RefCell;
use std::sync::Arc;

use parking_lot::{Class, Condvar, Mutex};

/// Well-known yield point names. Constants rather than an enum so
/// downstream crates can add points without touching this crate (the
/// same pattern as [`crate::faults::points`]).
pub mod points {
    /// Top of one logical client operation (drivers call this).
    pub const OP_START: &str = "op.start";
    /// Top of a cached-read lookup iteration (catalog read protocol).
    pub const READ_LOOKUP: &str = "read.lookup";
    /// Start of a write-protocol attempt, before the transaction begins.
    pub const WRITE_BEGIN: &str = "write.begin";
    /// After the write closure ran, immediately before the DB commit.
    pub const WRITE_PRECOMMIT: &str = "write.precommit";
    /// After a successful DB commit, before the write-through cache
    /// apply — the window a node crash would leave the cache stale in.
    pub const WRITE_POSTCOMMIT: &str = "write.postcommit";
    /// Transactional commit entry, before any partition lock is taken.
    pub const TXDB_COMMIT: &str = "txdb.commit";
    /// Inside a txdb commit's partition section, validation done: the
    /// committer holds the commit locks of the partitions it touches.
    /// Opt-in (see [`super::OPT_IN`]).
    pub const TXDB_PARTITION: &str = "txdb.partition";
    /// Immediately before the audit log's lane-merge flush drains the
    /// per-thread append lanes into canonical order — the window where a
    /// concurrent writer's record may land in this batch or the next.
    pub const AUDIT_FLUSH: &str = "audit.flush";
    /// Immediately before a metrics snapshot folds the striped
    /// counter/histogram cells — the analogous window for telemetry.
    pub const OBS_FOLD: &str = "obs.fold";
    /// Immediately before an explicit flight-recorder freeze merges the
    /// per-thread event lanes — the window where a concurrent commit's
    /// audit trail may be captured mid-flight.
    pub const FLIGHT_FREEZE: &str = "flight.freeze";
}

/// Yield points a scheduler stops at only if it asked to with
/// [`Scheduler::park_at`]: each is inside a lock another client could
/// need, so a scheduler whose clients share that lock must pass through.
pub const OPT_IN: &[&str] = &[points::TXDB_PARTITION];

/// Interleaving selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Uniform random choice among runnable clients at every yield.
    RandomWalk,
    /// PCT-style priority scheduling with `depth - 1` priority-change
    /// points. `depth` ≥ 1; `Pct { depth: 1 }` is pure priority order.
    Pct { depth: usize },
}

struct State {
    mode: SchedMode,
    rng: u64,
    n: usize,
    registered: usize,
    started: bool,
    /// The client currently holding the baton; `None` before start and
    /// after the last client finishes.
    active: Option<usize>,
    done: Vec<bool>,
    steps: u64,
    trace: Vec<(u64, usize, &'static str, String)>,
    /// PCT: per-client priorities (higher runs first).
    priorities: Vec<i64>,
    /// PCT: steps at which the running client is deprioritized, sorted.
    change_points: Vec<u64>,
    /// PCT: next fresh lowest priority.
    next_low: i64,
    /// Opt-in points this scheduler stops at, always handing the baton on.
    park_at: Vec<&'static str>,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
}

/// A shareable deterministic scheduler for `n` cooperative clients.
/// Cloning shares the scheduler.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

thread_local! {
    /// The scheduler + client id this thread is registered with, if any.
    static CURRENT: RefCell<Option<(Scheduler, usize)>> = const { RefCell::new(None) };
}

/// splitmix64: seed → well-mixed nonzero xorshift state.
fn mix_seed(seed: u64) -> u64 {
    let mut h = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    if h == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// xorshift64* step.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl Scheduler {
    /// A scheduler for `n` clients. `steps_hint` bounds the step range
    /// PCT samples its priority-change points from; pass roughly the
    /// expected total number of yield points in the run.
    pub fn new(seed: u64, n: usize, mode: SchedMode, steps_hint: u64) -> Self {
        let mut rng = mix_seed(seed);
        let priorities: Vec<i64> = (0..n).map(|_| (next_u64(&mut rng) >> 33) as i64 + 1).collect();
        let mut change_points = Vec::new();
        if let SchedMode::Pct { depth } = mode {
            let span = steps_hint.max(1);
            for _ in 1..depth.max(1) {
                change_points.push(next_u64(&mut rng) % span + 1);
            }
            change_points.sort_unstable();
        }
        Scheduler {
            inner: Arc::new(Inner {
                state: Mutex::ranked(Class::CloudstoreSched, State {
                    mode,
                    rng,
                    n,
                    registered: 0,
                    started: false,
                    active: None,
                    done: vec![false; n],
                    steps: 0,
                    trace: Vec::new(),
                    priorities,
                    change_points,
                    next_low: 0,
                    park_at: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Stop at the opt-in point `point` ([`OPT_IN`]), and there always hand
    /// the baton to another client that can run: a preemption at exactly
    /// that point. Only for a run where no other client needs the lock the
    /// point sits in (for `TXDB_PARTITION`: no other client commits in the
    /// parked client's partitions).
    pub fn park_at(self, point: &'static str) -> Self {
        assert!(OPT_IN.contains(&point), "{point} is not an opt-in yield point");
        self.inner.state.lock().park_at.push(point);
        self
    }

    /// Register the calling thread as `client` and park until the
    /// scheduler starts the run and hands this client the baton. Each
    /// client id must be registered by exactly one thread.
    pub fn register_current(&self, client: usize) {
        CURRENT.with(|c| *c.borrow_mut() = Some((self.clone(), client)));
        let mut st = self.inner.state.lock();
        assert!(client < st.n, "client id {client} out of range");
        st.registered += 1;
        self.inner.cv.notify_all();
        while !(st.started && st.active == Some(client)) {
            self.inner.cv.wait(&mut st);
        }
    }

    /// Coordinator entry: wait for all `n` clients to register, start
    /// the run, and block until every client has finished.
    pub fn run_to_completion(&self) {
        let mut st = self.inner.state.lock();
        while st.registered < st.n {
            self.inner.cv.wait(&mut st);
        }
        st.started = true;
        let first = Self::pick_next(&mut st, None, false);
        st.active = Some(first);
        self.inner.cv.notify_all();
        while !st.done.iter().all(|d| *d) {
            self.inner.cv.wait(&mut st);
        }
    }

    /// The recorded interleaving: one `(step, client, point)` line per
    /// scheduling decision. Byte-identical across same-seed runs of the
    /// same workload.
    pub fn trace_text(&self) -> String {
        let st = self.inner.state.lock();
        let mut out = String::new();
        for (step, client, point, detail) in &st.trace {
            out.push_str(&format!("step={step} client={client} point={point}{detail}\n"));
        }
        out
    }

    /// Scheduling decisions taken so far.
    pub fn steps(&self) -> u64 {
        self.inner.state.lock().steps
    }

    /// Choose the next client to run among the not-done ones. `current`
    /// is the yielding client (a candidate to continue unless it `parks`
    /// while another can run), `None` at start.
    fn pick_next(st: &mut State, current: Option<usize>, parks: bool) -> usize {
        let mut runnable: Vec<usize> = (0..st.n).filter(|i| !st.done[*i]).collect();
        if parks && runnable.len() > 1 {
            runnable.retain(|i| Some(*i) != current);
        }
        assert!(!runnable.is_empty(), "pick_next with no runnable clients");
        match st.mode {
            SchedMode::RandomWalk => {
                let idx = (next_u64(&mut st.rng) % runnable.len() as u64) as usize;
                runnable[idx]
            }
            #[expect(clippy::expect_used, reason = "the caller checked runnable is non-empty this iteration")]
            SchedMode::Pct { .. } => {
                // Consume due change points: deprioritize the running
                // client below every other, forcing a preemption.
                while st.change_points.first().is_some_and(|cp| *cp <= st.steps) {
                    st.change_points.remove(0);
                    if let Some(cur) = current {
                        st.next_low -= 1;
                        st.priorities[cur] = st.next_low;
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|i| (st.priorities[**i], usize::MAX - **i))
                    .expect("nonempty runnable set")
            }
        }
    }

    fn yield_at(&self, client: usize, point: &'static str) {
        let mut st = self.inner.state.lock();
        let parks = st.park_at.contains(&point);
        if !parks && OPT_IN.contains(&point) {
            return;
        }
        debug_assert_eq!(st.active, Some(client), "yield from a non-active client");
        st.steps += 1;
        let step = st.steps;
        st.trace.push((step, client, point, String::new()));
        let next = Self::pick_next(&mut st, Some(client), parks);
        if next != client {
            st.active = Some(next);
            self.inner.cv.notify_all();
            while st.active != Some(client) {
                self.inner.cv.wait(&mut st);
            }
        }
    }

    fn finish(&self, client: usize) {
        let mut st = self.inner.state.lock();
        st.done[client] = true;
        st.steps += 1;
        let step = st.steps;
        st.trace.push((step, client, "client.done", String::new()));
        if st.done.iter().all(|d| *d) {
            st.active = None;
        } else {
            let next = Self::pick_next(&mut st, None, false);
            st.active = Some(next);
        }
        self.inner.cv.notify_all();
    }
}

/// Cooperative yield from instrumented code. If the calling thread is
/// registered with a scheduler, this may park it and run other clients;
/// otherwise it is a no-op (one thread-local probe).
pub fn yield_point(point: &'static str) {
    if let Some(class) = parking_lot::held() {
        assert!(OPT_IN.contains(&point), "yield point `{point}` reached holding a `{class}` guard");
    }
    let reg = CURRENT.with(|c| c.borrow().clone());
    if let Some((sched, client)) = reg {
        sched.yield_at(client, point);
    }
}

/// Mark the calling thread's client as finished and hand the baton on.
/// Unregisters the thread; a no-op for unregistered threads. Drivers
/// must call this even when the client's workload panicked (wrap the
/// workload in `catch_unwind`), or the run never terminates.
pub fn finish_current() {
    let reg = CURRENT.with(|c| c.borrow_mut().take());
    if let Some((sched, client)) = reg {
        sched.finish(client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run `n` clients that each append their id at every of `k` yields;
    /// return (order log, schedule trace).
    fn run_clients(seed: u64, n: usize, k: usize, mode: SchedMode) -> (Vec<usize>, String) {
        let sched = Scheduler::new(seed, n, mode, (n * k) as u64 + 8);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..n {
            let sched = sched.clone();
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                sched.register_current(i);
                for _ in 0..k {
                    log.lock().push(i);
                    yield_point("test.step");
                }
                finish_current();
            }));
        }
        sched.run_to_completion();
        for h in handles {
            h.join().unwrap();
        }
        let order = log.lock().clone();
        (order, sched.trace_text())
    }

    #[test]
    fn same_seed_same_interleaving() {
        let (o1, t1) = run_clients(7, 3, 20, SchedMode::RandomWalk);
        let (o2, t2) = run_clients(7, 3, 20, SchedMode::RandomWalk);
        assert_eq!(o1, o2);
        assert_eq!(t1, t2, "schedule trace must be byte-identical");
    }

    #[test]
    fn different_seeds_differ() {
        let (o1, _) = run_clients(1, 3, 20, SchedMode::RandomWalk);
        let (o2, _) = run_clients(2, 3, 20, SchedMode::RandomWalk);
        assert_ne!(o1, o2, "60 scheduling decisions should not coincide");
    }

    #[test]
    fn all_client_steps_complete() {
        let (order, _) = run_clients(42, 4, 10, SchedMode::RandomWalk);
        assert_eq!(order.len(), 40);
        for i in 0..4 {
            assert_eq!(order.iter().filter(|c| **c == i).count(), 10);
        }
    }

    #[test]
    fn pct_is_deterministic_and_preempts() {
        let (o1, t1) = run_clients(11, 3, 15, SchedMode::Pct { depth: 3 });
        let (o2, t2) = run_clients(11, 3, 15, SchedMode::Pct { depth: 3 });
        assert_eq!(o1, o2);
        assert_eq!(t1, t2);
        // Priority scheduling runs one client in long bursts; with depth 3
        // there are at most a handful of switches, far fewer than random.
        let switches = o1.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 2 * 3 + 3, "PCT should switch rarely, got {switches}");
    }

    #[test]
    fn unregistered_threads_pass_through() {
        // No scheduler anywhere: yield_point and finish_current are no-ops.
        yield_point("free.run");
        finish_current();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                yield_point("free.run");
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_opt_in_point_is_a_step_only_where_a_scheduler_parks_at_it() {
        let run = |sched: Scheduler| {
            let other = sched.clone();
            let h = std::thread::spawn(move || {
                other.register_current(1);
                yield_point("test.step");
                finish_current();
            });
            let me = sched.clone();
            let h0 = std::thread::spawn(move || {
                me.register_current(0);
                yield_point(points::TXDB_PARTITION);
                finish_current();
            });
            sched.run_to_completion();
            h.join().unwrap();
            h0.join().unwrap();
            sched.trace_text()
        };
        for seed in 0..8 {
            let passed = run(Scheduler::new(seed, 2, SchedMode::RandomWalk, 8));
            assert!(!passed.contains("txdb.partition"), "seed {seed}: {passed}");
            let parked = run(Scheduler::new(seed, 2, SchedMode::Pct { depth: 1 }, 8).park_at(points::TXDB_PARTITION));
            // Where client 0 parks while client 1 can run, client 1 runs next.
            let lines: Vec<_> = parked.lines().collect();
            let at = lines.iter().position(|l| l.ends_with("client=0 point=txdb.partition")).unwrap();
            let one_done = lines[..at].iter().any(|l| l.ends_with("client=1 point=client.done"));
            assert!(one_done || lines[at + 1].contains("client=1"), "seed {seed}: {parked}");
        }
    }

    #[test]
    fn trace_records_points_and_completion() {
        let (_, trace) = run_clients(3, 2, 2, SchedMode::RandomWalk);
        assert_eq!(trace.matches("point=test.step").count(), 4);
        assert_eq!(trace.matches("point=client.done").count(), 2);
        assert!(trace.starts_with("step=1 "));
    }

    #[test]
    #[should_panic(expected = "yield point `test.step` reached holding a `catalog.gate` guard")]
    fn no_guard_is_held_across_a_yield_point() {
        let gate = Mutex::ranked(Class::CatalogGate, ());
        let _held = gate.lock();
        yield_point("test.step");
    }

    #[test]
    fn an_opt_in_point_is_reached_holding_the_commit_locks() {
        let commit = Mutex::ranked(Class::TxdbCommit, ());
        let _held = commit.lock();
        yield_point(points::TXDB_PARTITION);
    }
}
