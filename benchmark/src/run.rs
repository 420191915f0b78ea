//! The timed window: closed-loop clients replaying fixed-length op
//! sequences, and the program's public counters read at its boundaries.
//!
//! Closed loop, because the catalog is an in-process library whose caller
//! thread *is* the server: an arrival process independent of service time
//! would need more threads than a small host has cores. Each client is
//! one OS thread; nothing else runs.

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use uc_obs::Counter;

use crate::client::{Client, Reply};
use crate::gen::Op;
use crate::hist::LatencyHist;
use crate::stats::median;
use crate::world::World;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The program's public counters, as an outside observer reads them.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field),* }
            }
        }
    };
}

counters!(
    db_reads,
    db_scans,
    db_commits,
    db_rows,
    db_conflicts,
    pool_waits,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_stale_retries,
    cache_gate_waits,
    cache_pin_retries,
    cred_hits,
    cred_misses,
    audit_records,
    write_retries,
    store_gets,
    store_lists,
    sts_mints,
    sts_verifies,
    serve_shed,
);

impl Counters {
    /// Round trips a remote metadata database would charge.
    pub fn db_round_trips(&self) -> u64 {
        self.db_reads + self.db_scans + self.db_commits
    }
}

/// Handles to the counters that live only in the obs registry, looked up
/// once so reading them takes no registry lock.
pub struct Probe<'w> {
    world: &'w World,
    store_gets: Counter,
    store_lists: Counter,
    sts_mints: Counter,
    sts_verifies: Counter,
    serve_shed: Counter,
}

impl<'w> Probe<'w> {
    pub fn new(world: &'w World) -> Probe<'w> {
        let obs = world.uc.obs();
        Probe {
            world,
            store_gets: obs.counter("store.get.count"),
            store_lists: obs.counter("store.list.count"),
            sts_mints: obs.counter("sts.mint.count"),
            sts_verifies: obs.counter("sts.verify.count"),
            serve_shed: obs.counter("serve.shed"),
        }
    }

    pub fn read(&self) -> Counters {
        let w = self.world;
        let (db, cache) = (w.db.stats(), w.uc.cache_stats());
        let (cred_hits, cred_misses) = w.uc.credential_cache_stats();
        Counters {
            db_reads: db.reads(),
            db_scans: db.scans(),
            db_commits: db.commits(),
            db_rows: db.writes(),
            db_conflicts: db.conflicts(),
            pool_waits: w.db.pool().waits(),
            cache_hits: cache.hits.get(),
            cache_misses: cache.misses.get(),
            cache_evictions: cache.evictions.get(),
            cache_stale_retries: cache.stale_retries.get(),
            cache_gate_waits: cache.gate_waits.get(),
            cache_pin_retries: cache.pin_retries.get(),
            cred_hits,
            cred_misses,
            audit_records: w.uc.audit_log().total_recorded(),
            write_retries: w.uc.service_stats().write_retries.get(),
            store_gets: self.store_gets.get(),
            store_lists: self.store_lists.get(),
            sts_mints: self.sts_mints.get(),
            sts_verifies: self.sts_verifies.get(),
            serve_shed: self.serve_shed.get(),
        }
    }
}

/// The timed window is cut into slices of this length on a clock the
/// clients share, and throughput and percentiles are the median slice's.
/// The host this was written on slows both cores to 60 % for seconds at a
/// time, which moved whole-window rates by a quarter and more between
/// identical runs; a median over slices is unbiased and holds as long as
/// more than half the window is undisturbed.
pub const SLICE: Duration = Duration::from_millis(250);
/// The lead-in is the sequence's first tenth, replayed before the clock.
pub const LEAD_IN_SHARE: usize = 10;

/// Ops per second of one slice, given the latencies of the ops that
/// completed in it.
pub fn slice_ops_s(slice: &LatencyHist) -> f64 {
    slice.count() as f64 / SLICE.as_secs_f64()
}

/// What one timed window measured.
pub struct Window {
    /// When the clients, their lead-ins done, started the clock they share.
    pub started: Instant,
    /// From there to the last client's last op.
    pub wall_s: f64,
    /// Per slice during which every client was running, in time order: the
    /// latencies of the ops that completed in it.
    pub slices: Vec<LatencyHist>,
    /// Every timed latency sample.
    pub hist: LatencyHist,
    /// Ops issued and replies found wrong, lead-in included.
    pub attempted: u64,
    pub failed: u64,
    /// REST calls, and how many of them returned an error (expected
    /// refusals included).
    pub rest_calls: u64,
    pub rest_errors: u64,
    /// SELECT statements issued.
    pub queries: u64,
    pub counters: Counters,
}

impl Window {
    fn correct_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Correct completed ops ÷ wall of the timed window, all clients.
    pub fn whole_ops_s(&self) -> f64 {
        self.hist.count() as f64 / self.wall_s * self.correct_share()
    }

    /// Correct completed ops per second: the median slice's rate (the
    /// whole window's when it is shorter than one slice).
    pub fn ops_s(&self) -> f64 {
        match median(self.slices.iter().map(slice_ops_s).collect()) {
            Some(rate) => rate * self.correct_share(),
            None => self.whole_ops_s(),
        }
    }

    /// The `q`-quantile of latency, in µs: the median slice's (the whole
    /// window's when it is shorter than one slice).
    pub fn quantile_us(&self, q: f64) -> f64 {
        median(self.slices.iter().map(|s| s.quantile_us(q)).collect())
            .unwrap_or_else(|| self.hist.quantile_us(q))
    }

    /// Throughput of the last tenth of the window over the first tenth's
    /// (the median slice of each).
    pub fn drift_ratio(&self) -> f64 {
        let tenth = (self.slices.len() / 10).max(1).min(self.slices.len());
        let rate = |slices: &[LatencyHist]| median(slices.iter().map(slice_ops_s).collect());
        match (
            rate(&self.slices[..tenth]),
            rate(&self.slices[self.slices.len() - tenth..]),
        ) {
            (Some(first), Some(last)) if first > 0.0 => last / first,
            _ => 1.0,
        }
    }

    pub fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.attempted as f64
    }
}

struct ClientRun {
    /// Latencies of the ops that completed in each slice; the last one is
    /// the slice the client finished in, so it is not a full one.
    slices: Vec<LatencyHist>,
    attempted: u64,
    failed: u64,
    rest_calls: u64,
    rest_errors: u64,
    queries: u64,
    elapsed_ns: u64,
}

/// Replay one client's sequence: a lead-in that is checked but not timed,
/// then `n` timed ops. `ops` is cycled when shorter; when `consume`, each
/// op is dropped after use so that a long sequence of unique requests does
/// not sit in memory beside the database it fills.
///
/// The lead-in is a tenth of the sequence — on write_mix its first round,
/// in a metastore of its own. It lets the process reach its steady state
/// (allocator arenas, page tables: on write_mix the first round of a fresh
/// process runs a quarter faster than every later one) and the host reach
/// full speed: after an idle spell its vCPUs run at about a third of
/// their speed for the first second, and set-up keeps only one core busy.
fn replay(
    world: &World,
    client: usize,
    ops: Vec<Op>,
    (lead_in, n): (usize, usize),
    consume: bool,
    (barrier, shared_start): (&Barrier, &OnceLock<Instant>),
) -> ClientRun {
    let mut c = Client::new(world, client);
    let mut run = ClientRun {
        slices: Vec::with_capacity(64),
        attempted: 0,
        failed: 0,
        rest_calls: 0,
        rest_errors: 0,
        queries: 0,
        elapsed_ns: 0,
    };
    let slice_ns = SLICE.as_nanos() as u64;
    let mut hist = LatencyHist::new();
    let mut i = 0usize;
    let mut t_start = Instant::now();
    let mut step = |op: &Op| {
        if i == lead_in {
            barrier.wait();
            t_start = *shared_start.get_or_init(Instant::now);
        }
        let t0 = Instant::now();
        let reply = c.call(op);
        let done = Instant::now();
        run.attempted += 1;
        match &reply {
            Reply::Rest(r) => {
                run.rest_calls += 1;
                run.rest_errors += r.is_err() as u64;
            }
            Reply::Sql(_) => run.queries += 1,
            Reply::Purged(_) => {}
        }
        if !c.check(op, &reply) {
            run.failed += 1;
            if run.failed <= 3 {
                eprintln!(
                    "wrong reply (client {client}, op {i}): {}",
                    reply.describe(op)
                );
            }
        }
        i += 1;
        if i <= lead_in {
            return;
        }
        // An op belongs to the slice it completed in.
        let slice = ((done - t_start).as_nanos() as u64 / slice_ns) as usize;
        while run.slices.len() < slice {
            run.slices.push(std::mem::take(&mut hist));
        }
        hist.record((done - t0).as_nanos() as u64);
    };
    if consume {
        ops.into_iter().for_each(|op| step(&op));
    } else {
        ops.iter().cycle().take(lead_in + n).for_each(&mut step);
    }
    run.elapsed_ns = t_start.elapsed().as_nanos() as u64;
    run.slices.push(hist);
    run
}

/// Run one timed window: client `c` replays `sequences[c]`, all starting
/// together; counters are read just before and just after.
pub fn timed_window(world: &World, sequences: Vec<(usize, Vec<Op>)>) -> Window {
    let probe = Probe::new(world);
    let barrier = Barrier::new(sequences.len());
    let shared_start = OnceLock::new();
    // Rounds are sequences of unique requests, issued once; the other
    // workloads cycle a ring.
    let consume = world.sizes.round > 0;
    let ops_per_client = world.sizes.ops_per_client;
    let before = probe.read();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .into_iter()
            .map(|(client, ops)| {
                let start = (&barrier, &shared_start);
                let lead_in = if consume {
                    // The first round, in the client's first metastore.
                    ops.iter().take_while(|op| op.ms == 0).count()
                } else {
                    ops_per_client / LEAD_IN_SHARE
                };
                let n = if consume {
                    ops.len() - lead_in
                } else {
                    ops_per_client
                };
                scope.spawn(move || replay(world, client, ops, (lead_in, n), consume, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let counters = probe.read().since(&before);
    let mut hist = LatencyHist::new();
    runs.iter()
        .flat_map(|r| &r.slices)
        .for_each(|h| hist.merge(h));
    // A client's last slice is the one it finished in: once the first
    // client is done the others run alone, so the window's full slices
    // end there.
    let full = runs.iter().map(|r| r.slices.len() - 1).min().unwrap_or(0);
    let slices = (0..full)
        .map(|s| {
            let mut slice = LatencyHist::new();
            runs.iter().for_each(|r| slice.merge(&r.slices[s]));
            slice
        })
        .collect();
    let sum = |f: fn(&ClientRun) -> u64| runs.iter().map(f).sum::<u64>();
    Window {
        started: *shared_start.get().expect("every client started the clock"),
        wall_s: runs.iter().map(|r| r.elapsed_ns).max().unwrap_or(0) as f64 / 1e9,
        slices,
        hist,
        attempted: sum(|r| r.attempted),
        failed: sum(|r| r.failed),
        rest_calls: sum(|r| r.rest_calls),
        rest_errors: sum(|r| r.rest_errors),
        queries: sum(|r| r.queries),
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice_of(ops: u64, nanos: u64) -> LatencyHist {
        let mut h = LatencyHist::new();
        (0..ops).for_each(|_| h.record(nanos));
        h
    }

    fn window_of(slices: Vec<LatencyHist>, wall_s: f64) -> Window {
        let mut hist = LatencyHist::new();
        slices.iter().for_each(|s| hist.merge(s));
        Window {
            started: Instant::now(),
            wall_s,
            attempted: hist.count(),
            slices,
            hist,
            failed: 0,
            rest_calls: 0,
            rest_errors: 0,
            queries: 0,
            counters: Counters::default(),
        }
    }

    #[test]
    fn a_slow_spell_shorter_than_half_the_window_leaves_the_figures_alone() {
        // Five slices at 400 op/s and 1 µs, two disturbed ones at half the
        // rate and ten times the latency.
        let mut slices: Vec<LatencyHist> = (0..5).map(|_| slice_of(100, 1_000)).collect();
        slices.insert(2, slice_of(50, 10_000));
        slices.insert(3, slice_of(50, 10_000));
        let w = window_of(slices, 7.0 * SLICE.as_secs_f64());
        assert_eq!(w.ops_s(), 400.0);
        assert!((w.quantile_us(0.99) - 1.0).abs() < 0.01);
        // The window as a whole does see it.
        assert!(w.whole_ops_s() < 345.0 && w.hist.quantile_us(0.99) > 9.9);
        assert_eq!(w.drift_ratio(), 1.0);
    }

    #[test]
    fn a_window_shorter_than_a_slice_reports_itself() {
        let mut w = window_of(Vec::new(), 0.1);
        w.hist = slice_of(50, 2_000);
        w.attempted = 50;
        assert_eq!(w.ops_s(), 500.0);
        assert!((w.quantile_us(0.5) - 2.0).abs() < 0.02);
        assert_eq!(w.drift_ratio(), 1.0);
    }
}
