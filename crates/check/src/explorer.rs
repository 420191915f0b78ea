//! The deterministic interleaving explorer.
//!
//! One run = one seeded [`Scheduler`] driving `clients` cooperative client
//! threads through a planned workload against a fresh in-memory world.
//! Both the interleaving (the scheduler trace) and the outcome (the
//! recorded [`History`]) are pure functions of the [`RunConfig`], so a
//! failing run replays exactly from its seed — set `UC_SCHED_SEED` to pin
//! one, mirroring `UC_CHAOS_SEED` in the chaos suite.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use uc_catalog::model::{feed, keys};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_cloudstore::faults::FaultPlan;
use uc_cloudstore::sched::{points, yield_point, Scheduler, SchedMode};
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
use uc_obs::{Obs, TraceRecord};
use uc_txdb::{Db, DbConfig};

use crate::checker::{check_with_feed, verify_structure, Violation};
use crate::history::{assemble, DriverRow, History};
use crate::workload::{exec_op, initial_model, plan_ops, plan_subtree_ops, seed_world};

const ADMIN: &str = "root";

/// Yield points a snapshot client holds its snapshot across.
const SNAPSHOT_HOLD: usize = 4;

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub clients: usize,
    pub ops_per_client: usize,
    pub mode: SchedMode,
    /// Test-only: disable the transaction commit validation to prove the
    /// checker catches the resulting lost-update/duplicate-version runs.
    pub weaken_commit: bool,
    /// Test-only: make txdb reclaim as if no snapshot were open, to prove
    /// the `snapshot_clients` catch a reader losing its snapshot.
    pub weaken_gc: bool,
    /// Extra *history-producing* clients running the subtree-adversary
    /// schedule ([`crate::workload::plan_subtree_ops`]): cascading schema
    /// drops vs. deep creates vs. range-scan listings, all on one schema,
    /// so drop/recreate races and mid-cascade listings land at every
    /// interleaving the scheduler can reach. Their rows feed the checker
    /// like any client's, and every run ends with a structural sweep of
    /// the tree and path indexes ([`crate::checker::verify_structure`]).
    pub subtree_clients: usize,
    /// Extra scheduler clients that do nothing but drain the audit lanes
    /// and fold the metric stripes (`AuditLog::flush` + metrics snapshot),
    /// so the explorer schedules those merges adversarially *between* the
    /// real clients' commits. The snapshot-isolation verdict must not
    /// depend on when a flush lands.
    pub flush_clients: usize,
    /// Extra scheduler clients that freeze the flight recorder
    /// (`UnityCatalog::flight_freeze`, which yields at
    /// `points::FLIGHT_FREEZE` before snapshotting the per-thread rings),
    /// so freezes land adversarially between a commit and its audit feed.
    /// A freeze is a pure read of the rings: it must never change the
    /// checker's verdict or the clients' history.
    pub freeze_clients: usize,
    /// Extra scheduler clients that hold a database snapshot open across
    /// several yield points — while the real clients commit, and every
    /// commit reclaims versions below the horizon — re-reading the
    /// metastore's feed range (whose last row is its version), tree range
    /// and path range through it after each yield. A reader never loses
    /// its snapshot: every re-read must equal the first, or the run records
    /// a [`Violation::SnapshotLost`]. They produce no history rows.
    pub snapshot_clients: usize,
}

impl RunConfig {
    pub fn new(seed: u64, mode: SchedMode) -> RunConfig {
        RunConfig {
            seed,
            clients: 3,
            ops_per_client: 12,
            mode,
            weaken_commit: false,
            weaken_gc: false,
            subtree_clients: 0,
            flush_clients: 0,
            freeze_clients: 0,
            snapshot_clients: 0,
        }
    }
}

#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The scheduler's step-by-step interleaving trace.
    pub schedule: String,
    pub history: History,
    pub violations: Vec<Violation>,
}

impl RunOutput {
    /// Byte-stable fingerprint: schedule trace + canonical history.
    pub fn fingerprint(&self) -> String {
        format!(
            "schedule:\n{}history:\n{}",
            self.schedule,
            self.history.canonical_text()
        )
    }
}

/// Resolve the explorer seed: `UC_SCHED_SEED` env override or the default.
/// Prints the seed so any failure is replayable.
pub fn sched_seed(default: u64) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "this IS the seed override entry point; the seed is printed for replay"
    )]
    let seed = std::env::var("UC_SCHED_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    eprintln!("UC_SCHED_SEED={seed}");
    seed
}

/// Execute one fully-deterministic exploration run and check its history.
pub fn run_one(cfg: &RunConfig) -> RunOutput {
    // --- world ---------------------------------------------------------
    let plan = FaultPlan::disabled();
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_faults(plan.clone()).with_obs(obs.clone());
    let store = ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone())
        .with_obs(obs.clone());
    let db = Db::new(DbConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db.clone(),
        store.clone(),
        UcConfig { faults: plan, obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "check", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    seed_world(&uc, &ctx, &ms);
    if cfg.weaken_commit {
        db.set_unsafe_skip_commit_validation(true);
    }
    if cfg.weaken_gc {
        db.set_unsafe_gc_ignore_snapshots(true);
    }

    // --- base version probe (own span, so its reads are recorded) ------
    let base_version = {
        let span = obs.span("check", "probe");
        let _ = span;
        let probe_trace = uc_obs::current_trace_id().expect("probe span active");
        uc.get_table(&ctx, &ms, "main.s.seed0").unwrap();
        drop(span);
        max_read_version(&obs.tracer().records(), probe_trace)
            .expect("probe recorded a read version")
    };

    // --- concurrent phase under the scheduler --------------------------
    let history_clients = cfg.clients + cfg.subtree_clients;
    let total_clients = history_clients
        + cfg.flush_clients
        + cfg.freeze_clients
        + cfg.snapshot_clients;
    let steps_hint = (total_clients * cfg.ops_per_client * 8) as u64;
    let sched = Scheduler::new(cfg.seed, total_clients, cfg.mode, steps_hint);
    // Subtree adversaries are history clients like any other — planned
    // from a decorrelated seed so their schedule doesn't mirror the
    // general clients', then checked through the same model.
    let mut plans = plan_ops(cfg.seed, cfg.clients, cfg.ops_per_client);
    plans.extend(plan_subtree_ops(
        cfg.seed ^ 0x5b7e_5b7e_5b7e_5b7e,
        cfg.subtree_clients,
        cfg.ops_per_client,
    ));
    let rows: Arc<Mutex<Vec<DriverRow>>> = Arc::new(Mutex::new(Vec::new()));
    let seq = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for (i, ops) in plans.into_iter().enumerate() {
        let sched = sched.clone();
        let uc = uc.clone();
        let ctx = ctx.clone();
        let ms = ms.clone();
        let obs = obs.clone();
        let rows = rows.clone();
        let seq = seq.clone();
        handles.push(std::thread::spawn(move || {
            sched.register_current(i);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for (k, op) in ops.iter().enumerate() {
                    yield_point(points::OP_START);
                    // The baton serializes clients, so fetch_add observes a
                    // deterministic global op order.
                    let s = seq.fetch_add(1, Ordering::SeqCst);
                    let span = obs.span("check", &format!("c{i}.op{k}"));
                    let trace_id = uc_obs::current_trace_id().expect("op span active");
                    let resp = exec_op(&uc, &ctx, &ms, op);
                    drop(span);
                    rows.lock().push(DriverRow {
                        seq: s,
                        client: i,
                        op: op.clone(),
                        resp,
                        trace_id,
                    });
                }
            }));
            // Always hand the baton back, even on panic, or the run hangs.
            uc_cloudstore::sched::finish_current();
            if let Err(p) = result {
                resume_unwind(p);
            }
        }));
    }
    // Flusher clients: each scheduler pass drains the audit lanes (which
    // yields at `points::AUDIT_FLUSH` before taking the merge lock) and
    // folds a metrics snapshot (which yields at `points::OBS_FOLD`), so
    // the explorer deliberately lands merges between the real clients'
    // commit steps. They produce no history rows; their only legal effect
    // is on *when* telemetry is merged, never on what the checker sees.
    for j in 0..cfg.flush_clients {
        let sched = sched.clone();
        let uc = uc.clone();
        let iters = cfg.ops_per_client;
        let client_idx = history_clients + j;
        handles.push(std::thread::spawn(move || {
            sched.register_current(client_idx);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..iters {
                    yield_point(points::OP_START);
                    uc.audit_log().flush();
                    let _ = uc.metrics_snapshot();
                }
            }));
            uc_cloudstore::sched::finish_current();
            if let Err(p) = result {
                resume_unwind(p);
            }
        }));
    }
    // Freeze clients: each pass freezes the flight recorder mid-run, so
    // the scheduler can land a ring snapshot between a commit and the
    // audit feed that describes it. Freezing reads the rings and writes
    // only the recorder's own frozen slot — it must never perturb the
    // clients' ops, versions, or the checker's verdict.
    for j in 0..cfg.freeze_clients {
        let sched = sched.clone();
        let uc = uc.clone();
        let iters = cfg.ops_per_client;
        let client_idx = history_clients + cfg.flush_clients + j;
        handles.push(std::thread::spawn(move || {
            sched.register_current(client_idx);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for k in 0..iters {
                    yield_point(points::OP_START);
                    let _ = uc.flight_freeze(&format!("check.adversary#{k}"));
                }
            }));
            uc_cloudstore::sched::finish_current();
            if let Err(p) = result {
                resume_unwind(p);
            }
        }));
    }
    // Snapshot clients: a snapshot held across yields, so commits — and
    // the reclamation each one runs — land while it is open.
    let lost: Arc<Mutex<Vec<Violation>>> = Arc::new(Mutex::new(Vec::new()));
    for j in 0..cfg.snapshot_clients {
        let sched = sched.clone();
        let db = db.clone();
        let ms = ms.clone();
        let lost = lost.clone();
        let iters = cfg.ops_per_client;
        let client_idx = history_clients + cfg.flush_clients + cfg.freeze_clients + j;
        handles.push(std::thread::spawn(move || {
            sched.register_current(client_idx);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..iters {
                    yield_point(points::OP_START);
                    let rt = db.begin_read();
                    let read = || {
                        (
                            rt.scan_prefix(feed::T_FEED, &feed::prefix(&ms)),
                            rt.scan_prefix(keys::T_TREE, &keys::tree_ms_prefix(&ms)),
                            rt.scan_prefix(keys::T_PATH, &keys::path_ms_prefix(&ms)),
                        )
                    };
                    let first = read();
                    for _ in 0..SNAPSHOT_HOLD {
                        yield_point(points::READ_LOOKUP);
                        if read() != first {
                            lost.lock().push(Violation::SnapshotLost {
                                reader: j,
                                csn: rt.snapshot_csn(),
                                now: db.current_csn(),
                            });
                            break;
                        }
                    }
                }
            }));
            uc_cloudstore::sched::finish_current();
            if let Err(p) = result {
                resume_unwind(p);
            }
        }));
    }
    sched.run_to_completion();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    // --- assemble & check ----------------------------------------------
    let records = obs.tracer().records();
    let rows = Arc::try_unwrap(rows).expect("rows still shared").into_inner();
    let history = assemble(base_version, rows, &records);
    let mut violations = check_with_feed(&history, &initial_model(), &db, &ms);
    violations.extend(Arc::try_unwrap(lost).expect("readers still running").into_inner());
    // Every run — adversarial or not — ends with a structural sweep of
    // the quiesced indexes: tree ↔ entity 1:1, no orphan at any prefix,
    // one asset per path.
    violations.extend(verify_structure(&db, &ms));
    RunOutput { schedule: sched.trace_text(), history, violations }
}

fn max_read_version(records: &[TraceRecord], trace_id: u64) -> Option<u64> {
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Event { trace_id: t, name, detail, .. }
                if *t == trace_id && name == "history.read" =>
            {
                detail
                    .split_whitespace()
                    .find_map(|tok| tok.strip_prefix("version=")?.parse().ok())
            }
            _ => None,
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_run_is_clean_and_deterministic() {
        let cfg = RunConfig {
            seed: 1,
            clients: 1,
            ops_per_client: 8,
            mode: SchedMode::RandomWalk,
            weaken_commit: false,
            weaken_gc: false,
            subtree_clients: 0,
            flush_clients: 0,
            freeze_clients: 0,
            snapshot_clients: 0,
        };
        let a = run_one(&cfg);
        let b = run_one(&cfg);
        assert_eq!(a.violations, vec![], "{:#?}", a.violations);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
