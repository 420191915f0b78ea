//! Ablation: cache reconciliation strategies (§4.5).
//!
//! When a node detects that another node advanced the metastore version,
//! it must reconcile its cache. The naive strategy evicts everything; the
//! optimized one reads the metastore's change feed from its pinned version
//! and invalidates only the touched entries. This bench measures what each strategy costs in
//! subsequent database reads after a small foreign write burst.

use std::sync::Arc;

use uc_bench::{print_table, World, WorldConfig, ADMIN};
use uc_catalog::cache::CacheConfig;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_delta::value::{DataType, Field, Schema};

const TABLES: usize = 2_000;
const FOREIGN_WRITES: usize = 20;
const PROBE_READS: usize = 500;

fn main() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    println!("creating {TABLES} tables…");
    for i in 0..TABLES {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema.clone()).unwrap())
            .unwrap();
    }

    let run = |selective: bool| -> (u64, u64) {
        // a fresh node with the strategy under test, warmed over all tables
        let node: Arc<UnityCatalog> = UnityCatalog::new(
            world.db.clone(),
            world.store.clone(),
            UcConfig {
                cache: CacheConfig { selective_reconcile: selective, ..Default::default() },
                ..Default::default()
            },
            if selective { "node-selective" } else { "node-full" },
        );
        for i in 0..TABLES {
            node.get_table(&ctx, &world.ms, &format!("main.s.t{i}")).unwrap();
        }
        // another node (the writer) touches a few entities
        for i in 0..FOREIGN_WRITES {
            world
                .uc
                .update_comment(&ctx, &world.ms, &FullName::parse(&format!("main.s.t{i}")).unwrap(), "relation", "touched")
                .unwrap();
        }
        // reconcile, then probe reads: count DB reads the node must issue
        node.reconcile_metastore(&world.ms);
        let reads_before = node.db().stats().reads();
        for i in 0..PROBE_READS {
            node.get_table(&ctx, &world.ms, &format!("main.s.t{}", i % TABLES)).unwrap();
        }
        let db_reads = node.db().stats().reads() - reads_before;
        let invalidations = node
            .cache_stats()
            .invalidations
            .load(std::sync::atomic::Ordering::Relaxed);
        (db_reads, invalidations)
    };

    let (full_reads, _) = run(false);
    let (selective_reads, invalidated) = run(true);
    print_table(
        &format!(
            "Ablation — reconcile after {FOREIGN_WRITES} foreign writes over {TABLES} cached entities"
        ),
        &["strategy", "DB reads for next 500 lookups", "entries invalidated"],
        &[
            vec!["full evict".into(), full_reads.to_string(), TABLES.to_string()],
            vec!["selective (change feed)".into(), selective_reads.to_string(), invalidated.to_string()],
        ],
    );
    assert!(selective_reads * 5 < full_reads, "selective must avoid most re-reads");
    println!(
        "\nconclusion: feed-driven invalidation preserves {:.1} % of the cache\n\
         a full evict throws away ({:.0}× fewer DB reads after reconciliation)",
        100.0 * (1.0 - FOREIGN_WRITES as f64 / TABLES as f64),
        full_reads as f64 / selective_reads.max(1) as f64
    );
}
