//! Ablation: discovery synchronization — change events vs polling (§4.4).
//!
//! Discovery catalogs that poll the operational catalog must rescan the
//! namespace to find anything new; the change-event stream delivers
//! exactly the delta. This bench measures catalog load (API calls and
//! entities reprocessed) and wall time for both strategies across a
//! series of incremental updates.


use uc_bench::{fmt_dur, print_table, World, WorldConfig, ADMIN};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::Context;
use uc_delta::value::{DataType, Field, Schema};
use uc_discovery::DiscoveryService;

const BASE_TABLES: usize = 1_000;
const UPDATE_ROUNDS: usize = 20;

fn main() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    println!("creating {BASE_TABLES} base tables…");
    for i in 0..BASE_TABLES {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema.clone()).unwrap())
            .unwrap();
    }

    let eventful = DiscoveryService::new(world.uc.clone(), world.ms.clone(), Context::user(ADMIN));
    let poller = DiscoveryService::new(world.uc.clone(), world.ms.clone(), Context::user(ADMIN));
    eventful.sync().unwrap();
    poller.sync_by_polling().unwrap();
    let e0 = eventful.stats();
    let p0 = poller.stats();

    // steady state: one new table lands per round, both stay fresh
    let mut event_time = std::time::Duration::ZERO;
    let mut poll_time = std::time::Duration::ZERO;
    for round in 0..UPDATE_ROUNDS {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.new{round}"), schema.clone()).unwrap())
            .unwrap();
        let t0 = uc_bench::Stopwatch::start();
        eventful.sync().unwrap();
        event_time += t0.elapsed();
        let t0 = uc_bench::Stopwatch::start();
        poller.sync_by_polling().unwrap();
        poll_time += t0.elapsed();
        assert_eq!(eventful.search(&Context::user(ADMIN), &format!("new{round}")).unwrap().len(), 1);
        assert_eq!(poller.search(&Context::user(ADMIN), &format!("new{round}")).unwrap().len(), 1);
    }
    let e = eventful.stats();
    let p = poller.stats();
    print_table(
        &format!("Ablation — keeping discovery fresh across {UPDATE_ROUNDS} incremental updates"),
        &["strategy", "entities reprocessed", "catalog API calls", "total sync time"],
        &[
            vec![
                "change events".into(),
                (e.entities_indexed - e0.entities_indexed).to_string(),
                (e.catalog_calls - e0.catalog_calls).to_string(),
                fmt_dur(event_time),
            ],
            vec![
                "polling (full rescan)".into(),
                (p.entities_indexed - p0.entities_indexed).to_string(),
                (p.catalog_calls - p0.catalog_calls).to_string(),
                fmt_dur(poll_time),
            ],
        ],
    );
    let reprocess_ratio = (p.entities_indexed - p0.entities_indexed) as f64
        / (e.entities_indexed - e0.entities_indexed) as f64;
    assert!(reprocess_ratio > 100.0);
    println!(
        "\nconclusion: event-driven sync reprocesses exactly what changed; polling\n\
         reprocesses the whole namespace every round ({reprocess_ratio:.0}× more work) —\n\
         the freshness/overhead trade-off §4.4's change events eliminate"
    );
}
