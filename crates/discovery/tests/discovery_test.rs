//! Discovery pipeline tests: event-driven indexing, search with
//! authorization, freshness accounting.

use std::sync::Arc;

use uc_catalog::authz::Privilege;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::ObjectStore;
use uc_delta::value::{DataType, Field, Schema};
use uc_discovery::DiscoveryService;
use uc_txdb::Db;

const ADMIN: &str = "admin";

fn setup() -> (Arc<UnityCatalog>, uc_catalog::ids::Uid) {
    let uc = UnityCatalog::new(Db::in_memory(), ObjectStore::in_memory(), UcConfig::default(), "n0");
    let ms = uc.create_metastore(ADMIN, "prod", "eu-west-1").unwrap();
    let ctx = Context::user(ADMIN);
    let root = uc.object_store().create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/root").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "sales").unwrap();
    (uc, ms)
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("id", DataType::Int)])
}

#[test]
fn event_driven_index_tracks_creates_updates_deletes() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    let disco = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    disco.sync().unwrap();
    let base = disco.indexed_count();

    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.customer_orders", schema()).unwrap())
        .unwrap();
    assert!(disco.lag() > 0, "event published but not yet consumed");
    disco.sync().unwrap();
    assert_eq!(disco.lag(), 0);
    assert_eq!(disco.indexed_count(), base + 1);

    // searchable by name token
    let hits = disco.search(&Context::user(ADMIN), "orders").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "customer_orders");

    // comment updates re-index
    uc.update_comment(&ctx, &ms, &FullName::parse("main.sales.customer_orders").unwrap(), "relation", "contains PII data")
        .unwrap();
    disco.sync().unwrap();
    let hits = disco.search(&Context::user(ADMIN), "pii").unwrap();
    assert_eq!(hits.len(), 1);

    // deletes de-index
    uc.drop_securable(&ctx, &ms, &FullName::parse("main.sales.customer_orders").unwrap(), "relation")
        .unwrap();
    disco.sync().unwrap();
    assert!(disco.search(&Context::user(ADMIN), "orders").unwrap().is_empty());
    assert_eq!(disco.indexed_count(), base);
}

#[test]
fn search_by_tag_finds_tagged_assets() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.users", schema()).unwrap()).unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.events", schema()).unwrap()).unwrap();
    uc.set_tag(&ctx, &ms, &FullName::parse("main.sales.users").unwrap(), "relation", "pii", "true")
        .unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms, Context::user(ADMIN));
    disco.sync().unwrap();
    // the "find all assets tagged PII" use case from the paper's intro
    let hits = disco.search(&Context::user(ADMIN), "pii").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "users");
}

#[test]
fn search_results_are_authorization_filtered() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.revenue_secret", schema()).unwrap())
        .unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.revenue_public", schema()).unwrap())
        .unwrap();
    uc.grant(&ctx, &ms, &FullName::parse("main.sales.revenue_public").unwrap(), "relation", "alice", Privilege::Select)
        .unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms, Context::user(ADMIN));
    disco.sync().unwrap();

    // admin sees both
    assert_eq!(disco.search(&Context::user(ADMIN), "revenue").unwrap().len(), 2);
    // alice sees only what she has any grant on
    let hits = disco.search(&Context::user("alice"), "revenue").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name, "revenue_public");
    // a stranger sees nothing
    assert!(disco.search(&Context::user("mallory"), "revenue").unwrap().is_empty());
}

#[test]
fn multi_token_queries_intersect() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.orders_gold", schema()).unwrap()).unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.orders_raw", schema()).unwrap()).unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.users_gold", schema()).unwrap()).unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms, Context::user(ADMIN));
    disco.sync().unwrap();
    assert_eq!(disco.search(&Context::user(ADMIN), "orders").unwrap().len(), 2);
    assert_eq!(disco.search(&Context::user(ADMIN), "gold").unwrap().len(), 2);
    assert_eq!(disco.search(&Context::user(ADMIN), "orders gold").unwrap().len(), 1);
    assert!(disco.search(&Context::user(ADMIN), "").unwrap().is_empty());
    assert!(disco.search(&Context::user(ADMIN), "nonexistent").unwrap().is_empty());
}

#[test]
fn polling_sync_costs_more_than_event_sync() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    for i in 0..20 {
        uc.create_table(&ctx, &ms, TableSpec::managed(&format!("main.sales.t{i}"), schema()).unwrap())
            .unwrap();
    }
    let eventful = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    eventful.sync().unwrap();
    let poller = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    poller.sync_by_polling().unwrap();
    assert_eq!(eventful.indexed_count(), poller.indexed_count() );

    // one more table lands; event sync touches 1 entity, polling rescans all
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.extra", schema()).unwrap()).unwrap();
    let e_before = eventful.stats().entities_indexed;
    eventful.sync().unwrap();
    let p_before = poller.stats().entities_indexed;
    poller.sync_by_polling().unwrap();
    assert_eq!(eventful.stats().entities_indexed - e_before, 1);
    assert!(poller.stats().entities_indexed - p_before > 20);
    assert_eq!(eventful.search(&Context::user(ADMIN), "extra").unwrap().len(), 1);
    assert_eq!(poller.search(&Context::user(ADMIN), "extra").unwrap().len(), 1);
}

#[test]
fn tokenization_covers_names_comments_and_tag_values() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.customer_churn_scores", schema()).unwrap())
        .unwrap();
    uc.update_comment(
        &ctx,
        &ms,
        &FullName::parse("main.sales.customer_churn_scores").unwrap(),
        "relation",
        "Weekly churn-model output; contains customer emails!",
    )
    .unwrap();
    uc.set_tag(&ctx, &ms, &FullName::parse("main.sales.customer_churn_scores").unwrap(), "relation", "domain", "retention")
        .unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms, Context::user(ADMIN));
    disco.sync().unwrap();
    // name tokens split on separators
    for q in ["customer", "churn", "scores"] {
        assert_eq!(disco.search(&Context::user(ADMIN), q).unwrap().len(), 1, "query {q}");
    }
    // comment words, punctuation-trimmed, case-insensitive
    for q in ["weekly", "EMAILS", "output"] {
        assert_eq!(disco.search(&Context::user(ADMIN), q).unwrap().len(), 1, "query {q}");
    }
    // tag key and value both searchable; prefix matching works
    for q in ["domain", "retention", "reten"] {
        assert_eq!(disco.search(&Context::user(ADMIN), q).unwrap().len(), 1, "query {q}");
    }
    // unrelated tokens miss
    assert!(disco.search(&Context::user(ADMIN), "unrelated").unwrap().is_empty());
}

#[test]
fn reindex_after_update_drops_stale_tokens() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.t", schema()).unwrap()).unwrap();
    uc.update_comment(&ctx, &ms, &FullName::parse("main.sales.t").unwrap(), "relation", "alpha")
        .unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    disco.sync().unwrap();
    assert_eq!(disco.search(&Context::user(ADMIN), "alpha").unwrap().len(), 1);
    uc.update_comment(&ctx, &ms, &FullName::parse("main.sales.t").unwrap(), "relation", "beta")
        .unwrap();
    disco.sync().unwrap();
    assert!(disco.search(&Context::user(ADMIN), "alpha").unwrap().is_empty(), "stale token must drop");
    assert_eq!(disco.search(&Context::user(ADMIN), "beta").unwrap().len(), 1);
}

// ---------------------------------------------------------------------
// The stream is the metastore's change feed: it reaches every node and
// outlives a node.
// ---------------------------------------------------------------------

/// A node over the same database as `uc`, with its own (empty) cache.
fn second_node(uc: &UnityCatalog, config: UcConfig, id: &str) -> Arc<UnityCatalog> {
    UnityCatalog::new(uc.db().clone(), uc.object_store().clone(), config, id)
}

/// Node A writes; a discovery service attached to node B indexes it.
#[test]
fn a_service_on_another_node_indexes_writes_committed_elsewhere() {
    let (node_a, ms) = setup();
    let node_b = second_node(&node_a, UcConfig::default(), "n1");
    let disco = DiscoveryService::new(node_b.clone(), ms.clone(), Context::user(ADMIN));
    disco.sync().unwrap();
    node_a
        .create_table(&Context::user(ADMIN), &ms, TableSpec::managed("main.sales.remote_orders", schema()).unwrap())
        .unwrap();
    assert_eq!(disco.lag(), 1, "node A's commit is one version B's service has not consumed");
    disco.sync().unwrap();
    assert_eq!(disco.lag(), 0);
    let hits = disco.search(&Context::user(ADMIN), "remote").unwrap();
    assert_eq!(hits.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(), ["remote_orders"]);
}

/// Node A updates an entity node B's service has already indexed — and so
/// node B has cached. The event names the entity; B's service must index
/// what A wrote, not B's cached copy from before it.
#[test]
fn a_service_on_another_node_reindexes_an_entity_it_had_cached() {
    let (node_a, ms) = setup();
    let ctx = Context::user(ADMIN);
    let node_b = second_node(&node_a, UcConfig::default(), "n1");
    let t = FullName::parse("main.sales.t").unwrap();
    node_a.create_table(&ctx, &ms, TableSpec::managed("main.sales.t", schema()).unwrap()).unwrap();
    let disco = DiscoveryService::new(node_b.clone(), ms.clone(), Context::user(ADMIN));
    disco.sync().unwrap();
    assert_eq!(disco.search(&Context::user(ADMIN), "t").unwrap().len(), 1);

    node_a.update_comment(&ctx, &ms, &t, "relation", "quarterly ledger").unwrap();
    disco.sync().unwrap();
    let hits = disco.search(&Context::user(ADMIN), "ledger").unwrap();
    assert_eq!(hits.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(), ["t"]);

    node_a.set_tag(&ctx, &ms, &t, "relation", "pii", "true").unwrap();
    node_a.grant(&ctx, &ms, &t, "relation", "alice", Privilege::Select).unwrap();
    disco.sync().unwrap();
    assert_eq!(disco.search(&Context::user(ADMIN), "pii").unwrap().len(), 1, "the tag A set");
    assert_eq!(disco.search(&Context::user("alice"), "ledger").unwrap().len(), 1, "the grant A made");
}

/// A consumer reads part of the stream on one node; the node is replaced
/// by a fresh one over the same database, and the consumer resumes from
/// its version there: together the two reads are exactly one read of the
/// whole stream — nothing lost, nothing repeated.
#[test]
fn a_restarted_node_resumes_a_consumers_version_with_nothing_lost_or_repeated() {
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    let create = |node: &UnityCatalog, t: &str| {
        node.create_table(&ctx, &ms, TableSpec::managed(&format!("main.sales.{t}"), schema()).unwrap()).unwrap();
    };
    create(&uc, "before");
    let first = uc.events_since(&ctx, &ms, 0).unwrap();
    create(&uc, "between");
    let restarted = second_node(&uc, UcConfig::default(), "n0-restarted");
    drop(uc);
    create(&restarted, "after");
    let rest = restarted.events_since(&ctx, &ms, first.next_version).unwrap();
    let whole = restarted.events_since(&ctx, &ms, 0).unwrap();
    assert!(!first.resync && !rest.resync && !whole.resync);
    let mut resumed = first.events.clone();
    resumed.extend(rest.events);
    assert_eq!(resumed, whole.events);
    assert_eq!(rest.next_version, whole.next_version);
    let names: Vec<&str> = whole.events.iter().rev().take(2).map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["after", "between"]);
}

/// A node that crashes between its commit and its cache update
/// (`CATALOG_CACHE_SKIP`) loses no event: the event is part of the commit.
#[test]
fn a_commit_whose_cache_update_was_skipped_is_in_the_feed() {
    use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
    let (uc, ms) = setup();
    let faults = FaultPlan::seeded(7);
    faults.arm(points::CATALOG_CACHE_SKIP, FaultMode::EveryNth(1));
    let crashing = second_node(&uc, UcConfig { faults: faults.clone(), ..Default::default() }, "n1");
    let disco = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    disco.sync().unwrap();
    crashing
        .create_table(&Context::user(ADMIN), &ms, TableSpec::managed("main.sales.skipped", schema()).unwrap())
        .unwrap();
    assert_eq!(faults.injected(points::CATALOG_CACHE_SKIP), 1, "the write-through was skipped");
    disco.sync().unwrap();
    assert_eq!(disco.search(&Context::user(ADMIN), "skipped").unwrap().len(), 1);
}

/// A consumer more than `WINDOW` versions behind finds its events retired:
/// `sync` resyncs by polling and ends with the index a fresh poll builds,
/// then consumes events again.
#[test]
fn a_consumer_behind_the_window_resyncs_by_polling_to_the_same_index() {
    use uc_catalog::model::feed::WINDOW;
    let (uc, ms) = setup();
    let ctx = Context::user(ADMIN);
    let behind = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    behind.sync().unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.hot", schema()).unwrap()).unwrap();
    let hot = FullName::parse("main.sales.hot").unwrap();
    for i in 0..WINDOW {
        uc.update_comment(&ctx, &ms, &hot, "relation", &format!("rev{i} ledger")).unwrap();
    }
    assert!(behind.lag() > WINDOW);
    let polls_before = behind.stats().catalog_calls;
    behind.sync().unwrap();
    assert_eq!(behind.lag(), 0);
    assert!(behind.stats().catalog_calls > polls_before);

    let fresh = DiscoveryService::new(uc.clone(), ms.clone(), Context::user(ADMIN));
    fresh.sync_by_polling().unwrap();
    assert_eq!(behind.indexed_count(), fresh.indexed_count());
    for q in ["ledger".to_string(), format!("rev{}", WINDOW - 1), "sales".into(), "hot".into()] {
        assert_eq!(behind.search(&Context::user(ADMIN), &q).unwrap(), fresh.search(&Context::user(ADMIN), &q).unwrap(), "query {q}");
    }
    // Back inside the window, events flow again.
    uc.create_table(&ctx, &ms, TableSpec::managed("main.sales.later", schema()).unwrap()).unwrap();
    assert_eq!(behind.sync().unwrap(), 1);
    assert_eq!(behind.search(&Context::user(ADMIN), "later").unwrap().len(), 1);
}

/// A search answers for the workspace it comes from (§3.2, §4.4): with
/// `main` bound to `ws-a`, a service running in `ws-a` indexes a table of
/// `main`; a search from `ws-a` finds it, the same user's search from
/// `ws-b` does not.
#[test]
fn a_search_answers_for_the_callers_workspace() {
    let (uc, ms) = setup();
    let admin = Context::user(ADMIN);
    uc.create_table(&admin, &ms, TableSpec::managed("main.sales.bound_orders", schema()).unwrap()).unwrap();
    uc.set_catalog_bindings(&admin, &ms, "main", &["ws-a"]).unwrap();
    let disco = DiscoveryService::new(uc.clone(), ms, admin.clone().in_workspace("ws-a"));
    disco.sync().unwrap();
    let hits = disco.search(&admin.clone().in_workspace("ws-a"), "bound").unwrap();
    assert_eq!(hits.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(), ["bound_orders"]);
    assert!(disco.search(&admin.in_workspace("ws-b"), "bound").unwrap().is_empty());
}
