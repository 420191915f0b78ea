//! Lock-discipline fixtures. Receivers `state` and `tables` are tracked
//! guard sources; the fixture Lint.toml pins the acquisition order
//! [demo.pool, demo.tables, demo.state]. Note `inverted` + `ordered`
//! together close a state -> tables -> state cycle, reported once at the
//! first edge's site (line 27).

pub fn held_across_yield(s: &S) {
    let guard = s.state.write();
    yield_point(1); // line 9: guard held across yield point
    drop(guard);
}

pub fn held_across_commit(s: &S, tx: &Tx) {
    let guard = s.tables.write();
    tx.commit(); // line 15: guard held across txdb commit
    drop(guard);
}

pub fn held_across_yieldful_call(s: &S, uc: &Uc) {
    let guard = s.state.read();
    uc.get_entity_by_id(7); // line 21: guard held across yielding call
    drop(guard);
}

pub fn inverted(a: &S, b: &S) {
    let outer = a.state.read();
    let inner = b.tables.read(); // line 27: inversion (tables is pinned before state)
    drop(inner);
    drop(outer);
}

pub fn self_deadlock(a: &S) {
    let outer = a.state.read();
    let inner = a.state.write(); // line 34: same-class nesting
    drop(inner);
    drop(outer);
}

pub fn ordered(a: &S) {
    let outer = a.tables.write();
    let inner = a.state.write(); // line 41: clean edge demo.tables -> demo.state, no diagnostic
    drop(inner);
    drop(outer);
}

pub fn pooled(pool: &Pool, ms: &Gate) {
    let permit = pool.acquire(); // census: demo.pool
    drop(permit);
    let gate = ms.write_gate(); // census: demo.gate
    drop(gate);
}

pub fn held_across_deep_yield(s: &S, uc: &Uc) {
    let guard = s.state.read();
    uc_depot::mid_hop(uc); // guard held across a cross-crate call that yields two hops down
    drop(guard);
}

pub fn outer_state(a: &S, b: &S) {
    let g = a.state.read();
    lock_tables(b); // callee acquires demo.tables while demo.state is held: inversion through the call
    drop(g);
}

fn lock_tables(b: &S) {
    let g = b.tables.read();
    drop(g);
}

pub fn tidy(_s: &S) {
    // uc-lint: allow(locks) -- fixture: nothing below acquires or yields anymore
    let _n = 0;
}

pub fn hot_read(a: &S) {
    let guard = a.state.read(); // hotpath: listed function takes a lock without a pragma
    drop(guard);
}

pub fn hot_entry(a: &S, f: &Fam, id: u32) {
    hot_helper(a, f, id); // the lock and the label live one call below this root
    uc_depot::depot_probe(a); // cross-crate: depot.state joins the closure too
    // uc-lint: allow(hotpath) -- hot/cold boundary: the refill is the miss path, pruned from the closure
    cold_refill(a);
}

fn hot_helper(a: &S, f: &Fam, id: u32) {
    let g = a.state.read(); // hotpath: reached from hot_entry, not listed itself
    drop(g);
    f.inc(&format!("t={id}")); // cardinality: inline label one call below the root
}

fn cold_refill(a: &S) {
    let g = a.state.write(); // pruned by the boundary pragma at the call site: no diagnostic
    drop(g);
}

pub fn hot_labeled(m: &Fam, id: u32) {
    m.inc(&format!("t={id}")); // cardinality: inline format! label in a hot function
    m.inc("t=fixed"); // literal label: no diagnostic
    m.record("t=fixed", 5); // literal label: no diagnostic
}

pub fn hot_cached(a: &S, probe: impl Fn(&S) -> u32, load: impl Fn(&S) -> u32) -> u32 {
    let hit = probe(a); // invoked here: a closure literal passed as `probe` runs on the hot path
    // uc-lint: allow(hotpath) -- hot/cold boundary: `load` is only handed on to the miss path
    hit + cold_load(a, &load)
}

fn cold_load(a: &S, load: &impl Fn(&S) -> u32) -> u32 {
    load(a)
}

pub fn cached_lookup(a: &S) -> u32 {
    hot_cached(a, |s| probe_state(s), |s| { lock_tables(s); 0 }) // only the first closure is hot
}

fn probe_state(s: &S) -> u32 {
    let g = s.state.read(); // hotpath: reached through the closure passed as `probe`
    drop(g);
    1
}
