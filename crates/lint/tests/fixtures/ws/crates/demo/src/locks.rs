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
