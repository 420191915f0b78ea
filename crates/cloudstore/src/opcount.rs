//! Per-operation count / error counters, resolved once.
//!
//! `Obs::counter(name)` takes the registry lock and allocates the name on
//! every call. A storage or STS operation has a fixed name, so each one
//! keeps its two handles here and asks the registry only the first time —
//! and only when the event first happens, so an operation that never
//! fails still registers no `.errors` series.

use std::sync::OnceLock;

use uc_obs::{Counter, Obs};

#[derive(Debug)]
pub(crate) struct OpCounters {
    count_name: &'static str,
    errors_name: &'static str,
    count: OnceLock<Counter>,
    errors: OnceLock<Counter>,
}

impl OpCounters {
    pub(crate) const fn new(count_name: &'static str, errors_name: &'static str) -> Self {
        OpCounters { count_name, errors_name, count: OnceLock::new(), errors: OnceLock::new() }
    }

    /// The `<op>.count` counter in `obs`'s registry. `obs` must be the same
    /// handle on every call; owners replace the whole `OpCounters` when
    /// their `Obs` changes.
    pub(crate) fn count(&self, obs: &Obs) -> &Counter {
        self.count.get_or_init(|| obs.counter(self.count_name))
    }

    /// The `<op>.errors` counter.
    pub(crate) fn errors(&self, obs: &Obs) -> &Counter {
        self.errors.get_or_init(|| obs.counter(self.errors_name))
    }
}
