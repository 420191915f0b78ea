//! The one result slot: a flight or batch leader publishes a request's
//! result into it, and whoever is waiting on that request reads it out.

use parking_lot::{Condvar, Mutex};
use uc_catalog::UcResult;
use uc_cloudstore::sched::{is_scheduled, yield_point};

use crate::points;

/// Shared slot a leader publishes into and waiters read from.
pub struct Slot<T> {
    state: Mutex<Option<UcResult<T>>>,
    done: Condvar,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new() -> Slot<T> {
        Slot { state: Mutex::new(None), done: Condvar::new() }
    }

    /// Non-blocking probe of the published result.
    fn poll(&self) -> Option<UcResult<T>> {
        let state = self.state.lock();
        state.clone()
    }

    /// Publish the result and wake every waiter.
    pub(crate) fn publish(&self, result: UcResult<T>) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.done.notify_all();
    }

    /// Wait for the published result. Real threads block on the condvar;
    /// under the deterministic scheduler (where blocking a thread would
    /// wedge the baton hand-off) the wait yields between probes instead,
    /// so the explorer controls exactly when the leader runs. A slot
    /// that is already published returns at once either way — all the
    /// single-threaded replay ever sees.
    pub fn wait(&self) -> UcResult<T> {
        if is_scheduled() {
            loop {
                if let Some(result) = self.poll() {
                    return result;
                }
                yield_point(points::SERVE_DISPATCH);
            }
        }
        let mut state = self.state.lock();
        loop {
            if let Some(result) = &*state {
                return result.clone();
            }
            self.done.wait(&mut state);
        }
    }
}
