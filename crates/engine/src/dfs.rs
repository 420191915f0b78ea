//! The data filtering service (§4.3.2).
//!
//! Some engines cannot be trusted to enforce FGAC — for example ML
//! workloads that run arbitrary user code next to the data path. Rather
//! than denying them governed data entirely, an untrusted engine
//! delegates queries that touch FGAC-protected tables to this service: a
//! *trusted* engine that executes the query under the original caller's
//! identity and returns only the filtered/masked rows. The untrusted
//! engine never receives storage credentials for the protected table.

use std::sync::Arc;

use crate::error::EngineResult;
use crate::exec::{Engine, QueryResult};
use crate::sql::{SelectQuery, Statement};

/// A trusted execution endpoint for FGAC delegation.
pub struct DataFilteringService {
    trusted_engine: Arc<Engine>,
}

impl DataFilteringService {
    /// Wrap a trusted engine. Panics if the engine is not trusted —
    /// delegating to an untrusted engine would defeat the design.
    pub fn new(trusted_engine: Arc<Engine>) -> Arc<Self> {
        assert!(
            trusted_engine_is_trusted(&trusted_engine),
            "the data filtering service must wrap a trusted engine"
        );
        Arc::new(DataFilteringService { trusted_engine })
    }

    /// Execute a SELECT on behalf of `principal` and return only result
    /// rows (already filtered and masked).
    pub fn execute_select(&self, principal: &str, query: &SelectQuery) -> EngineResult<QueryResult> {
        let mut session = self.trusted_engine.session(principal);
        session.execute_statement(Statement::Select(query.clone()))
    }
}

fn trusted_engine_is_trusted(engine: &Arc<Engine>) -> bool {
    // The engine's trust flag is private config; probe via a context.
    matches!(
        engine.context_for("probe").engine,
        uc_catalog::service::EngineIdentity::Trusted(_)
    )
}
