//! Instrumentation fixtures: entry points on `Service` (the fixture's
//! configured impl_type).

impl Service {
    pub fn get_table(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter(Op::GET_TABLE); // instrumented: no diagnostic
        self.fetch(name)
    }

    pub fn get_table_labeled(&self, ctx: &Ctx, ms: &Uid) -> Result<Table, Error> {
        let _api = self.api_enter(Op::GET_TABLE, Some(&ctx.principal), Some(ms)); // tenant-attributed call counts as instrumented: no diagnostic
        self.fetch("t")
    }

    pub fn delegated(&self) -> u32 {
        self.inner_entry() // same-file delegation: no diagnostic
    }

    fn inner_entry(&self) -> u32 {
        let _api = self.api_enter(Op::GET_TABLE);
        7
    }

    pub fn uninstrumented(&self) -> u32 {
        19 // fn at line 24: pub entry point without api_enter
    }

    pub fn list_tables(&self) {
        let _api = self.api_enter(Op::LIST_TABLES); // the row declares no action: nothing to audit, no diagnostic
    }

    pub fn create_table(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter(Op::CREATE_TABLE);
        self.record_audit("alice", "getTable", name); // line 34: a table action spelled as a literal (and another op's)
        self.record_audit("alice", "madeUp", name); // line 35: a literal where the sink takes its action
        self.fetch(name)
    }

    pub fn deny_without_audit(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter(Op::GET_TABLE); // PermissionDenied below, no Deny audit
        if name.is_empty() {
            return Err(Error::PermissionDenied("no".into()));
        }
        self.fetch(name)
    }

    pub fn silent_create(&self) -> Result<Table, Error> {
        let _api = self.api_enter(Op::CREATE_TABLE); // op declares audit actions but nothing below records one
        Ok(Table)
    }

    fn fetch(&self, name: &str) -> Result<Table, Error> {
        self.record_audit("alice", Op::GET_TABLE.actions[0], name); // entries that delegate here reach the audit sink
        Err(Error::NotFound)
    }

    fn record_audit(&self, _principal: &str, _action: &str, _detail: &str) {
        // The fixture's audit sink: reachability to this def satisfies
        // the instrument rule's audit-record check.
    }
}
