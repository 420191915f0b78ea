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

    pub fn create_table(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter(Op::CREATE_TABLE);
        self.fetch(name)
    }

    fn fetch(&self, _name: &str) -> Result<Table, Error> {
        Err(Error::NotFound)
    }

    pub fn delegated_twice(&self) -> u32 {
        self.delegated() // two `self.` hops to api_enter: no diagnostic
    }

    pub fn fetch_only(&self) -> Result<Table, Error> {
        self.fetch("t") // fn at line 41: its one `self.` callee opens no span
    }
}
