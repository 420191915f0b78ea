//! Fixture op table: the `ops!` block the instrumentation rule parses
//! from source. Three ops, three actions — one of them named, as a
//! secondary action is in the real table.

pub const USE_EXTERNAL_PATH: Action = Action("useExternalPath");

ops! {
    CREATE_TABLE = "create_table" => ["createTable", USE_EXTERNAL_PATH];
    GET_TABLE = "get_table" => ["getTable"];
    LIST_TABLES = "list_tables" => [];
}
