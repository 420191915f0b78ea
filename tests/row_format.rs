//! The stored row format, pinned two ways.
//!
//! *Golden rows*: a fixed corpus — an entity of every securable kind (the
//! table with every governance part set), a feed row, each Delta action
//! and a data file holding every kind of value — encodes byte for byte to
//! text checked in below, and each golden text decodes back to its value,
//! so rows written by an earlier build stay readable.
//!
//! *Both codec paths agree*: for every derived model type, generated
//! values and mutated texts of them must print and read the same through
//! the direct path (`to_string` / `from_str`) as through the JSON tree
//! (`to_value` then print; parse to a `Value` then `from_value`): the same
//! bytes out, and the same value or the same refusal in.

use std::collections::BTreeMap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use serde::Serialize;
use serde_json::{Number, Value as Json};
use uc_catalog::authz::abac::{AbacEffect, AbacPolicy};
use uc_catalog::authz::fgac::{ColumnMaskPolicy, FgacPolicies, RowFilterPolicy};
use uc_catalog::authz::Privilege;
use uc_catalog::events::ChangeOp;
use uc_catalog::model::entity::Governance;
use uc_catalog::model::feed::{FeedEvent, FeedRow};
use uc_catalog::service::sharing::ShareMember;
use uc_catalog::types::{LifecycleState, SecurableKind};
use uc_catalog::{Entity, Uid};
use uc_delta::actions::{self, Action, AddFile, ColumnStats, CommitInfo, MetaData, Protocol, RemoveFile};
use uc_delta::datafile::{self, DataFile};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};

// ---------------------------------------------------------------------------
// Golden rows
// ---------------------------------------------------------------------------

const KINDS: [SecurableKind; 13] = [
    SecurableKind::Metastore,
    SecurableKind::Catalog,
    SecurableKind::Schema,
    SecurableKind::Table,
    SecurableKind::View,
    SecurableKind::Volume,
    SecurableKind::Function,
    SecurableKind::RegisteredModel,
    SecurableKind::ModelVersion,
    SecurableKind::StorageCredential,
    SecurableKind::ExternalLocation,
    SecurableKind::Connection,
    SecurableKind::Share,
];

fn columns() -> Schema {
    Schema::new(vec![
        Field::new("flag", DataType::Bool),
        Field::not_null("id", DataType::Int),
        Field::new("score", DataType::Float),
        Field::new("note", DataType::Str),
    ])
}

/// Every governance part set, with strings that need escaping.
fn full_governance() -> Governance {
    let tags = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    };
    Governance {
        admins: vec!["admin".into(), "ops team".into()],
        workspace_bindings: vec!["ws-1".into()],
        tags: tags(&[("domain", "finance"), ("pii", "high")]),
        column_tags: [("note".to_string(), tags(&[("pii", "free \"text\"")]))].into(),
        fgac: FgacPolicies {
            row_filter: Some(RowFilterPolicy {
                expr: Expr::cmp("id", CmpOp::Gt, 0i64).and(Expr::IsAccountGroupMember("analysts".into())),
            }),
            column_masks: vec![ColumnMaskPolicy {
                column: "score".into(),
                mask: Expr::Literal(Value::Null),
                exempt_when: Some(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::CurrentUser))))),
            }],
        },
        abac: [
            (
                "mask-pii".to_string(),
                AbacPolicy {
                    name: "mask-pii".into(),
                    tag_key: "pii".into(),
                    tag_value: None,
                    effect: AbacEffect::MaskColumns {
                        mask: Expr::Literal(Value::Str("REDACTED".into())),
                        exempt_groups: vec!["privacy".into()],
                    },
                },
            ),
            (
                "restrict".to_string(),
                AbacPolicy {
                    name: "restrict".into(),
                    tag_key: "domain".into(),
                    tag_value: Some("finance".into()),
                    effect: AbacEffect::RestrictAccess { allowed_groups: vec!["finance".into()] },
                },
            ),
        ]
        .into(),
    }
}

/// One entity of every kind, with fixed ids and times.
fn golden_entities() -> Vec<Entity> {
    KINDS
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mut e = Entity {
                id: Uid::from(format!("{:032x}", i + 1).as_str()),
                kind,
                name: format!("{kind:?}").to_lowercase(),
                parent: (kind != SecurableKind::Metastore).then(|| Uid::from(format!("{:032x}", i).as_str())),
                metastore: Uid::from(format!("{:032x}", 1).as_str()),
                owner: "admin".into(),
                comment: None,
                storage_path: None,
                properties: BTreeMap::new(),
                grants: Vec::new(),
                governance: None,
                state: LifecycleState::Active,
                created_at_ms: 1_700_000_000_000 + i as u64,
                updated_at_ms: 1_700_000_000_000 + 2 * i as u64,
            };
            if kind == SecurableKind::Table {
                e.comment = Some("orders: \"fact\" table\nsee wiki — é 😀\u{1}".into());
                e.storage_path = Some("s3://lake/managed/orders".into());
                e.set_table_schema(&columns());
                e.properties.insert("table_type".into(), "MANAGED".into());
                e.properties.insert("format".into(), "DELTA".into());
                e.properties.insert("commit_version".into(), "12".into());
                e.grants = vec![("analysts".into(), Privilege::Select), ("bob".into(), Privilege::Modify)];
                e.governance = Some(Box::new(full_governance()));
            }
            if kind == SecurableKind::Schema {
                e.state = LifecycleState::SoftDeleted;
            }
            e
        })
        .collect()
}

fn golden_feed_row() -> FeedRow {
    FeedRow {
        at_ms: 1_700_000_000_123,
        tree: vec!["ms\u{0}cat;a".into(), "ms:b".into()],
        path: vec!["s3://lake/x".into()],
        events: vec![FeedEvent {
            id: Uid::from("00000000000000000000000000000004"),
            kind: SecurableKind::Table,
            name: "orders".into(),
            op: ChangeOp::GrantChange,
        }],
    }
}

fn golden_actions() -> Vec<Action> {
    let stats = ColumnStats { min: Some(Value::Int(-3)), max: Some(Value::Float(2.5)), null_count: 1 };
    vec![
        Action::Protocol(Protocol { min_reader_version: 1, min_writer_version: 2 }),
        Action::MetaData(MetaData {
            id: "table-1".into(),
            schema: columns(),
            partition_columns: vec!["flag".into()],
            configuration: [("delta.appendOnly".to_string(), "true".to_string())].into(),
        }),
        Action::Add(AddFile {
            path: "part-0001.json".into(),
            size_bytes: 4096,
            num_records: 2,
            stats: [("id".to_string(), stats), ("note".to_string(), ColumnStats::default())].into(),
            modification_time_ms: 1_700_000_000_456,
        }),
        Action::Remove(RemoveFile {
            path: "part-0000.json".into(),
            deletion_timestamp_ms: 1_700_000_000_789,
        }),
        Action::CommitInfo(CommitInfo {
            operation: "WRITE".into(),
            principal: Some("alice".into()),
            engine: None,
            timestamp_ms: 1_700_000_000_999,
        }),
    ]
}

/// Rows holding every kind of value.
fn golden_rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::Bool(true), Value::Int(i64::MIN), Value::Float(-0.125), Value::Str("a \"b\"\n".into())],
        vec![Value::Null, Value::Int(7), Value::Null, Value::Null],
    ]
}

/// A corpus item: its name, its stored bytes, and whether a text decodes
/// back to it.
type Item = (String, Vec<u8>, Box<dyn Fn(&[u8]) -> bool>);

fn corpus() -> Vec<Item> {
    let mut items: Vec<Item> = Vec::new();
    for e in golden_entities() {
        let row = e.encode().to_vec();
        items.push((
            format!("entity {:?}", e.kind),
            row,
            Box::new(move |raw| Entity::decode(raw).ok() == Some(e.clone())),
        ));
    }
    let feed = golden_feed_row();
    items.push((
        "feed row".into(),
        feed.encode().to_vec(),
        Box::new(move |raw| FeedRow::decode(raw).ok() == Some(feed.clone())),
    ));
    for a in golden_actions() {
        let commit = actions::encode_commit(std::slice::from_ref(&a)).to_vec();
        let name = format!("action {}", serde_json::to_value(&a).unwrap()["action"].as_str().unwrap());
        items.push((
            name,
            commit,
            Box::new(move |raw| actions::decode_commit(raw).ok() == Some(vec![a.clone()])),
        ));
    }
    let rows = golden_rows();
    let file = datafile::encode_rows(&columns(), &rows).unwrap().to_vec();
    items.push((
        "data file".into(),
        file,
        Box::new(move |raw| datafile::decode_rows(raw).ok() == Some(rows.clone())),
    ));
    items
}

/// The corpus as the tree codec wrote it: a failing run prints the corpus
/// in this form.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("entity Metastore", "{\"id\":\"00000000000000000000000000000001\",\"kind\":\"Metastore\",\"name\":\"metastore\",\"parent\":null,\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000000,\"updated_at_ms\":1700000000000}"),
    ("entity Catalog", "{\"id\":\"00000000000000000000000000000002\",\"kind\":\"Catalog\",\"name\":\"catalog\",\"parent\":\"00000000000000000000000000000001\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000001,\"updated_at_ms\":1700000000002}"),
    ("entity Schema", "{\"id\":\"00000000000000000000000000000003\",\"kind\":\"Schema\",\"name\":\"schema\",\"parent\":\"00000000000000000000000000000002\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"SoftDeleted\",\"created_at_ms\":1700000000002,\"updated_at_ms\":1700000000004}"),
    ("entity Table", "{\"id\":\"00000000000000000000000000000004\",\"kind\":\"Table\",\"name\":\"table\",\"parent\":\"00000000000000000000000000000003\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":\"orders: \\\"fact\\\" table\\nsee wiki — é 😀\\u0001\",\"storage_path\":\"s3://lake/managed/orders\",\"properties\":{\"commit_version\":\"12\",\"format\":\"DELTA\",\"schema\":\"{\\\"fields\\\":[{\\\"name\\\":\\\"flag\\\",\\\"data_type\\\":\\\"Bool\\\",\\\"nullable\\\":true},{\\\"name\\\":\\\"id\\\",\\\"data_type\\\":\\\"Int\\\",\\\"nullable\\\":false},{\\\"name\\\":\\\"score\\\",\\\"data_type\\\":\\\"Float\\\",\\\"nullable\\\":true},{\\\"name\\\":\\\"note\\\",\\\"data_type\\\":\\\"Str\\\",\\\"nullable\\\":true}]}\",\"table_type\":\"MANAGED\"},\"grants\":[[\"analysts\",\"Select\"],[\"bob\",\"Modify\"]],\"governance\":{\"admins\":[\"admin\",\"ops team\"],\"workspace_bindings\":[\"ws-1\"],\"tags\":{\"domain\":\"finance\",\"pii\":\"high\"},\"column_tags\":{\"note\":{\"pii\":\"free \\\"text\\\"\"}},\"fgac\":{\"row_filter\":{\"expr\":{\"And\":[{\"Cmp\":{\"op\":\"Gt\",\"lhs\":{\"Column\":\"id\"},\"rhs\":{\"Literal\":{\"t\":\"Int\",\"v\":0}}}},{\"IsAccountGroupMember\":\"analysts\"}]}},\"column_masks\":[{\"column\":\"score\",\"mask\":{\"Literal\":{\"t\":\"Null\"}},\"exempt_when\":{\"Not\":{\"IsNull\":\"CurrentUser\"}}}]},\"abac\":{\"mask-pii\":{\"name\":\"mask-pii\",\"tag_key\":\"pii\",\"tag_value\":null,\"effect\":{\"MaskColumns\":{\"mask\":{\"Literal\":{\"t\":\"Str\",\"v\":\"REDACTED\"}},\"exempt_groups\":[\"privacy\"]}}},\"restrict\":{\"name\":\"restrict\",\"tag_key\":\"domain\",\"tag_value\":\"finance\",\"effect\":{\"RestrictAccess\":{\"allowed_groups\":[\"finance\"]}}}}},\"state\":\"Active\",\"created_at_ms\":1700000000003,\"updated_at_ms\":1700000000006}"),
    ("entity View", "{\"id\":\"00000000000000000000000000000005\",\"kind\":\"View\",\"name\":\"view\",\"parent\":\"00000000000000000000000000000004\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000004,\"updated_at_ms\":1700000000008}"),
    ("entity Volume", "{\"id\":\"00000000000000000000000000000006\",\"kind\":\"Volume\",\"name\":\"volume\",\"parent\":\"00000000000000000000000000000005\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000005,\"updated_at_ms\":1700000000010}"),
    ("entity Function", "{\"id\":\"00000000000000000000000000000007\",\"kind\":\"Function\",\"name\":\"function\",\"parent\":\"00000000000000000000000000000006\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000006,\"updated_at_ms\":1700000000012}"),
    ("entity RegisteredModel", "{\"id\":\"00000000000000000000000000000008\",\"kind\":\"RegisteredModel\",\"name\":\"registeredmodel\",\"parent\":\"00000000000000000000000000000007\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000007,\"updated_at_ms\":1700000000014}"),
    ("entity ModelVersion", "{\"id\":\"00000000000000000000000000000009\",\"kind\":\"ModelVersion\",\"name\":\"modelversion\",\"parent\":\"00000000000000000000000000000008\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000008,\"updated_at_ms\":1700000000016}"),
    ("entity StorageCredential", "{\"id\":\"0000000000000000000000000000000a\",\"kind\":\"StorageCredential\",\"name\":\"storagecredential\",\"parent\":\"00000000000000000000000000000009\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000009,\"updated_at_ms\":1700000000018}"),
    ("entity ExternalLocation", "{\"id\":\"0000000000000000000000000000000b\",\"kind\":\"ExternalLocation\",\"name\":\"externallocation\",\"parent\":\"0000000000000000000000000000000a\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000010,\"updated_at_ms\":1700000000020}"),
    ("entity Connection", "{\"id\":\"0000000000000000000000000000000c\",\"kind\":\"Connection\",\"name\":\"connection\",\"parent\":\"0000000000000000000000000000000b\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000011,\"updated_at_ms\":1700000000022}"),
    ("entity Share", "{\"id\":\"0000000000000000000000000000000d\",\"kind\":\"Share\",\"name\":\"share\",\"parent\":\"0000000000000000000000000000000c\",\"metastore\":\"00000000000000000000000000000001\",\"owner\":\"admin\",\"comment\":null,\"storage_path\":null,\"properties\":{},\"grants\":[],\"governance\":null,\"state\":\"Active\",\"created_at_ms\":1700000000012,\"updated_at_ms\":1700000000024}"),
    ("feed row", "1700000000123;8:ms\0cat;a4:ms:b;11:s3://lake/x;32:00000000000000000000000000000004\"Table\";6:orders\"GrantChange\";;"),
    ("action protocol", "{\"action\":\"protocol\",\"min_reader_version\":1,\"min_writer_version\":2}\n"),
    ("action metaData", "{\"action\":\"metaData\",\"id\":\"table-1\",\"schema\":{\"fields\":[{\"name\":\"flag\",\"data_type\":\"Bool\",\"nullable\":true},{\"name\":\"id\",\"data_type\":\"Int\",\"nullable\":false},{\"name\":\"score\",\"data_type\":\"Float\",\"nullable\":true},{\"name\":\"note\",\"data_type\":\"Str\",\"nullable\":true}]},\"partition_columns\":[\"flag\"],\"configuration\":{\"delta.appendOnly\":\"true\"}}\n"),
    ("action add", "{\"action\":\"add\",\"path\":\"part-0001.json\",\"size_bytes\":4096,\"num_records\":2,\"stats\":{\"id\":{\"min\":{\"t\":\"Int\",\"v\":-3},\"max\":{\"t\":\"Float\",\"v\":2.5},\"null_count\":1},\"note\":{\"min\":null,\"max\":null,\"null_count\":0}},\"modification_time_ms\":1700000000456}\n"),
    ("action remove", "{\"action\":\"remove\",\"path\":\"part-0000.json\",\"deletion_timestamp_ms\":1700000000789}\n"),
    ("action commitInfo", "{\"action\":\"commitInfo\",\"operation\":\"WRITE\",\"principal\":\"alice\",\"engine\":null,\"timestamp_ms\":1700000000999}\n"),
    ("data file", "{\"rows\":[[{\"t\":\"Bool\",\"v\":true},{\"t\":\"Int\",\"v\":-9223372036854775808},{\"t\":\"Float\",\"v\":-0.125},{\"t\":\"Str\",\"v\":\"a \\\"b\\\"\\n\"}],[{\"t\":\"Null\"},{\"t\":\"Int\",\"v\":7},{\"t\":\"Null\"},{\"t\":\"Null\"}]]}"),
];

#[test]
fn rows_encode_to_the_golden_text_and_golden_text_decodes_back() {
    let items = corpus();
    let mut now = String::new();
    for (name, bytes, _) in &items {
        let text = std::str::from_utf8(bytes).unwrap();
        now.push_str(&format!("    ({name:?}, {text:?}),\n"));
    }
    let names: Vec<&str> = items.iter().map(|(name, _, _)| name.as_str()).collect();
    let golden_names: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, golden_names, "the corpus changed; it now encodes to:\n{now}");
    for ((name, bytes, decodes_back), (_, golden)) in items.iter().zip(GOLDEN) {
        assert_eq!(
            std::str::from_utf8(bytes).unwrap(),
            *golden,
            "{name} no longer encodes to its golden text"
        );
        assert!(decodes_back(golden.as_bytes()), "{name}: the golden text does not decode back to its value");
    }
}

// ---------------------------------------------------------------------------
// Both codec paths agree
// ---------------------------------------------------------------------------

/// Random model values, biased toward the edges of the format.
struct Gen(StdRng);

impl Gen {
    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.0.gen_range(0..from.len())].clone()
    }

    fn coin(&mut self) -> bool {
        self.0.gen_bool(0.5)
    }

    /// Strings with quotes, backslashes, control characters and
    /// multi-byte characters among plain ones.
    fn text(&mut self) -> String {
        const CHARS: [char; 14] =
            ['a', 'b', 'z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', '😀', '\u{7f}'];
        let len = self.0.gen_range(0..10);
        (0..len).map(|_| self.pick(&CHARS)).collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.coin().then(|| f(self))
    }

    fn list<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.0.gen_range(0..4);
        (0..len).map(|_| f(self)).collect()
    }

    fn map<V>(&mut self, mut f: impl FnMut(&mut Self) -> V) -> BTreeMap<String, V> {
        let len = self.0.gen_range(0..4);
        (0..len).map(|_| (self.text(), f(self))).collect()
    }

    fn u64(&mut self) -> u64 {
        let n = self.0.gen_range(0..u64::MAX);
        self.pick(&[0, 1, 42, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX, n])
    }

    fn u32(&mut self) -> u32 {
        let n = self.0.gen_range(0..u32::MAX);
        self.pick(&[0, 1, u32::MAX, n])
    }

    fn i64(&mut self) -> i64 {
        let n = self.0.gen_range(i64::MIN..i64::MAX);
        self.pick(&[0, -1, 1, i64::MIN, i64::MAX, n])
    }

    fn f64(&mut self) -> f64 {
        let n = self.0.gen_range(-1e6..1e6);
        self.pick(&[0.0, -0.0, 1.5, -2.25e-7, 1e300, f64::MAX, n])
    }

    fn uid(&mut self) -> Uid {
        Uid::from(self.text().as_str())
    }

    fn value(&mut self) -> Value {
        match self.0.gen_range(0..5) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Int(self.i64()),
            3 => Value::Float(self.f64()),
            _ => Value::Str(self.text()),
        }
    }

    fn expr(&mut self, depth: usize) -> Expr {
        let leaf = depth == 0 || self.coin();
        let b = |g: &mut Self| Box::new(g.expr(depth - 1));
        match self.0.gen_range(0..if leaf { 4 } else { 9 }) {
            0 => Expr::Column(self.text()),
            1 => Expr::Literal(self.value()),
            2 => Expr::CurrentUser,
            3 => Expr::IsAccountGroupMember(self.text()),
            4 => Expr::Cmp {
                op: self.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]),
                lhs: b(self),
                rhs: b(self),
            },
            5 => Expr::And(b(self), b(self)),
            6 => Expr::Or(b(self), b(self)),
            7 => Expr::Not(b(self)),
            _ => Expr::IsNull(b(self)),
        }
    }

    fn schema(&mut self) -> Schema {
        let types = [DataType::Bool, DataType::Int, DataType::Float, DataType::Str];
        Schema::new(self.list(|g| Field { name: g.text(), data_type: g.pick(&types), nullable: g.coin() }))
    }

    fn fgac(&mut self) -> FgacPolicies {
        FgacPolicies {
            row_filter: self.opt(|g| RowFilterPolicy { expr: g.expr(2) }),
            column_masks: self.list(|g| ColumnMaskPolicy {
                column: g.text(),
                mask: g.expr(1),
                exempt_when: g.opt(|g| g.expr(1)),
            }),
        }
    }

    fn abac(&mut self) -> AbacPolicy {
        let effect = if self.coin() {
            AbacEffect::MaskColumns { mask: self.expr(1), exempt_groups: self.list(Self::text) }
        } else {
            AbacEffect::RestrictAccess { allowed_groups: self.list(Self::text) }
        };
        AbacPolicy { name: self.text(), tag_key: self.text(), tag_value: self.opt(Self::text), effect }
    }

    fn governance(&mut self) -> Governance {
        Governance {
            admins: self.list(Self::text),
            workspace_bindings: self.list(Self::text),
            tags: self.map(Self::text),
            column_tags: self.map(|g| g.map(Self::text)),
            fgac: self.fgac(),
            abac: self.map(Self::abac),
        }
    }

    fn kind(&mut self) -> SecurableKind {
        self.pick(&KINDS)
    }

    fn change_op(&mut self) -> ChangeOp {
        use ChangeOp::*;
        self.pick(&[Create, Update, Delete, GrantChange, TagChange, Commit, LineageAdd])
    }

    fn entity(&mut self) -> Entity {
        let privileges = [
            Privilege::UseCatalog,
            Privilege::Select,
            Privilege::Modify,
            Privilege::CreateTable,
            Privilege::All,
        ];
        let mut properties = self.map(Self::text);
        if self.coin() {
            let schema = self.schema();
            properties.insert("schema".into(), serde_json::to_string(&schema).unwrap());
        }
        Entity {
            id: self.uid(),
            kind: self.kind(),
            name: self.text(),
            parent: self.opt(Self::uid),
            metastore: self.uid(),
            owner: self.text(),
            comment: self.opt(Self::text),
            storage_path: self.opt(Self::text),
            properties,
            grants: self.list(|g| (g.text(), g.pick(&privileges))),
            governance: self.opt(|g| Box::new(g.governance())),
            state: self.pick(&[
                LifecycleState::Provisioning,
                LifecycleState::Active,
                LifecycleState::SoftDeleted,
            ]),
            created_at_ms: self.u64(),
            updated_at_ms: self.u64(),
        }
    }

    fn stats(&mut self) -> ColumnStats {
        ColumnStats { min: self.opt(Self::value), max: self.opt(Self::value), null_count: self.u64() }
    }

    fn action(&mut self) -> Action {
        match self.0.gen_range(0..5) {
            0 => {
                Action::Protocol(Protocol { min_reader_version: self.u32(), min_writer_version: self.u32() })
            }
            1 => Action::MetaData(MetaData {
                id: self.text(),
                schema: self.schema(),
                partition_columns: self.list(Self::text),
                configuration: self.map(Self::text),
            }),
            2 => Action::Add(AddFile {
                path: self.text(),
                size_bytes: self.u64(),
                num_records: self.u64(),
                stats: self.map(Self::stats),
                modification_time_ms: self.u64(),
            }),
            3 => Action::Remove(RemoveFile { path: self.text(), deletion_timestamp_ms: self.u64() }),
            _ => Action::CommitInfo(CommitInfo {
                operation: self.text(),
                principal: self.opt(Self::text),
                engine: self.opt(Self::text),
                timestamp_ms: self.u64(),
            }),
        }
    }

    fn data_file(&mut self) -> DataFile {
        DataFile { rows: self.list(|g| g.list(Self::value)) }
    }

    fn share_member(&mut self) -> ShareMember {
        ShareMember { table_id: self.text(), alias: self.text() }
    }

    /// A JSON value of any shape, to splice into a tree.
    fn json(&mut self) -> Json {
        match self.0.gen_range(0..8) {
            0 => Json::Null,
            1 => Json::Bool(self.coin()),
            2 => Json::Number(Number::U64(self.u64())),
            3 => Json::Number(Number::I64(self.i64())),
            4 => Json::Number(Number::F64(self.f64())),
            5 => Json::String(self.text()),
            6 => Json::Array(Vec::new()),
            _ => Json::Object(Vec::new()),
        }
    }

    /// Mutate one node of a tree: drop, repeat, add or retype an object
    /// member or an array element, or replace a scalar.
    fn mutate_tree(&mut self, node: &mut Json) {
        let descend = self.0.gen_bool(0.6);
        match node {
            Json::Object(members) if descend && !members.is_empty() => {
                let i = self.0.gen_range(0..members.len());
                self.mutate_tree(&mut members[i].1);
            }
            Json::Array(items) if descend && !items.is_empty() => {
                let i = self.0.gen_range(0..items.len());
                self.mutate_tree(&mut items[i]);
            }
            Json::Object(members) if !members.is_empty() => {
                let i = self.0.gen_range(0..members.len());
                match self.0.gen_range(0..4) {
                    0 => drop(members.remove(i)),
                    1 => {
                        let repeat = (members[i].0.clone(), self.json());
                        members.push(repeat);
                    }
                    2 => members[i].1 = self.json(),
                    _ => {
                        let unknown = ("zz_unknown".to_string(), self.json());
                        members.insert(i, unknown);
                    }
                }
            }
            Json::Array(items) if !items.is_empty() => {
                let i = self.0.gen_range(0..items.len());
                match self.0.gen_range(0..3) {
                    0 => drop(items.remove(i)),
                    1 => items.insert(i, items[i].clone()),
                    _ => items[i] = self.json(),
                }
            }
            other => *other = self.json(),
        }
    }

    /// Replace, delete or insert one byte, or repeat a run.
    fn mutate_bytes(&mut self, text: &mut Vec<u8>) {
        const BYTES: &[u8] = b"\"\\0123456789.-+eE,:{}[] ntfu\x01\n\xc3\xff";
        if text.is_empty() {
            text.push(self.pick(BYTES));
            return;
        }
        let i = self.0.gen_range(0..text.len());
        match self.0.gen_range(0..4) {
            0 => text[i] = self.pick(BYTES),
            1 => drop(text.remove(i)),
            2 => text.insert(i, self.pick(BYTES)),
            _ => {
                let end = self.0.gen_range(i..text.len().min(i + 24) + 1);
                let run = text[i..end].to_vec();
                text.splice(i..i, run);
            }
        }
    }
}

/// Tallies of the texts read through both paths.
#[derive(Default)]
struct Tally {
    ok: usize,
    err: usize,
}

/// Read `text` as a `T` through both paths; they must return the same
/// value or both refuse it.
fn agree<T: for<'de> Deserialize<'de> + Debug>(what: &str, text: &[u8], tally: &mut Tally) -> bool {
    let direct = serde_json::from_slice::<T>(text);
    let tree = serde_json::from_slice::<Json>(text).and_then(serde_json::from_value::<T>);
    match (direct, tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{what}: the paths read {:?} differently",
                String::from_utf8_lossy(text)
            );
            tally.ok += 1;
            true
        }
        (Err(_), Err(_)) => {
            tally.err += 1;
            false
        }
        (direct, tree) => panic!(
            "{what}: the paths disagree on {:?}: direct {:?}, tree {:?}",
            String::from_utf8_lossy(text),
            direct.map(|_| "ok").map_err(|e| e.to_string()),
            tree.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
}

/// `ROUNDS` values of a type: each prints the same through both paths
/// and reads back; then tree-mutated and byte-mutated texts of it.
fn differential<T: Serialize + for<'de> Deserialize<'de> + Debug>(
    what: &str,
    seed: u64,
    mut make: impl FnMut(&mut Gen) -> T,
) {
    const ROUNDS: usize = 150;
    const MUTANTS: usize = 6;
    let mut g = Gen(StdRng::seed_from_u64(seed));
    let mut tally = Tally::default();
    for _ in 0..ROUNDS {
        let value = make(&mut g);
        let text = serde_json::to_string(&value).unwrap();
        let tree = serde_json::to_value(&value).unwrap();
        assert_eq!(
            text,
            serde_json::to_string(&tree).unwrap(),
            "{what}: the direct printer differs from the tree's"
        );
        assert!(agree::<T>(what, text.as_bytes(), &mut tally), "{what}: {text} does not read back");
        for _ in 0..MUTANTS {
            let mut mutant = tree.clone();
            g.mutate_tree(&mut mutant);
            agree::<T>(what, serde_json::to_string(&mutant).unwrap().as_bytes(), &mut tally);
            let mut bytes = text.clone().into_bytes();
            for _ in 0..g.0.gen_range(1..3) {
                g.mutate_bytes(&mut bytes);
            }
            agree::<T>(what, &bytes, &mut tally);
        }
    }
    println!("{what}: {} texts read, {} refused by both paths", tally.ok, tally.err);
    assert!(tally.ok > ROUNDS && tally.err > ROUNDS, "{what}: mutants must both pass and fail");
}

#[test]
fn direct_and_tree_paths_agree_on_every_model_type() {
    differential("Entity", 1, Gen::entity);
    differential("Governance", 2, Gen::governance);
    differential("FgacPolicies", 3, Gen::fgac);
    differential("AbacPolicy", 4, Gen::abac);
    differential("SecurableKind", 5, Gen::kind);
    differential("ChangeOp", 6, Gen::change_op);
    differential("Action", 7, Gen::action);
    differential("DataFile", 8, Gen::data_file);
    differential("Schema", 9, Gen::schema);
    differential("ShareMember", 10, Gen::share_member);
}

#[test]
fn feed_rows_round_trip() {
    let mut g = Gen(StdRng::seed_from_u64(11));
    for _ in 0..200 {
        let row = FeedRow {
            at_ms: g.u64(),
            tree: g.list(Gen::text),
            path: g.list(Gen::text),
            events: g.list(|g| FeedEvent { id: g.uid(), kind: g.kind(), name: g.text(), op: g.change_op() }),
        };
        assert_eq!(FeedRow::decode(&row.encode()).unwrap(), row);
    }
}

/// Text the strict grammar refuses, spliced into a valid entity row: both
/// paths refuse it, in a field the struct reads and in one it skips.
#[test]
fn both_paths_refuse_what_the_strict_grammar_refuses() {
    let row = String::from_utf8(golden_entities()[3].encode().to_vec()).unwrap();
    let splice = |after: &str, insert: &str| {
        let at = row.find(after).unwrap() + after.len();
        format!("{}{insert}{}", &row[..at], &row[at..])
    };
    let numbers = ["01", "00", "-01", "1.", "1.e5"];
    let mut texts: Vec<String> = Vec::new();
    for bad in numbers {
        texts.push(row.replacen("\"created_at_ms\":1700000000003", &format!("\"created_at_ms\":{bad}"), 1));
        texts.push(splice("{", &format!("\"zz_unknown\":{bad},")));
        texts.push(splice("{", &format!("\"zz_unknown\":[{{\"a\":{bad}}}],")));
    }
    texts.push(splice("\"name\":\"", "a\nb"));
    texts.push(splice("\"name\":\"", "\u{0}"));
    texts.push(splice("{", "\"zz_unknown\":\"\u{1f}\","));
    texts.push(splice("\"owner\":\"", "\\x"));
    texts.push(format!("{row} x"));
    let mut tally = Tally::default();
    for text in &texts {
        assert_ne!(text, &row);
        assert!(!agree::<Entity>("Entity", text.as_bytes(), &mut tally), "accepted {text:?}");
    }
}
