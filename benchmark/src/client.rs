//! One closed-loop client: issues a generated op through the program's
//! front door and checks the reply against the generator's expectation.
//!
//! The front door for metadata ops is `RestApi::handle` (JSON in, JSON
//! out); SQL goes through a trusted `EngineSession`, as a query engine
//! would submit it.

use serde_json::Value as Json;
use uc_catalog::service::rest::{ApiError, RequestAuth, RestApi};
use uc_catalog::{UcError, Uid};
use uc_delta::value::Value;
use uc_engine::{Engine, EngineConfig, EngineError, EngineSession, QueryResult};

use crate::gen::{self, Call, Expect, Op};
use crate::world::{World, ENGINE_NAME};

pub enum Reply {
    Sql(Result<QueryResult, EngineError>),
    Rest(Result<Json, ApiError>),
    Purged(Result<(usize, usize), UcError>),
}

impl Reply {
    /// One line for the log when a reply is not what was expected.
    pub fn describe(&self, op: &Op) -> String {
        let got = match self {
            Reply::Sql(Ok(r)) => format!("{} rows", r.rows.len()),
            Reply::Sql(Err(e)) => e.to_string(),
            Reply::Rest(Ok(json)) => serde_json::to_string(json).unwrap_or_default(),
            Reply::Rest(Err(e)) => format!("{} {}", e.status, e.message),
            Reply::Purged(r) => format!("{r:?}"),
        };
        let got: String = got.chars().take(240).collect();
        format!(
            "{:?} as {} expected {:?}, got {got}",
            op.call,
            gen::principal_name(op.principal),
            op.expect
        )
    }
}

pub struct Client<'w> {
    world: &'w World,
    /// This client's metastores: one, or one per round on write_mix.
    metastores: &'w [Uid],
    rest: RestApi,
    auths: Vec<RequestAuth>,
    /// One session per principal (query_hot only).
    sessions: Vec<EngineSession>,
    /// write_mix: `(id, storage path)` of the entity this lifecycle created.
    created: Option<(String, String)>,
}

impl<'w> Client<'w> {
    pub fn new(world: &'w World, client: usize) -> Client<'w> {
        let metastores = world.metastores_of(client);
        let names: Vec<String> = (0..=gen::ADMIN).map(gen::principal_name).collect();
        let sessions = if world.workload == gen::Workload::QueryHot {
            let engine = Engine::new(
                world.uc.clone(),
                metastores[0].clone(),
                EngineConfig::trusted(ENGINE_NAME),
            );
            names.iter().map(|p| engine.session(p)).collect()
        } else {
            Vec::new()
        };
        Client {
            world,
            rest: RestApi::new(world.uc.clone()),
            auths: names.iter().map(|p| RequestAuth::user(p)).collect(),
            sessions,
            metastores,
            created: None,
        }
    }

    /// The metastore `op` addresses.
    pub fn ms(&self, op: &Op) -> &'w Uid {
        &self.metastores[op.ms as usize]
    }

    pub fn rest(&self) -> &RestApi {
        &self.rest
    }

    pub fn auth(&self, principal: u8) -> &RequestAuth {
        &self.auths[principal as usize]
    }

    #[inline]
    pub fn call(&mut self, op: &Op) -> Reply {
        match &op.call {
            Call::Sql(sql) => Reply::Sql(self.sessions[op.principal as usize].execute(sql)),
            Call::Rest { method, params } => Reply::Rest(self.rest.handle(
                &self.auths[op.principal as usize],
                self.ms(op),
                method,
                params,
            )),
            Call::Purge => Reply::Purged(self.world.uc.purge_soft_deleted(self.ms(op))),
        }
    }

    /// Whether `reply` is what the generator said this op must produce.
    /// An expected refusal (403/404) is a success; anything unexpected —
    /// an error, a wrong row count, a wrong id or scope — is a failure.
    pub fn check(&mut self, op: &Op, reply: &Reply) -> bool {
        match (&op.expect, reply) {
            (
                Expect::Status(403),
                Reply::Sql(Err(EngineError::Catalog(UcError::PermissionDenied(_)))),
            ) => true,
            (Expect::Status(want), Reply::Rest(Err(e))) => e.status == *want,
            (Expect::Rows { n, masked }, Reply::Sql(Ok(result))) => {
                result.rows.len() == *n as usize
                    && result.columns.len() == 3
                    && (!masked
                        || result
                            .rows
                            .iter()
                            .all(|r| r[2] == Value::Int(gen::MASKED_AMOUNT)))
            }
            (Expect::Done, Reply::Purged(Ok(_))) => true,
            (expect, Reply::Rest(Ok(json))) => self.check_json(expect, json),
            _ => false,
        }
    }

    fn is_static_table(&self, json: &Json, t: u32) -> bool {
        json["id"].as_str() == Some(self.world.ids[t as usize].as_str())
            && json["name"].as_str() == Some(gen::table_leaf(t as usize).as_str())
    }

    fn check_json(&mut self, expect: &Expect, json: &Json) -> bool {
        match expect {
            Expect::Table(t) => self.is_static_table(json, *t),
            Expect::Resolved { tables, creds } => {
                json["securables"].as_array().is_some_and(|list| {
                    list.len() == tables.len()
                        && list.iter().zip(tables).all(|(s, t)| {
                            self.is_static_table(&s["entity"], *t)
                                && s["has_credential"].as_bool() == Some(*creds)
                        })
                })
            }
            Expect::Scope(t) => {
                json["scope"].as_str() == Some(self.world.paths[*t as usize].as_str())
                    && json["access"].as_str() == Some("READ")
            }
            Expect::GroupGrant(privilege) => json["grants"].as_array().is_some_and(|grants| {
                grants.iter().any(|g| {
                    g["grantee"].as_str() == Some(gen::GROUP)
                        && g["privilege"].as_str() == Some(privilege)
                })
            }),
            Expect::Listed(n) => json["tables"]
                .as_array()
                .is_some_and(|l| l.len() == *n as usize),
            Expect::Created(leaf) => {
                let (Some(id), Some(path)) = (json["id"].as_str(), json["storage_path"].as_str())
                else {
                    return false;
                };
                self.created = Some((id.to_string(), path.to_string()));
                json["name"].as_str() == Some(leaf.as_str())
                    && json["kind"].as_str() == Some("TABLE")
            }
            Expect::Mine { grantee } => {
                let who = gen::principal_name(*grantee);
                self.created
                    .as_ref()
                    .is_some_and(|(id, _)| json["id"].as_str() == Some(id.as_str()))
                    && json["grants"].as_array().is_some_and(|grants| {
                        grants
                            .iter()
                            .any(|g| g["grantee"].as_str() == Some(who.as_str()))
                    })
            }
            Expect::MyScope => {
                self.created
                    .as_ref()
                    .is_some_and(|(_, path)| json["scope"].as_str() == Some(path.as_str()))
                    && json["access"].as_str() == Some("READ_WRITE")
            }
            Expect::Done => {
                json["ok"].as_bool() == Some(true) || json["dropped"].as_u64() == Some(1)
            }
            Expect::Rows { .. } | Expect::Status(_) => false,
        }
    }
}
