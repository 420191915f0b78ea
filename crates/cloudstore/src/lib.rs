//! Simulated multi-cloud object storage with STS-style temporary credentials.
//!
//! This crate is the substrate that stands in for Amazon S3 / Azure ADLS /
//! Google Cloud Storage in the Unity Catalog reproduction. It provides:
//!
//! * [`StoragePath`] — `scheme://bucket/key` paths with prefix semantics,
//!   the vocabulary of the catalog's *one-asset-per-path* principle.
//! * [`ObjectStore`] — an in-memory bucket/object store with `put`, `get`,
//!   `put_if_absent` (the atomic primitive Delta-style commit logs need),
//!   prefix listing, and deletes. Every operation is authenticated with a
//!   [`Credential`] and authorization is enforced *at the storage layer*,
//!   exactly as a cloud provider would enforce an STS token's scope.
//! * [`StsService`] — mints signed, down-scoped, expiring temporary
//!   credentials from a root credential. Unity Catalog's credential-vending
//!   API is a client of this service.
//! * [`Clock`] — injectable time source so token expiry is testable.
//! * [`LatencyModel`] — per-operation injected latency so benchmarks can
//!   model a remote object store.
//! * [`FaultPlan`] — seeded, deterministic fault injection shared across
//!   the storage, database, and catalog layers for replayable chaos tests.
//! * [`Scheduler`] — seeded cooperative scheduling of multi-client
//!   workloads through named yield points, extending FaultPlan determinism
//!   from "when ops fail" to "in what order ops run".
//!
//! Authorization model: each bucket is registered with a *root credential*
//! (held only by the catalog service in the full system). Clients never see
//! root credentials; they receive [`TempCredential`]s whose scope is a path
//! prefix plus an [`AccessLevel`], signed by the STS service. The store
//! verifies signature, expiry, scope, and access level on every call.

pub mod clock;
pub mod credentials;
pub mod error;
pub mod faults;
pub mod latency;
mod opcount;
pub mod path;
pub mod sched;
pub mod seed;
pub mod store;

pub use clock::Clock;
pub use credentials::{AccessLevel, Credential, RootCredential, StsService, TempCredential};
pub use error::{StorageError, StorageResult};
pub use faults::{FaultEvent, FaultMode, FaultPlan};
pub use latency::{LatencyModel, OpClass};
pub use path::StoragePath;
pub use sched::{SchedMode, Scheduler};
pub use store::{ObjectMeta, ObjectStore};
