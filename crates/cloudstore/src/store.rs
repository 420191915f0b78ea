//! The in-memory object store with storage-layer authorization.
//!
//! Every operation takes a [`Credential`]; the store verifies it the way a
//! cloud provider would — root credentials get whole-bucket access, temp
//! tokens are checked for signature, expiry, scope prefix, and access
//! level. This is what makes "clients only ever hold down-scoped tokens"
//! an enforced property rather than a convention.

use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::RwLock;
use uc_obs::Obs;

use crate::credentials::{AccessLevel, Credential, RootCredential, StsService, TempCredential};
use crate::error::{StorageError, StorageResult};
use crate::faults::{points, FaultPlan};
use crate::latency::{LatencyModel, OpClass};
use crate::opcount::OpCounters;
use crate::path::StoragePath;

/// Metadata about a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    pub path: StoragePath,
    pub size: usize,
    pub created_at_ms: u64,
}

#[derive(Debug, Clone)]
struct StoredObject {
    data: Bytes,
    created_at_ms: u64,
}

#[derive(Default)]
struct Bucket {
    /// Root secrets allowed to administer this bucket.
    roots: Vec<u64>,
    /// Objects keyed by their in-bucket key.
    objects: BTreeMap<String, StoredObject>,
}

/// The `store.<op>.{count,errors}` handles of every operation.
struct StoreOps {
    put: OpCounters,
    put_if_absent: OpCounters,
    get: OpCounters,
    delete: OpCounters,
    list: OpCounters,
}

impl StoreOps {
    fn new() -> Arc<Self> {
        Arc::new(StoreOps {
            put: OpCounters::new("store.put.count", "store.put.errors"),
            put_if_absent: OpCounters::new(
                "store.put_if_absent.count",
                "store.put_if_absent.errors",
            ),
            get: OpCounters::new("store.get.count", "store.get.errors"),
            delete: OpCounters::new("store.delete.count", "store.delete.errors"),
            list: OpCounters::new("store.list.count", "store.list.errors"),
        })
    }
}

/// A shareable in-memory object store.
///
/// Cloning shares the underlying storage (`Arc` inside), mirroring how many
/// engines talk to the same cloud store.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<RwLock<BTreeMap<String, Bucket>>>,
    sts: StsService,
    latency: LatencyModel,
    faults: FaultPlan,
    obs: Obs,
    ops: Arc<StoreOps>,
    /// Node-local state of the one client library that keeps any (see
    /// [`ObjectStore::local`]); shared by every clone of this handle.
    local: Arc<OnceLock<Arc<dyn Any + Send + Sync>>>,
}

impl ObjectStore {
    /// New store verifying tokens against `sts`, with injected `latency`.
    pub fn new(sts: StsService, latency: LatencyModel) -> Self {
        ObjectStore::with_faults(sts, latency, FaultPlan::disabled())
    }

    /// New store with a fault plan for chaos tests. Storage-operation
    /// faults fire *after* authorization: they model the backend failing,
    /// not the credential check.
    pub fn with_faults(sts: StsService, latency: LatencyModel, faults: FaultPlan) -> Self {
        ObjectStore {
            inner: Arc::new(RwLock::new(BTreeMap::new())),
            sts,
            latency,
            faults,
            obs: Obs::disabled(),
            ops: StoreOps::new(),
            local: Arc::new(OnceLock::new()),
        }
    }

    /// Attach an observability handle; per-op spans and `store.*` metrics
    /// are recorded into it. Composes with the other constructors.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.ops = StoreOps::new();
        self
    }

    /// The node-local state a client library keeps for this store — what a
    /// process holds in memory about the objects behind one endpoint, such
    /// as a cache of what it has already read. Every clone of the handle
    /// returns the same `Arc<T>`; `init` runs for the first caller only.
    /// The store never looks inside it. One library owns the slot: asking
    /// for a second type is a bug in the program and panics.
    #[expect(clippy::panic, reason = "a second node-local type is a programming error, not an input")]
    pub fn local<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        let slot = self.local.get_or_init(|| Arc::new(init()));
        Arc::clone(slot)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("ObjectStore::local holds another type"))
    }

    /// The observability handle storage operations record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The fault plan consulted by storage operations.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Wrap a storage operation in a `store.<op>` span plus count/error
    /// counters. Injected faults inside `f` attach their events to this
    /// span (or to an enclosing catalog request span, same trace).
    fn instrument<T>(
        &self,
        op: &str,
        counters: &OpCounters,
        f: impl FnOnce() -> StorageResult<T>,
    ) -> StorageResult<T> {
        let mut span = self.obs.span("store", op);
        counters.count(&self.obs).inc();
        let result = f();
        if result.is_err() {
            counters.errors(&self.obs).inc();
            span.set_status("error");
        }
        result
    }

    /// Convenience constructor for tests: manual clock at 0, no latency.
    pub fn in_memory() -> Self {
        ObjectStore::new(StsService::new(crate::clock::Clock::manual(0)), LatencyModel::zero())
    }

    /// The STS service this store trusts.
    pub fn sts(&self) -> &StsService {
        &self.sts
    }

    /// Create a bucket and return its root credential.
    pub fn create_bucket(&self, name: &str) -> RootCredential {
        let root = self.sts.issue_root(name);
        let mut guard = self.inner.write();
        let bucket = guard.entry(name.to_string()).or_default();
        bucket.roots.push(root.secret);
        root
    }

    /// Store an object, overwriting any existing one.
    pub fn put(&self, cred: &Credential, path: &StoragePath, data: Bytes) -> StorageResult<()> {
        self.instrument("put", &self.ops.put, || {
            self.latency.apply(OpClass::Write);
            self.authorize(cred, path, AccessLevel::ReadWrite)?;
            if self.faults.should_inject(points::STORE_PUT) {
                return Err(StorageError::Unavailable(format!("injected fault: put {path}")));
            }
            let now = self.sts.clock().now_ms();
            let mut guard = self.inner.write();
            let bucket = guard
                .get_mut(path.bucket())
                .ok_or_else(|| StorageError::NoSuchBucket(path.bucket().to_string()))?;
            bucket
                .objects
                .insert(path.key().to_string(), StoredObject { data, created_at_ms: now });
            Ok(())
        })
    }

    /// Store an object only if the key is vacant — the atomic primitive a
    /// Delta-style log uses for optimistic commits.
    pub fn put_if_absent(
        &self,
        cred: &Credential,
        path: &StoragePath,
        data: Bytes,
    ) -> StorageResult<()> {
        self.instrument("put_if_absent", &self.ops.put_if_absent, || {
            self.latency.apply(OpClass::Write);
            self.authorize(cred, path, AccessLevel::ReadWrite)?;
            if self.faults.should_inject(points::STORE_PUT_IF_ABSENT) {
                return Err(StorageError::Unavailable(format!(
                    "injected fault: put_if_absent {path}"
                )));
            }
            let now = self.sts.clock().now_ms();
            let mut guard = self.inner.write();
            let bucket = guard
                .get_mut(path.bucket())
                .ok_or_else(|| StorageError::NoSuchBucket(path.bucket().to_string()))?;
            if bucket.objects.contains_key(path.key()) {
                return Err(StorageError::AlreadyExists(path.to_string()));
            }
            bucket
                .objects
                .insert(path.key().to_string(), StoredObject { data, created_at_ms: now });
            Ok(())
        })
    }

    /// Fetch an object's contents.
    pub fn get(&self, cred: &Credential, path: &StoragePath) -> StorageResult<Bytes> {
        self.instrument("get", &self.ops.get, || {
            self.latency.apply(OpClass::Read);
            self.authorize(cred, path, AccessLevel::Read)?;
            if self.faults.should_inject(points::STORE_GET) {
                return Err(StorageError::Unavailable(format!("injected fault: get {path}")));
            }
            let guard = self.inner.read();
            let bucket = guard
                .get(path.bucket())
                .ok_or_else(|| StorageError::NoSuchBucket(path.bucket().to_string()))?;
            bucket
                .objects
                .get(path.key())
                .map(|o| o.data.clone())
                .ok_or_else(|| StorageError::NoSuchObject(path.to_string()))
        })
    }

    /// Delete an object. Deleting a missing object is an error, matching
    /// the strictest provider semantics (callers that want idempotent
    /// deletes can ignore `NoSuchObject`).
    pub fn delete(&self, cred: &Credential, path: &StoragePath) -> StorageResult<()> {
        self.instrument("delete", &self.ops.delete, || {
            self.latency.apply(OpClass::Write);
            self.authorize(cred, path, AccessLevel::ReadWrite)?;
            if self.faults.should_inject(points::STORE_DELETE) {
                return Err(StorageError::Unavailable(format!("injected fault: delete {path}")));
            }
            let mut guard = self.inner.write();
            let bucket = guard
                .get_mut(path.bucket())
                .ok_or_else(|| StorageError::NoSuchBucket(path.bucket().to_string()))?;
            bucket
                .objects
                .remove(path.key())
                .map(|_| ())
                .ok_or_else(|| StorageError::NoSuchObject(path.to_string()))
        })
    }

    /// List objects whose paths fall under `prefix`, in key order.
    pub fn list(&self, cred: &Credential, prefix: &StoragePath) -> StorageResult<Vec<ObjectMeta>> {
        self.instrument("list", &self.ops.list, || {
            self.latency.apply(OpClass::List);
            self.authorize(cred, prefix, AccessLevel::Read)?;
            if self.faults.should_inject(points::STORE_LIST) {
                return Err(StorageError::Unavailable(format!("injected fault: list {prefix}")));
            }
            let guard = self.inner.read();
            let bucket = guard
                .get(prefix.bucket())
                .ok_or_else(|| StorageError::NoSuchBucket(prefix.bucket().to_string()))?;
            let mut out = Vec::new();
            // Range-scan from the prefix key: BTreeMap keys are sorted, so all
            // keys under the prefix are contiguous.
            let from = (Bound::Included(prefix.key()), Bound::Unbounded);
            for (key, obj) in bucket.objects.range::<str, _>(from) {
                if !key.starts_with(prefix.key()) {
                    break;
                }
                if !prefix.covers_key(key) {
                    continue; // sibling like `foo2` when prefix is `foo`
                }
                out.push(ObjectMeta {
                    // stored keys were normalized by StoragePath::parse on put
                    path: prefix.with_key(key),
                    size: obj.data.len(),
                    created_at_ms: obj.created_at_ms,
                });
            }
            Ok(out)
        })
    }

    /// Validate a credential against a path and required access level.
    fn authorize(
        &self,
        cred: &Credential,
        path: &StoragePath,
        need: AccessLevel,
    ) -> StorageResult<()> {
        match cred {
            Credential::Root(root) => {
                if root.bucket != path.bucket() {
                    return Err(StorageError::AccessDenied(format!(
                        "root credential is for bucket {}, not {}",
                        root.bucket,
                        path.bucket()
                    )));
                }
                let guard = self.inner.read();
                let bucket = guard
                    .get(path.bucket())
                    .ok_or_else(|| StorageError::NoSuchBucket(path.bucket().to_string()))?;
                if !bucket.roots.contains(&root.secret) {
                    return Err(StorageError::InvalidCredential(
                        "unknown root credential".into(),
                    ));
                }
                Ok(())
            }
            Credential::Temp(token) => self.authorize_temp(token, path, need),
        }
    }

    fn authorize_temp(
        &self,
        token: &TempCredential,
        path: &StoragePath,
        need: AccessLevel,
    ) -> StorageResult<()> {
        self.sts.verify(token)?;
        if !token.scope.is_prefix_of(path) {
            return Err(StorageError::AccessDenied(format!(
                "token scope {} does not cover {}",
                token.scope, path
            )));
        }
        if need.allows_write() && !token.access.allows_write() {
            return Err(StorageError::AccessDenied(format!(
                "token on {} is read-only",
                token.scope
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    fn setup() -> (ObjectStore, Credential, StoragePath) {
        let store = ObjectStore::in_memory();
        let root = store.create_bucket("bkt");
        let base = StoragePath::parse("s3://bkt/warehouse").unwrap();
        (store, Credential::Root(root), base)
    }

    #[test]
    fn put_get_roundtrip() {
        let (store, root, base) = setup();
        let p = base.child("obj");
        store.put(&root, &p, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(store.get(&root, &p).unwrap(), Bytes::from_static(b"hello"));
    }

    #[test]
    fn get_missing_object_errors() {
        let (store, root, base) = setup();
        assert!(matches!(
            store.get(&root, &base.child("nope")),
            Err(StorageError::NoSuchObject(_))
        ));
    }

    #[test]
    fn put_if_absent_conflicts_on_existing() {
        let (store, root, base) = setup();
        let p = base.child("commit/0001.json");
        store.put_if_absent(&root, &p, Bytes::from_static(b"a")).unwrap();
        assert!(matches!(
            store.put_if_absent(&root, &p, Bytes::from_static(b"b")),
            Err(StorageError::AlreadyExists(_))
        ));
        // loser's data did not overwrite the winner's
        assert_eq!(store.get(&root, &p).unwrap(), Bytes::from_static(b"a"));
    }

    #[test]
    fn delete_removes_object() {
        let (store, root, base) = setup();
        let p = base.child("obj");
        store.put(&root, &p, Bytes::from_static(b"x")).unwrap();
        store.delete(&root, &p).unwrap();
        assert!(store.get(&root, &p).is_err());
        assert!(matches!(store.delete(&root, &p), Err(StorageError::NoSuchObject(_))));
    }

    #[test]
    fn list_is_prefix_scoped_and_ordered() {
        let (store, root, base) = setup();
        store.put(&root, &base.child("t1/a"), Bytes::from_static(b"1")).unwrap();
        store.put(&root, &base.child("t1/b"), Bytes::from_static(b"22")).unwrap();
        store.put(&root, &base.child("t2/a"), Bytes::from_static(b"3")).unwrap();
        // sibling that shares a string prefix but not a path prefix
        let sib = StoragePath::parse("s3://bkt/warehouse2/x").unwrap();
        store.put(&root, &sib, Bytes::from_static(b"4")).unwrap();

        let listed = store.list(&root, &base.child("t1")).unwrap();
        let keys: Vec<_> = listed.iter().map(|m| m.path.key().to_string()).collect();
        assert_eq!(keys, vec!["warehouse/t1/a", "warehouse/t1/b"]);

        let all = store.list(&root, &base).unwrap();
        assert_eq!(all.len(), 3, "warehouse2 must not appear under warehouse");
    }

    #[test]
    fn temp_token_scope_is_enforced() {
        let (store, root_cred, base) = setup();
        let root = match &root_cred {
            Credential::Root(r) => r.clone(),
            _ => unreachable!(),
        };
        let t1 = base.child("t1");
        store.put(&root_cred, &t1.child("f"), Bytes::from_static(b"d")).unwrap();
        store.put(&root_cred, &base.child("t2/f"), Bytes::from_static(b"d")).unwrap();

        let tok = store.sts().mint(&root, &t1, AccessLevel::Read, 60_000).unwrap();
        let cred = Credential::Temp(tok);
        // in scope
        assert!(store.get(&cred, &t1.child("f")).is_ok());
        // out of scope
        assert!(matches!(
            store.get(&cred, &base.child("t2/f")),
            Err(StorageError::AccessDenied(_))
        ));
    }

    #[test]
    fn read_only_token_cannot_write() {
        let (store, root_cred, base) = setup();
        let root = match &root_cred {
            Credential::Root(r) => r.clone(),
            _ => unreachable!(),
        };
        let tok = store.sts().mint(&root, &base, AccessLevel::Read, 60_000).unwrap();
        let cred = Credential::Temp(tok);
        assert!(matches!(
            store.put(&cred, &base.child("f"), Bytes::from_static(b"d")),
            Err(StorageError::AccessDenied(_))
        ));
        let rw = store.sts().mint(&root, &base, AccessLevel::ReadWrite, 60_000).unwrap();
        assert!(store.put(&Credential::Temp(rw), &base.child("f"), Bytes::from_static(b"d")).is_ok());
    }

    #[test]
    fn expired_token_is_rejected_mid_scan() {
        let clock = Clock::manual(0);
        let store = ObjectStore::new(StsService::new(clock.clone()), LatencyModel::zero());
        let root = store.create_bucket("bkt");
        let base = StoragePath::parse("s3://bkt/t").unwrap();
        let root_cred = Credential::Root(root.clone());
        store.put(&root_cred, &base.child("f"), Bytes::from_static(b"d")).unwrap();

        let tok = store.sts().mint(&root, &base, AccessLevel::Read, 1_000).unwrap();
        let cred = Credential::Temp(tok);
        assert!(store.get(&cred, &base.child("f")).is_ok());
        clock.advance_ms(2_000);
        assert!(matches!(
            store.get(&cred, &base.child("f")),
            Err(StorageError::ExpiredCredential { .. })
        ));
    }

    #[test]
    fn root_of_other_bucket_is_rejected() {
        let (store, _, _) = setup();
        let other = store.create_bucket("other");
        let p = StoragePath::parse("s3://bkt/warehouse/obj").unwrap();
        assert!(matches!(
            store.put(&Credential::Root(other), &p, Bytes::from_static(b"d")),
            Err(StorageError::AccessDenied(_))
        ));
    }

    #[test]
    fn forged_root_is_rejected() {
        let (store, _, _) = setup();
        let forged = RootCredential { bucket: "bkt".into(), secret: 12345 };
        let p = StoragePath::parse("s3://bkt/warehouse/obj").unwrap();
        assert!(matches!(
            store.put(&Credential::Root(forged), &p, Bytes::from_static(b"d")),
            Err(StorageError::InvalidCredential(_))
        ));
    }
}
