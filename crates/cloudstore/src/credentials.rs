//! STS-style credential minting and verification.
//!
//! The catalog service holds [`RootCredential`]s for the buckets it governs
//! and uses the [`StsService`] to mint [`TempCredential`]s: signed tokens
//! scoped to a path prefix, an [`AccessLevel`], and an expiry. Clients can
//! only talk to storage with such a token, which is how the paper's
//! credential-vending design keeps the catalog out of the data path while
//! remaining the sole access-control authority.
//!
//! Signatures are an HMAC stand-in: an FNV-1a hash over the token fields
//! keyed by a per-service secret. That is obviously not cryptographically
//! strong, but it preserves the property the system design relies on:
//! tokens cannot be forged or re-scoped without the service secret, and any
//! tampering with scope/expiry invalidates the signature.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use uc_obs::Obs;

use crate::clock::Clock;
use crate::error::{StorageError, StorageResult};
use crate::faults::{points, FaultPlan};
use crate::opcount::OpCounters;
use crate::path::StoragePath;

/// Access level a credential grants on its scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessLevel {
    /// Get + list only.
    Read,
    /// Get + list + put + delete.
    ReadWrite,
}

impl AccessLevel {
    /// Whether this level permits writes.
    pub fn allows_write(self) -> bool {
        matches!(self, AccessLevel::ReadWrite)
    }
}

/// Long-lived credential for a whole bucket. In the full system only the
/// catalog service (never an engine) holds these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RootCredential {
    pub bucket: String,
    pub secret: u64,
}

/// A signed, down-scoped, expiring token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TempCredential {
    /// Path prefix this token covers.
    pub scope: StoragePath,
    /// Permitted access level.
    pub access: AccessLevel,
    /// Expiry in clock milliseconds.
    pub expires_at_ms: u64,
    /// Random value making each token unique.
    pub nonce: u64,
    /// Service signature over the fields above.
    pub signature: u64,
}

impl TempCredential {
    /// Remaining validity relative to `now_ms`, zero if expired.
    pub fn remaining_ms(&self, now_ms: u64) -> u64 {
        self.expires_at_ms.saturating_sub(now_ms)
    }
}

/// Credential presented to the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Credential {
    Root(RootCredential),
    Temp(TempCredential),
}

impl From<RootCredential> for Credential {
    fn from(c: RootCredential) -> Self {
        Credential::Root(c)
    }
}

impl From<TempCredential> for Credential {
    fn from(c: TempCredential) -> Self {
        Credential::Temp(c)
    }
}

/// Mints and verifies temporary credentials.
///
/// A service instance owns a secret; tokens it mints only verify against the
/// same instance (or a clone sharing the secret). Roots are registered per
/// bucket; minting requires presenting the matching root.
#[derive(Debug, Clone)]
pub struct StsService {
    secret: u64,
    clock: Clock,
    faults: FaultPlan,
    obs: Obs,
    ops: Arc<StsOps>,
}

/// The `sts.<op>.{count,errors}` handles.
#[derive(Debug)]
struct StsOps {
    mint: OpCounters,
    verify: OpCounters,
}

impl StsOps {
    fn new() -> Arc<Self> {
        Arc::new(StsOps {
            mint: OpCounters::new("sts.mint.count", "sts.mint.errors"),
            verify: OpCounters::new("sts.verify.count", "sts.verify.errors"),
        })
    }
}

impl StsService {
    /// New service with a random secret (drawn from the audited seed
    /// stream) and the given clock.
    pub fn new(clock: Clock) -> Self {
        StsService::with_secret(crate::seed::next_u64(), clock)
    }

    /// New service with a fixed secret — for tests that need two instances
    /// to trust each other's tokens.
    pub fn with_secret(secret: u64, clock: Clock) -> Self {
        StsService {
            secret,
            clock,
            faults: FaultPlan::disabled(),
            obs: Obs::disabled(),
            ops: StsOps::new(),
        }
    }

    /// Attach a fault plan (chaos tests). Consumes and returns the service
    /// so it composes with the other constructors.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attach an observability handle; `sts.mint` / `sts.verify` spans and
    /// counters are recorded into it.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.ops = StsOps::new();
        self
    }

    /// The fault plan consulted by `mint` and `verify`.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Generate a fresh root credential for `bucket`.
    pub fn issue_root(&self, bucket: &str) -> RootCredential {
        RootCredential { bucket: bucket.to_string(), secret: crate::seed::next_u64() }
    }

    /// Mint a token scoped to `scope` with `access`, valid for `ttl_ms`.
    /// The presented root must match the scope's bucket.
    pub fn mint(
        &self,
        root: &RootCredential,
        scope: &StoragePath,
        access: AccessLevel,
        ttl_ms: u64,
    ) -> StorageResult<TempCredential> {
        let mut span = self.obs.span("sts", "mint");
        self.ops.mint.count(&self.obs).inc();
        let result = (|| {
            if root.bucket != scope.bucket() {
                return Err(StorageError::AccessDenied(format!(
                    "root credential for bucket {} cannot scope to {}",
                    root.bucket, scope
                )));
            }
            if self.faults.should_inject(points::STS_MINT) {
                return Err(StorageError::Unavailable("injected fault: sts mint".into()));
            }
            let nonce = crate::seed::next_u64();
            let expires_at_ms = self.clock.now_ms() + ttl_ms;
            let signature = self.sign(scope, access, expires_at_ms, nonce);
            Ok(TempCredential { scope: scope.clone(), access, expires_at_ms, nonce, signature })
        })();
        if result.is_err() {
            self.ops.mint.errors(&self.obs).inc();
            span.set_status("error");
        }
        result
    }

    /// Verify signature and expiry. Returns the scope on success so callers
    /// can follow up with path checks.
    pub fn verify(&self, token: &TempCredential) -> StorageResult<()> {
        let mut span = self.obs.span("sts", "verify");
        self.ops.verify.count(&self.obs).inc();
        let result = (|| {
            let expect = self.sign(&token.scope, token.access, token.expires_at_ms, token.nonce);
            if expect != token.signature {
                return Err(StorageError::InvalidCredential("bad signature".into()));
            }
            let now = self.clock.now_ms();
            if now >= token.expires_at_ms {
                return Err(StorageError::ExpiredCredential {
                    expired_at_ms: token.expires_at_ms,
                    now_ms: now,
                });
            }
            // Injected *expiry*: models the token aging out mid-operation, the
            // failure engines must recover from by re-vending a credential.
            if self.faults.should_inject(points::STS_VERIFY) {
                return Err(StorageError::ExpiredCredential {
                    expired_at_ms: token.expires_at_ms.min(now),
                    now_ms: now,
                });
            }
            Ok(())
        })();
        if result.is_err() {
            self.ops.verify.errors(&self.obs).inc();
            span.set_status("error");
        }
        result
    }

    /// Clock used for expiry decisions.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn sign(
        &self,
        scope: &StoragePath,
        access: AccessLevel,
        expires_at_ms: u64,
        nonce: u64,
    ) -> u64 {
        let mut h = Fnv1a::new(self.secret);
        h.write(scope.to_string().as_bytes());
        h.write(&[match access {
            AccessLevel::Read => 0u8,
            AccessLevel::ReadWrite => 1u8,
        }]);
        h.write(&expires_at_ms.to_le_bytes());
        h.write(&nonce.to_le_bytes());
        h.finish()
    }
}

/// Keyed FNV-1a, our HMAC stand-in.
struct Fnv1a(u64);

impl Fnv1a {
    fn new(key: u64) -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325 ^ key)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StsService, RootCredential, StoragePath) {
        let clock = Clock::manual(0);
        let sts = StsService::new(clock);
        let root = sts.issue_root("bucket");
        let scope = StoragePath::parse("s3://bucket/warehouse/t1").unwrap();
        (sts, root, scope)
    }

    #[test]
    fn minted_token_verifies() {
        let (sts, root, scope) = setup();
        let tok = sts.mint(&root, &scope, AccessLevel::Read, 60_000).unwrap();
        assert!(sts.verify(&tok).is_ok());
        assert_eq!(tok.scope, scope);
    }

    #[test]
    fn token_expires() {
        let (sts, root, scope) = setup();
        let tok = sts.mint(&root, &scope, AccessLevel::Read, 1_000).unwrap();
        sts.clock().advance_ms(1_000);
        let err = sts.verify(&tok).unwrap_err();
        assert!(matches!(err, StorageError::ExpiredCredential { .. }));
    }

    #[test]
    fn tampered_scope_fails_verification() {
        let (sts, root, scope) = setup();
        let mut tok = sts.mint(&root, &scope, AccessLevel::Read, 60_000).unwrap();
        tok.scope = StoragePath::parse("s3://bucket").unwrap(); // widen scope
        assert!(matches!(
            sts.verify(&tok),
            Err(StorageError::InvalidCredential(_))
        ));
    }

    #[test]
    fn tampered_access_fails_verification() {
        let (sts, root, scope) = setup();
        let mut tok = sts.mint(&root, &scope, AccessLevel::Read, 60_000).unwrap();
        tok.access = AccessLevel::ReadWrite;
        assert!(sts.verify(&tok).is_err());
    }

    #[test]
    fn tampered_expiry_fails_verification() {
        let (sts, root, scope) = setup();
        let mut tok = sts.mint(&root, &scope, AccessLevel::Read, 1_000).unwrap();
        tok.expires_at_ms += 1_000_000;
        assert!(sts.verify(&tok).is_err());
    }

    #[test]
    fn root_for_wrong_bucket_cannot_mint() {
        let (sts, _, scope) = setup();
        let other_root = sts.issue_root("other-bucket");
        assert!(matches!(
            sts.mint(&other_root, &scope, AccessLevel::Read, 1_000),
            Err(StorageError::AccessDenied(_))
        ));
    }

    #[test]
    fn foreign_service_rejects_token() {
        let (sts, root, scope) = setup();
        let tok = sts.mint(&root, &scope, AccessLevel::Read, 60_000).unwrap();
        let other = StsService::new(Clock::manual(0));
        assert!(other.verify(&tok).is_err());
    }

    #[test]
    fn shared_secret_services_trust_each_other() {
        let clock = Clock::manual(0);
        let a = StsService::with_secret(42, clock.clone());
        let b = StsService::with_secret(42, clock);
        let root = a.issue_root("bucket");
        let scope = StoragePath::parse("s3://bucket/x").unwrap();
        let tok = a.mint(&root, &scope, AccessLevel::ReadWrite, 1_000).unwrap();
        assert!(b.verify(&tok).is_ok());
    }

    #[test]
    fn remaining_ms_saturates() {
        let (sts, root, scope) = setup();
        let tok = sts.mint(&root, &scope, AccessLevel::Read, 500).unwrap();
        assert_eq!(tok.remaining_ms(0), 500);
        assert_eq!(tok.remaining_ms(10_000), 0);
    }
}
