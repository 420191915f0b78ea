//! Storage paths: `scheme://bucket/key` with prefix semantics.
//!
//! Paths are the join point between the catalog and the storage layer: the
//! catalog's one-asset-per-path principle is defined in terms of the prefix
//! relation implemented here, and temporary credentials are scoped to a path
//! prefix.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{StorageError, StorageResult};

/// A parsed cloud storage path.
///
/// The key is stored without leading or trailing slashes; an empty key
/// denotes the bucket root. Prefix checks are segment-aware, so
/// `s3://b/foo` is *not* a prefix of `s3://b/foobar`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StoragePath {
    scheme: String,
    bucket: String,
    key: String,
}

impl StoragePath {
    /// Parse from a URL-like string, e.g. `s3://my-bucket/warehouse/t1`.
    pub fn parse(s: &str) -> StorageResult<Self> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| StorageError::InvalidPath(s.to_string()))?;
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-')
        {
            return Err(StorageError::InvalidPath(s.to_string()));
        }
        let (bucket, key) = match rest.split_once('/') {
            Some((b, k)) => (b, k),
            None => (rest, ""),
        };
        if bucket.is_empty() {
            return Err(StorageError::InvalidPath(s.to_string()));
        }
        let key = key.trim_matches('/');
        if key.split('/').any(|seg| seg.is_empty()) && !key.is_empty() {
            return Err(StorageError::InvalidPath(s.to_string()));
        }
        Ok(StoragePath {
            scheme: scheme.to_ascii_lowercase(),
            bucket: bucket.to_string(),
            key: key.to_string(),
        })
    }

    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    /// Object key relative to the bucket root (no leading slash).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Key segments, empty for the bucket root.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.key.split('/').filter(|s| !s.is_empty())
    }

    /// Append a relative component, e.g. `p.child("_delta_log")`.
    pub fn child(&self, name: &str) -> StoragePath {
        let name = name.trim_matches('/');
        let key = if self.key.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.key, name)
        };
        StoragePath { scheme: self.scheme.clone(), bucket: self.bucket.clone(), key }
    }

    /// The parent path, or `None` at the bucket root.
    pub fn parent(&self) -> Option<StoragePath> {
        if self.key.is_empty() {
            return None;
        }
        let key = match self.key.rsplit_once('/') {
            Some((head, _)) => head.to_string(),
            None => String::new(),
        };
        Some(StoragePath { scheme: self.scheme.clone(), bucket: self.bucket.clone(), key })
    }

    /// Segment-aware prefix test: `self` covers `other` if they share
    /// scheme and bucket and `self.key` is a (possibly equal) directory
    /// prefix of `other.key`.
    pub fn is_prefix_of(&self, other: &StoragePath) -> bool {
        self.scheme == other.scheme && self.bucket == other.bucket && self.covers_key(&other.key)
    }

    /// [`StoragePath::is_prefix_of`] for a key in this path's bucket.
    pub(crate) fn covers_key(&self, key: &str) -> bool {
        self.key.is_empty()
            || (key.starts_with(&self.key)
                && (key.len() == self.key.len() || key.as_bytes()[self.key.len()] == b'/'))
    }

    /// The path of `key` in this path's bucket. `key` must be a normalized
    /// key, as every stored object's is: it is not parsed again.
    pub(crate) fn with_key(&self, key: &str) -> StoragePath {
        StoragePath { scheme: self.scheme.clone(), bucket: self.bucket.clone(), key: key.to_string() }
    }

    /// True if either path is a prefix of the other — the "overlap" the
    /// one-asset-per-path principle forbids between distinct assets.
    pub fn overlaps(&self, other: &StoragePath) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }
}

impl fmt::Display for StoragePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key.is_empty() {
            write!(f, "{}://{}", self.scheme, self.bucket)
        } else {
            write!(f, "{}://{}/{}", self.scheme, self.bucket, self.key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> StoragePath {
        StoragePath::parse(s).unwrap()
    }

    #[test]
    fn parses_scheme_bucket_key() {
        let path = p("s3://bucket/a/b/c");
        assert_eq!(path.scheme(), "s3");
        assert_eq!(path.bucket(), "bucket");
        assert_eq!(path.key(), "a/b/c");
    }

    #[test]
    fn parses_bucket_root() {
        let path = p("gs://bucket");
        assert_eq!(path.key(), "");
        assert!(path.parent().is_none());
    }

    #[test]
    fn normalizes_trailing_slash() {
        assert_eq!(p("s3://b/a/"), p("s3://b/a"));
    }

    #[test]
    fn scheme_is_lowercased() {
        assert_eq!(p("S3://b/a").scheme(), "s3");
    }

    #[test]
    fn rejects_missing_scheme() {
        assert!(StoragePath::parse("bucket/key").is_err());
        assert!(StoragePath::parse("://b/k").is_err());
    }

    #[test]
    fn rejects_empty_bucket() {
        assert!(StoragePath::parse("s3:///key").is_err());
    }

    #[test]
    fn rejects_empty_segment() {
        assert!(StoragePath::parse("s3://b/a//b").is_err());
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let base = p("s3://b/warehouse");
        let c = base.child("t1");
        assert_eq!(c.key(), "warehouse/t1");
        assert_eq!(c.parent().unwrap(), base);
    }

    #[test]
    fn prefix_is_segment_aware() {
        assert!(p("s3://b/foo").is_prefix_of(&p("s3://b/foo/bar")));
        assert!(p("s3://b/foo").is_prefix_of(&p("s3://b/foo")));
        assert!(!p("s3://b/foo").is_prefix_of(&p("s3://b/foobar")));
        assert!(!p("s3://b/foo/bar").is_prefix_of(&p("s3://b/foo")));
    }

    #[test]
    fn bucket_root_prefixes_everything_in_bucket() {
        assert!(p("s3://b").is_prefix_of(&p("s3://b/x/y")));
        assert!(!p("s3://b").is_prefix_of(&p("s3://other/x")));
    }

    #[test]
    fn different_scheme_never_prefixes() {
        assert!(!p("s3://b/x").is_prefix_of(&p("gs://b/x/y")));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = p("s3://b/x");
        let b = p("s3://b/x/y");
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&p("s3://b/z")));
    }

    #[test]
    fn display_roundtrips() {
        for s in ["s3://b/a/b/c", "gs://bucket", "abfss://acct/dir"] {
            assert_eq!(p(s).to_string(), s);
            assert_eq!(p(&p(s).to_string()), p(s));
        }
    }
}
