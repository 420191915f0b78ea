// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors minimal implementations of its external dependencies under
//! `shims/`. This one provides [`Bytes`]: a cheaply-cloneable immutable
//! byte buffer backed by `Arc<[u8]>`, covering the API surface the
//! workspace actually uses.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Cheaply-cloneable immutable byte buffer.
#[derive(Clone, PartialEq)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: Arc::from(&[][..]) }
    }

    /// Wrap a static slice. (The shim copies; the real crate borrows.)
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Arc::from(bytes) }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v.into_boxed_slice()) }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_clone_share() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn from_static_and_str() {
        assert_eq!(Bytes::from_static(b"hi"), Bytes::from(String::from("hi")));
        assert_eq!(Bytes::new().len(), 0);
    }
}
