//! Property tests over storage-path algebra — the foundation the
//! one-asset-per-path invariant stands on.

#![allow(clippy::unwrap_used, reason = "helpers outside #[test] functions fail the test as a test body does")]

use proptest::prelude::*;
use uc_cloudstore::StoragePath;

fn arb_segments() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z][a-z0-9_-]{0,6}", 0..5)
}

fn path_of(bucket: &str, segs: &[String]) -> StoragePath {
    StoragePath::parse(&format!("s3://{bucket}/{}", segs.join("/"))).unwrap()
}

proptest! {
    #[test]
    fn display_parse_roundtrip(segs in arb_segments()) {
        let p = path_of("bkt", &segs);
        let back = StoragePath::parse(&p.to_string()).unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn child_then_parent_is_identity(segs in arb_segments(), name in "[a-z]{1,5}") {
        let p = path_of("bkt", &segs);
        let c = p.child(&name);
        prop_assert_eq!(c.parent().unwrap(), p);
    }

    #[test]
    fn prefix_is_reflexive_and_antisymmetric(a in arb_segments(), b in arb_segments()) {
        let pa = path_of("bkt", &a);
        let pb = path_of("bkt", &b);
        prop_assert!(pa.is_prefix_of(&pa));
        if pa.is_prefix_of(&pb) && pb.is_prefix_of(&pa) {
            prop_assert_eq!(&pa, &pb);
        }
        // overlap is symmetric
        prop_assert_eq!(pa.overlaps(&pb), pb.overlaps(&pa));
    }

    #[test]
    fn prefix_matches_segment_semantics(a in arb_segments(), b in arb_segments()) {
        let pa = path_of("bkt", &a);
        let pb = path_of("bkt", &b);
        let expected = a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y);
        prop_assert_eq!(pa.is_prefix_of(&pb), expected);
    }

    #[test]
    fn different_buckets_never_relate(segs in arb_segments()) {
        let pa = path_of("one", &segs);
        let pb = path_of("two", &segs);
        prop_assert!(!pa.overlaps(&pb));
    }

    #[test]
    fn ancestors_all_prefix_descendant(segs in proptest::collection::vec("[a-z]{1,4}", 1..5)) {
        let leaf = path_of("bkt", &segs);
        let mut anc = leaf.parent();
        while let Some(a) = anc {
            prop_assert!(a.is_prefix_of(&leaf));
            prop_assert!(!leaf.is_prefix_of(&a) || a == leaf);
            anc = a.parent();
        }
    }
}
