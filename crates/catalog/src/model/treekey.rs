//! Order-preserving tree key codec (TreeCat-style, DESIGN.md §11).
//!
//! A hierarchy path `[seg0, seg1, ..]` encodes to a single string key such
//! that:
//!
//! * **Round trip** — `decode(encode(p)) == p` for arbitrary segment
//!   strings, including empty segments, `|`, `.`, control characters, and
//!   multi-byte unicode.
//! * **Order preservation** — byte order of encoded keys equals
//!   lexicographic order of the segment vectors. This is what turns
//!   `list_children`, subtree drops, and path-overlap checks into single
//!   contiguous range scans.
//! * **Prefix containment** — `encode(parent)` is a *string prefix* of
//!   `encode(child)` for every descendant, so "the subtree of P" is
//!   exactly the key range `[encode(P), successor(encode(P)))`, i.e. one
//!   `scan_prefix`.
//! * **No sibling-prefix trap** — `t1` and `t10` are siblings, never
//!   ancestor/descendant: each segment ends with an unambiguous
//!   terminator byte that cannot appear unescaped in content.
//!
//! Encoding: each segment's characters are emitted verbatim except the
//! bytes `0x00..=0x02`, which are escaped as `ESC` + (byte + 0x10); the
//! segment is then closed with the terminator `TERM` (0x01). Because
//! `TERM` (0x01) sorts below `ESC` (0x02) and below every unescaped
//! content byte (≥ 0x03), a segment that is a strict prefix of its
//! sibling sorts first — and because escaping is char-by-char, the
//! encoding of a *partial* segment is a string prefix of the encoding of
//! any segment extending it (used for group-scoped child listings).
//!
//! Note: ISSUE 9 sketches "length-prefixed" segments; a length prefix
//! breaks byte-order ≡ path-order (length bytes compare before content),
//! so this codec uses terminator-escape framing instead. The deviation is
//! documented in DESIGN.md §11.

/// Segment terminator. Sorts below every other byte that can appear in an
/// encoded key, so shorter paths sort before their extensions.
pub const TERM: char = '\u{1}';

/// Escape lead byte for content bytes `0x00..=0x02`.
pub const ESC: char = '\u{2}';

/// Offset added to an escaped byte: `0x00 → 0x10`, `0x01 → 0x11`,
/// `0x02 → 0x12`. The mapping is order-preserving within the escaped
/// range, and escaped pairs (`0x02 0x10..=0x12`) still sort below any
/// unescaped content byte's first byte only when that byte is > `ESC` —
/// which holds, because every unescaped content byte is ≥ 0x03.
const ESC_OFFSET: u32 = 0x10;

/// Append the escaped form of `segment` to `out`, *without* the closing
/// terminator. The result is a string prefix of the escaped form of any
/// segment that extends `segment` — the primitive behind group-scoped
/// child-listing prefixes.
pub fn escape_into(out: &mut String, segment: &str) {
    for ch in segment.chars() {
        match ch {
            '\u{0}' => {
                out.push(ESC);
                out.push('\u{10}');
            }
            '\u{1}' => {
                out.push(ESC);
                out.push('\u{11}');
            }
            '\u{2}' => {
                out.push(ESC);
                out.push('\u{12}');
            }
            c => out.push(c),
        }
    }
}

/// Append one complete encoded segment (escaped content + terminator).
pub fn push_segment(out: &mut String, segment: &str) {
    escape_into(out, segment);
    out.push(TERM);
}

/// Encode a full path. The empty path encodes to the empty string.
pub fn encode(segments: &[impl AsRef<str>]) -> String {
    let mut out = String::with_capacity(segments.iter().map(|s| s.as_ref().len() + 1).sum());
    for s in segments {
        push_segment(&mut out, s.as_ref());
    }
    out
}

/// Decode an encoded key back to its segments. Returns `None` for
/// malformed input: a dangling escape, an invalid escape pair, or content
/// after the last terminator (every valid key ends with `TERM`).
pub fn decode(key: &str) -> Option<Vec<String>> {
    let mut segments = Vec::new();
    let mut cur = String::new();
    let mut dirty = false;
    let mut chars = key.chars();
    while let Some(ch) = chars.next() {
        match ch {
            TERM => {
                segments.push(std::mem::take(&mut cur));
                dirty = false;
            }
            ESC => {
                let esc = chars.next()?;
                let raw = (esc as u32).checked_sub(ESC_OFFSET)?;
                if raw > 0x02 {
                    return None;
                }
                cur.push(char::from_u32(raw)?);
                dirty = true;
            }
            c => {
                cur.push(c);
                dirty = true;
            }
        }
    }
    if dirty || !cur.is_empty() {
        return None; // trailing unterminated segment
    }
    Some(segments)
}

/// Number of complete segments in an encoded key (its depth). Counts raw
/// terminator bytes — escaped content never contains one, so this needs
/// no decoding and is safe to run per-row while filtering a range scan.
pub fn depth(key: &str) -> usize {
    key.bytes().filter(|b| *b == TERM as u8).count()
}

/// Iterate the encoded ancestor chain of `key`: every prefix of `key`
/// that ends at a segment terminator, shortest first, including `key`
/// itself when it is a complete encoded path.
pub fn chain_prefixes(key: &str) -> impl DoubleEndedIterator<Item = &str> {
    key.bytes()
        .enumerate()
        .filter(|(_, b)| *b == TERM as u8)
        .map(move |(i, _)| &key[..=i])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(segs: &[&str]) -> String {
        encode(segs)
    }

    #[test]
    fn round_trip_plain_and_special() {
        for segs in [
            vec!["ms", "catalog:main", "schema:s", "relation:t"],
            vec![""],
            vec!["", ""],
            vec!["a|b.c/d"],
            vec!["\u{0}\u{1}\u{2}", "naïve-ünïcode-日本語"],
        ] {
            let key = enc(&segs);
            assert_eq!(decode(&key).unwrap(), segs, "round trip for {segs:?}");
        }
        assert_eq!(decode("").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn malformed_keys_decode_to_none() {
        assert!(decode("abc").is_none(), "unterminated segment");
        assert!(decode("\u{2}").is_none(), "dangling escape");
        assert!(decode("\u{2}\u{7f}\u{1}").is_none(), "invalid escape pair");
    }

    #[test]
    fn parent_key_is_string_prefix_of_descendants() {
        let parent = enc(&["ms", "catalog:main"]);
        let child = enc(&["ms", "catalog:main", "schema:s"]);
        let grandchild = enc(&["ms", "catalog:main", "schema:s", "relation:t"]);
        assert!(child.starts_with(&parent));
        assert!(grandchild.starts_with(&child));
    }

    #[test]
    fn sibling_prefix_trap_regressions() {
        // `t1` vs `t10`: siblings, not ancestor/descendant.
        let t1 = enc(&["ms", "s", "t1"]);
        let t10 = enc(&["ms", "s", "t10"]);
        assert!(!t10.starts_with(&t1));
        assert!(t1 < t10, "shorter sibling sorts first");
        // `ware` vs `warehouse`
        let ware = enc(&["ms", "ware"]);
        let warehouse = enc(&["ms", "warehouse"]);
        assert!(!warehouse.starts_with(&ware));
        assert!(ware < warehouse);
        // But a real descendant of `ware` *does* live under its prefix,
        // and still sorts between `ware` and `warehouse`.
        let under = enc(&["ms", "ware", "x"]);
        assert!(under.starts_with(&ware));
        assert!(ware < under && under < warehouse);
    }

    #[test]
    fn key_order_matches_path_order() {
        let paths: Vec<Vec<&str>> = vec![
            vec!["a"],
            vec!["a", ""],
            vec!["a", "b"],
            vec!["a", "b", "c"],
            vec!["a", "bc"],
            vec!["a\u{1}b"], // content terminator escapes, stays one segment
            vec!["ab"],
            vec!["b"],
        ];
        let keys: Vec<String> = paths.iter().map(|p| enc(p)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "encoded order must equal path order");
    }

    #[test]
    fn partial_escape_is_prefix_of_full_segment() {
        let mut partial = enc(&["ms", "parent"]);
        escape_into(&mut partial, "relation:");
        let full = enc(&["ms", "parent", "relation:orders"]);
        assert!(full.starts_with(&partial));
        let other_group = enc(&["ms", "parent", "volume:v"]);
        assert!(!other_group.starts_with(&partial));
    }

    #[test]
    fn depth_counts_segments_without_decoding() {
        assert_eq!(depth(&enc(&["ms"])), 1);
        assert_eq!(depth(&enc(&["ms", "c", "s", "t"])), 4);
        // an escaped 0x01 in content must not count as a boundary
        assert_eq!(depth(&enc(&["a\u{1}b"])), 1);
    }

    #[test]
    fn chain_prefixes_yields_every_ancestor() {
        let key = enc(&["ms", "c", "s", "t"]);
        let chain: Vec<&str> = chain_prefixes(&key).collect();
        assert_eq!(
            chain,
            vec![
                enc(&["ms"]),
                enc(&["ms", "c"]),
                enc(&["ms", "c", "s"]),
                enc(&["ms", "c", "s", "t"]),
            ]
        );
    }
}
