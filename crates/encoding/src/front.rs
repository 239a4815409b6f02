//! Front coding: the compressed string dictionary ("OptDicts", §3).
//!
//! §3 "Optimize Global-Dictionaries" shrinks the global string
//! dictionaries, the largest structures the paper optimizes. Sorted strings
//! share long prefixes with their neighbours, so each entry is stored as
//! what it adds to its predecessor (Witten, Moffat and Bell, *Managing
//! Gigabytes*, 1999), in blocks of [`B`] so a lookup decodes a few entries,
//! not all (Brisaboa et al., "Compressed String Dictionaries", SEA 2011):
//!
//! ```text
//! block head:    varint(len)  bytes
//! later entries: varint(shared prefix with the predecessor)  varint(suffix len)  suffix
//! ```
//!
//! One `u32` byte offset per block locates its head. An entry's id is its
//! position, as in [`crate::Sorted`], so both lookup directions are cheap:
//! string → id ([`FrontCoded::rank`]) binary-searches the heads, then scans
//! one block; id → string ([`FrontCoded::value`]) decodes at most `B`
//! entries.

use crate::dict::Merged;
use pd_common::{Error, HeapSize, Result};
use pd_compress::varint;
use std::cmp::Ordering;

/// Entries per block: a head stored whole, then `B - 1` front-coded ones.
pub const B: u32 = 16;

/// Sorted, distinct strings, front-coded in blocks of [`B`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontCoded {
    bytes: Box<[u8]>,
    /// Byte offset of each block's head.
    blocks: Box<[u32]>,
    len: u32,
}

impl FrontCoded {
    /// Build from strings that are **sorted and unique** (the global
    /// dictionary invariant, §2.3); anything else is an error.
    pub fn from_sorted<S: AsRef<str>>(values: &[S]) -> Result<FrontCoded> {
        if let Some(pair) = values.windows(2).find(|p| p[0].as_ref() >= p[1].as_ref()) {
            return Err(Error::Data(format!(
                "dictionary input must be sorted and unique, got `{}` before `{}`",
                pair[0].as_ref(),
                pair[1].as_ref()
            )));
        }
        let mut out = Writer::default();
        values.iter().for_each(|s| out.push(s.as_ref().as_bytes(), None));
        Ok(out.finish())
    }

    /// Number of strings stored.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Id of `value`, if present.
    pub fn id_of(&self, value: &str) -> Option<u32> {
        self.rank(value).ok()
    }

    /// Where `probe` stands among the stored strings, with
    /// [`slice::binary_search`]'s contract: `Ok(id)` if it is stored,
    /// `Err(id)` of the first string above it if not. A binary search of the
    /// block heads, then a scan of the one block that can hold it.
    pub fn rank(&self, probe: &str) -> std::result::Result<u32, u32> {
        let probe = probe.as_bytes();
        let block = self.blocks.partition_point(|&at| self.head(at) <= probe);
        let Some(block) = block.checked_sub(1) else { return Err(0) };
        let mut cursor = Cursor::at_block(self, block);
        let end = (cursor.next + B).min(self.len);
        while cursor.next < end {
            cursor.advance();
            match cursor.entry.as_slice().cmp(probe) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(cursor.next - 1),
                Ordering::Greater => return Err(cursor.next - 1),
            }
        }
        Err(end)
    }

    /// The string with id `id`. Panics if `id >= len()`.
    pub fn value(&self, id: u32) -> String {
        let mut value = String::new();
        self.for_each_of(&[id], |s| value.push_str(utf8(s)));
        value
    }

    /// Visit `(id, UTF-8 bytes)` for every entry in ascending order: one
    /// pass that builds no string.
    pub fn for_each(&self, mut f: impl FnMut(u32, &[u8])) {
        let mut cursor = Cursor::at_block(self, 0);
        while cursor.next < self.len {
            cursor.advance();
            f(cursor.next - 1, &cursor.entry);
        }
    }

    /// The UTF-8 bytes of the strings with ids `ids`, which must be strictly
    /// ascending and below `len()` (panics otherwise), handed to `f` in that
    /// order. Each block is decoded at most once, into one buffer, and no
    /// string is built.
    pub fn for_each_of(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly ascending");
        if let Some(&last) = ids.last() {
            assert!(last < self.len, "global-id {last} out of bounds (len {})", self.len);
        }
        let mut cursor = Cursor::at_block(self, 0);
        for &id in ids {
            if id / B != cursor.next / B {
                cursor.seek((id / B) as usize);
            }
            while cursor.next <= id {
                cursor.advance();
            }
            f(&cursor.entry);
        }
    }

    /// The strings with ids `ids` ([`FrontCoded::for_each_of`]'s contract),
    /// in that order.
    pub fn values_of(&self, ids: &[u32]) -> Vec<String> {
        let mut out = Vec::with_capacity(ids.len());
        self.for_each_of(ids, |s| out.push(utf8(s).to_owned()));
        out
    }

    /// Merge the sorted, distinct strings `batch` into this dictionary,
    /// which becomes their union, in order. Each batch string is ranked
    /// first; only if one is new is the dictionary rewritten, in one pass
    /// over the old blocks and the batch. The blocks before the first new
    /// string are copied as they are; an old entry that still follows its
    /// old predecessor keeps its prefix length, without a compare.
    pub fn merge<S: AsRef<str>>(&mut self, batch: &[S]) -> Merged {
        // Per batch string absent from `self`, the old id it goes before.
        let mut inserts: Vec<(u32, &[u8])> = Vec::new();
        let ids = (batch.iter().map(AsRef::as_ref))
            .map(|s| match self.rank(s) {
                Ok(at) => at + inserts.len() as u32,
                Err(at) => {
                    inserts.push((at, s.as_bytes()));
                    at + inserts.len() as u32 - 1
                }
            })
            .collect();
        let Some(&(first, _)) = inserts.first() else { return Merged { ids, renumbered: None } };
        let moved = first < self.len;
        let kept = (first / B) as usize;
        let mut out = Writer {
            bytes: self.bytes[..self.block_start(kept)].to_vec(),
            blocks: self.blocks[..kept].to_vec(),
            len: kept as u32 * B,
            prev: Vec::new(),
        };
        let mut renumbered: Vec<u32> = if moved { (0..out.len).collect() } else { Vec::new() };
        let mut cursor = Cursor::at_block(self, kept);
        let mut inserts = inserts.into_iter().peekable();
        loop {
            let mut inserted = false;
            while let Some((_, s)) = inserts.next_if(|&(at, _)| at == cursor.next) {
                out.push(s, None);
                inserted = true;
            }
            if cursor.next == self.len {
                break;
            }
            let head = cursor.next.is_multiple_of(B);
            cursor.advance();
            if moved {
                renumbered.push(out.len);
            }
            out.push(&cursor.entry, (!inserted && !head).then_some(cursor.shared));
        }
        *self = out.finish();
        Merged { ids, renumbered: moved.then_some(renumbered) }
    }

    /// Byte offset of block `block`'s head; the end of the bytes past the
    /// last block.
    fn block_start(&self, block: usize) -> usize {
        self.blocks.get(block).map_or(self.bytes.len(), |&at| at as usize)
    }

    /// The string stored whole at byte offset `at`: a block's head.
    fn head(&self, at: u32) -> &[u8] {
        let mut pos = at as usize;
        let len = read(&self.bytes, &mut pos);
        &self.bytes[pos..pos + len]
    }
}

impl HeapSize for FrontCoded {
    fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.blocks.len() * std::mem::size_of::<u32>()
    }
}

/// A stored string's bytes as the `str` they are.
fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("a front-coded dictionary stores UTF-8")
}

fn read(bytes: &[u8], pos: &mut usize) -> usize {
    varint::read_u64(bytes, pos).expect("valid front coding") as usize
}

/// Decodes entries in id order from a block's head on, each into `entry`.
struct Cursor<'a> {
    dict: &'a FrontCoded,
    /// Id of the next entry to decode; `entry` holds the one before it.
    next: u32,
    pos: usize,
    entry: Vec<u8>,
    /// The prefix `entry` shares with its predecessor, as stored (0 at a
    /// head).
    shared: usize,
}

impl<'a> Cursor<'a> {
    fn at_block(dict: &'a FrontCoded, block: usize) -> Cursor<'a> {
        let mut cursor = Cursor { dict, next: 0, pos: 0, entry: Vec::new(), shared: 0 };
        cursor.seek(block);
        cursor
    }

    /// Go to block `block`'s head, keeping the buffer.
    fn seek(&mut self, block: usize) {
        self.next = block as u32 * B;
        self.pos = self.dict.block_start(block);
    }

    /// Decode entry `next` into `entry`. The caller checks `next < len`.
    fn advance(&mut self) {
        let bytes = &self.dict.bytes;
        self.shared = if self.next.is_multiple_of(B) { 0 } else { read(bytes, &mut self.pos) };
        let suffix = read(bytes, &mut self.pos);
        self.entry.truncate(self.shared);
        self.entry.extend_from_slice(&bytes[self.pos..self.pos + suffix]);
        self.pos += suffix;
        self.next += 1;
    }
}

/// Appends entries in order: what [`FrontCoded::from_sorted`] and
/// [`FrontCoded::merge`] both write with.
#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
    blocks: Vec<u32>,
    len: u32,
    /// The last entry pushed.
    prev: Vec<u8>,
}

impl Writer {
    /// Append `s`, which sorts after every entry pushed; `shared`, when
    /// known, is the prefix it shares with the last one.
    fn push(&mut self, s: &[u8], shared: Option<usize>) {
        let shared = if self.len.is_multiple_of(B) {
            let at = u32::try_from(self.bytes.len()).expect("a dictionary's bytes fit u32 offsets");
            self.blocks.push(at);
            0
        } else {
            let shared = shared
                .unwrap_or_else(|| self.prev.iter().zip(s).take_while(|(a, b)| a == b).count());
            varint::write_u64(&mut self.bytes, shared as u64);
            shared
        };
        varint::write_u64(&mut self.bytes, (s.len() - shared) as u64);
        self.bytes.extend_from_slice(&s[shared..]);
        self.prev.truncate(shared);
        self.prev.extend_from_slice(&s[shared..]);
        self.len += 1;
    }

    fn finish(self) -> FrontCoded {
        FrontCoded {
            bytes: self.bytes.into_boxed_slice(),
            blocks: self.blocks.into_boxed_slice(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[&str]) -> FrontCoded {
        let mut sorted: Vec<&str> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        FrontCoded::from_sorted(&sorted).expect("build front coding")
    }

    #[test]
    fn paper_example_dictionary() {
        // The search_string dictionary of Figure 1.
        let values = [
            "ab in den Urlaub",
            "amazon",
            "cheap flights",
            "cheap tickets",
            "chaussures",
            "ebay",
            "faschingskostüme",
            "immobilienscout",
            "karnevalskostüme",
            "la redoute",
            "pages jaunes",
            "voyages snfc",
            "yellow pages",
        ];
        let mut sorted: Vec<&str> = values.to_vec();
        sorted.sort_unstable();
        let dict = FrontCoded::from_sorted(&sorted).unwrap();
        assert_eq!(dict.len(), 13);
        for (id, v) in sorted.iter().enumerate() {
            assert_eq!(dict.id_of(v), Some(id as u32), "value {v}");
            assert_eq!(dict.value(id as u32), *v, "id {id}");
        }
        assert_eq!(dict.id_of("la red"), None);
        assert_eq!(dict.id_of("la redoute!"), None);
        assert_eq!(dict.id_of(""), None);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = FrontCoded::from_sorted::<&str>(&[]).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.id_of("x"), None);
        assert_eq!(empty.rank("x"), Err(0));

        let one = build(&["hello"]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.id_of("hello"), Some(0));
        assert_eq!(one.value(0), "hello");
        assert_eq!((one.rank("a"), one.rank("z")), (Err(0), Err(1)));
    }

    #[test]
    fn empty_string_is_storable() {
        let d = build(&["", "a", "ab"]);
        assert_eq!(d.id_of(""), Some(0));
        assert_eq!(d.id_of("a"), Some(1));
        assert_eq!(d.id_of("ab"), Some(2));
        assert_eq!(d.value(0), "");
        assert_eq!(d.value(1), "a");
        assert_eq!(d.value(2), "ab");
    }

    #[test]
    fn prefix_chains() {
        // Strings that are prefixes of each other: every entry shares all
        // of its predecessor.
        let d = build(&["a", "aa", "aaa", "aaaa", "ab", "b"]);
        let sorted = ["a", "aa", "aaa", "aaaa", "ab", "b"];
        for (id, v) in sorted.iter().enumerate() {
            assert_eq!(d.id_of(v), Some(id as u32));
            assert_eq!(d.value(id as u32), *v);
        }
        assert_eq!(d.id_of("aaaaa"), None);
    }

    #[test]
    fn unsorted_input_rejected() {
        assert!(FrontCoded::from_sorted(&["b", "a"]).is_err());
        assert!(FrontCoded::from_sorted(&["a", "a"]).is_err());
    }

    #[test]
    fn unicode_strings_round_trip() {
        let d = build(&["Ärger", "auto", "kostüme", "règle", "日本語", "中文"]);
        let mut values: Vec<&str> = vec!["Ärger", "auto", "kostüme", "règle", "日本語", "中文"];
        values.sort_unstable();
        for (id, v) in values.iter().enumerate() {
            assert_eq!(d.id_of(v), Some(id as u32), "{v}");
            assert_eq!(d.value(id as u32), *v);
        }
    }

    #[test]
    fn for_each_visits_in_order() {
        let values: Vec<String> =
            (0..500).map(|i| format!("table_{:04}_2011-12-{:02}", i % 97, i % 28 + 1)).collect();
        let mut sorted: Vec<&str> = values.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let d = FrontCoded::from_sorted(&sorted).unwrap();
        let mut seen = Vec::new();
        d.for_each(|id, s| {
            assert_eq!(id as usize, seen.len());
            seen.push(utf8(s).to_owned());
        });
        assert_eq!(seen, sorted);
    }

    #[test]
    fn values_of_decodes_only_what_was_asked() {
        // Prefix chains, the empty string, and ids on both sides of a
        // block boundary.
        let mut sorted: Vec<String> =
            ["", "a", "aa", "aaa", "aaaa", "ab", "b", "ba"].map(String::from).to_vec();
        sorted.extend((0..30).map(|i| format!("c{i:02}")));
        let d = FrontCoded::from_sorted(&sorted).unwrap();
        let all: Vec<u32> = (0..d.len()).collect();
        assert_eq!(d.values_of(&all), sorted);
        assert_eq!(d.values_of(&[]), Vec::<String>::new());
        assert_eq!(d.values_of(&[0]), [""]);
        assert_eq!(d.values_of(&[4, 7]), ["aaaa", "ba"]);
        assert_eq!(d.values_of(&[1, 3, 5, 6]), ["a", "aaa", "ab", "b"]);
        assert_eq!(d.values_of(&[15, 16, 37]), ["c07", "c08", "c29"]);
        assert_eq!(FrontCoded::from_sorted::<&str>(&[]).unwrap().values_of(&[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn values_of_bounds_checked() {
        build(&["a", "b"]).values_of(&[1, 2]);
    }

    #[test]
    fn shared_prefixes_compress_well() {
        // Date-suffixed table names (the paper's motivating case): the
        // dictionary must be much smaller than the raw concatenated strings.
        let values: Vec<String> =
            (0..20_000).map(|i| format!("warehouse.revenue.daily_rollup_v2.{:05}", i)).collect();
        let d = FrontCoded::from_sorted(&values).unwrap();
        let raw: usize = values.iter().map(|s| s.len()).sum();
        assert!(d.heap_bytes() < raw / 3, "{} bytes vs raw {} bytes", d.heap_bytes(), raw);
        // Spot-check correctness at the edges.
        assert_eq!(d.id_of(&values[0]), Some(0));
        assert_eq!(d.id_of(&values[19_999]), Some(19_999));
        assert_eq!(d.value(12_345), values[12_345]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_bounds_checked() {
        build(&["a"]).value(1);
    }
}
