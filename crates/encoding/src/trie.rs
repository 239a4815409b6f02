//! The hand-crafted 4-bit trie for string global-dictionaries.
//!
//! §3 "Optimize Global-Dictionaries": *"We have implemented a high
//! performance trie data-structure which is built on a handcrafted encoding
//! stored in a large byte array. [...] the inner nodes are chosen to
//! represent 4 bit parts of the represented strings [...]. On lookup one can
//! afford to iterate over all children of each node along the path [...]
//! at most 16 operations per node."*
//!
//! This implementation stores a path-compressed 16-ary trie over the
//! *nibbles* (4-bit halves, high first) of the UTF-8 bytes in one contiguous
//! byte array. It supports both lookup directions the paper requires:
//!
//! - string → global-id ([`TrieDict::rank`], and [`TrieDict::id_of`] over
//!   it): descend by nibble, summing the terminal counts of skipped earlier
//!   siblings — the rank falls out of the walk, for a string the trie lacks
//!   too (its insertion point);
//! - global-id → string ([`TrieDict::value`]): descend by comparing the
//!   remaining rank against per-child terminal counts (≤ 16 operations per
//!   node, exactly the trade the paper describes).
//!
//! ### Node encoding
//!
//! Nodes are serialized in preorder. Each node is:
//!
//! ```text
//! flags:u8                  // bit0: a string ends at this node
//! label_len:varint          // nibble count of the path-compressed label
//! label:ceil(label_len/2)B  // packed nibbles, high first
//! child_mask:u16 LE         // which of the 16 nibble branches exist
//! per child (ascending):    // varint(subtree_bytes), varint(subtree_terminals)
//! children...               // the child subtrees, in order
//! ```

use pd_common::{Error, HeapSize, Result};
use pd_compress::varint;
use std::cmp::Ordering;

/// A read-only string dictionary encoded as a 4-bit trie in one byte array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieDict {
    bytes: Box<[u8]>,
    len: u32,
}

const FLAG_TERMINAL: u8 = 1;

#[inline]
fn nibble(bytes: &[u8], i: usize) -> u8 {
    let b = bytes[i / 2];
    if i.is_multiple_of(2) {
        b >> 4
    } else {
        b & 0x0f
    }
}

#[inline]
fn nibble_len(bytes: &[u8]) -> usize {
    bytes.len() * 2
}

/// In-memory node used only while building.
struct BuildNode {
    /// Path-compressed label, as nibbles.
    label: Vec<u8>,
    terminal: bool,
    /// `(branch_nibble, child)`, ascending by nibble.
    children: Vec<(u8, BuildNode)>,
    /// Terminal count of this subtree (filled bottom-up).
    terminals: u32,
    /// Encoded byte size of this subtree (filled bottom-up).
    encoded_size: usize,
}

impl TrieDict {
    /// Build from strings that are **sorted and unique**.
    ///
    /// The global dictionary invariant (§2.3: "values are stored in a sorted
    /// manner") makes this the natural construction path; unsorted or
    /// duplicated input is an error.
    pub fn from_sorted<S: AsRef<str>>(values: &[S]) -> Result<TrieDict> {
        for pair in values.windows(2) {
            if pair[0].as_ref() >= pair[1].as_ref() {
                return Err(Error::Data(format!(
                    "trie input must be sorted and unique, got `{}` before `{}`",
                    pair[0].as_ref(),
                    pair[1].as_ref()
                )));
            }
        }
        if values.is_empty() {
            return Ok(TrieDict { bytes: Box::default(), len: 0 });
        }
        let byte_views: Vec<&[u8]> = values.iter().map(|s| s.as_ref().as_bytes()).collect();
        let mut root = build_node(&byte_views, 0);
        finalize(&mut root);
        let mut bytes = Vec::with_capacity(root.encoded_size);
        serialize(&root, &mut bytes);
        debug_assert_eq!(bytes.len(), root.encoded_size);
        Ok(TrieDict { bytes: bytes.into_boxed_slice(), len: values.len() as u32 })
    }

    /// Number of strings stored.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rank (global-id) of `value`, if present.
    pub fn id_of(&self, value: &str) -> Option<u32> {
        self.rank(value).ok()
    }

    /// Where `probe` stands among the stored strings, with
    /// [`slice::binary_search`]'s contract: `Ok(rank)` if it is stored,
    /// `Err(rank)` of the first string above it if not.
    ///
    /// Nibbles order as the UTF-8 bytes they halve, and UTF-8 bytes as the
    /// strings, so one descent answers: along the way it counts the strings
    /// below the probe — a terminal it passes (a prefix of the probe) and
    /// the subtrees of earlier siblings — and where the probe leaves the
    /// trie, a label the probe runs above counts its whole subtree too.
    pub fn rank(&self, probe: &str) -> std::result::Result<u32, u32> {
        if self.len == 0 {
            return Err(0);
        }
        let target = probe.as_bytes();
        let target_nibs = nibble_len(target);
        let mut pos = 0usize;
        let mut i = 0usize; // nibbles of `target` consumed
        let mut rank = 0u32;
        let mut subtree = self.len; // strings beneath `pos`
        loop {
            let node = Node::parse(&self.bytes, pos);
            // Match the path-compressed label; a probe that ends inside it
            // (`None`) is a prefix of, so below, every string of the subtree.
            for k in 0..node.label_len {
                let probe = (i < target_nibs).then(|| nibble(target, i));
                match probe.cmp(&Some(node.label_nibble(k))) {
                    Ordering::Less => return Err(rank),
                    Ordering::Greater => return Err(rank + subtree),
                    Ordering::Equal => i += 1,
                }
            }
            if i == target_nibs {
                return node.terminal.then_some(rank).ok_or(rank);
            }
            rank += u32::from(node.terminal); // a prefix of the probe
            let branch = nibble(target, i);
            let mut child_pos = node.children_start;
            let mut found = None;
            for (nib, size, terminals) in node.children() {
                if nib >= branch {
                    found = (nib == branch).then_some((child_pos, terminals));
                    break;
                }
                rank += terminals;
                child_pos += size;
            }
            (pos, subtree) = found.ok_or(rank)?;
            i += 1;
        }
    }

    /// The string with rank `id`. Panics if `id >= len()`.
    pub fn value(&self, id: u32) -> String {
        assert!(id < self.len, "global-id {id} out of bounds (len {})", self.len);
        let mut target = id;
        let mut pos = 0usize;
        let mut path = Path::default();
        loop {
            let node = Node::parse(&self.bytes, pos);
            (0..node.label_len).for_each(|k| path.push(node.label_nibble(k)));
            if node.terminal {
                if target == 0 {
                    return utf8(path.bytes()).to_owned();
                }
                target -= 1;
            }
            let mut child_pos = node.children_start;
            let mut descended = false;
            for (nib, size, terminals) in node.children() {
                if target < terminals {
                    path.push(nib);
                    pos = child_pos;
                    descended = true;
                    break;
                }
                target -= terminals;
                child_pos += size;
            }
            assert!(descended, "corrupt trie: rank {id} not found");
        }
    }

    /// Visit `(id, UTF-8 bytes)` for every entry in ascending order.
    ///
    /// A single DFS — much cheaper than `len()` independent
    /// [`TrieDict::value`] lookups when exporting or re-encoding the
    /// dictionary — that hands out the path it holds: no string is built.
    pub fn for_each(&self, mut f: impl FnMut(u32, &[u8])) {
        if self.len == 0 {
            return;
        }
        let mut next_id = 0u32;
        self.dfs(0, &mut Path::default(), &mut next_id, &mut f);
        debug_assert_eq!(next_id, self.len);
    }

    fn dfs(&self, pos: usize, path: &mut Path, next_id: &mut u32, f: &mut impl FnMut(u32, &[u8])) {
        let node = Node::parse(&self.bytes, pos);
        let label_start = path.nibbles;
        (0..node.label_len).for_each(|k| path.push(node.label_nibble(k)));
        if node.terminal {
            f(*next_id, path.bytes());
            *next_id += 1;
        }
        let mut child_pos = node.children_start;
        for (nib, size, _) in node.children() {
            path.push(nib);
            self.dfs(child_pos, path, next_id, f);
            path.truncate(path.nibbles - 1);
            child_pos += size;
        }
        path.truncate(label_start);
    }

    /// The UTF-8 bytes of the strings with ranks `ids`, which must be
    /// strictly ascending and below `len()` (panics otherwise), handed to
    /// `f` in that order.
    ///
    /// One DFS that descends only into children whose rank interval holds
    /// a wanted id: every node on the way to some wanted string is parsed
    /// once and shared prefixes are walked once, where `ids.len()` calls
    /// of [`TrieDict::value`] each restart at the root. No string is built:
    /// `f` reads the path the walk holds.
    pub fn for_each_of(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly ascending");
        if let Some(&last) = ids.last() {
            assert!(last < self.len, "global-id {last} out of bounds (len {})", self.len);
            self.collect(0, 0, ids, &mut Path::default(), &mut f);
        }
    }

    /// The strings with ranks `ids` ([`TrieDict::for_each_of`]'s contract),
    /// in that order.
    pub fn values_of(&self, ids: &[u32]) -> Vec<String> {
        let mut out = Vec::with_capacity(ids.len());
        self.for_each_of(ids, |s| out.push(utf8(s).to_owned()));
        out
    }

    /// Hand `f` the strings of the subtree at `pos` whose ranks are `ids`
    /// (non-empty, ascending, all inside the subtree, whose first rank is
    /// `first`).
    fn collect(
        &self,
        pos: usize,
        first: u32,
        mut ids: &[u32],
        path: &mut Path,
        f: &mut impl FnMut(&[u8]),
    ) {
        let node = Node::parse(&self.bytes, pos);
        let label_start = path.nibbles;
        (0..node.label_len).for_each(|k| path.push(node.label_nibble(k)));
        let mut rank = first;
        if node.terminal {
            if ids[0] == rank {
                f(path.bytes());
                ids = &ids[1..];
            }
            rank += 1;
        }
        let mut child_pos = node.children_start;
        for (nib, size, terminals) in node.children() {
            if ids.is_empty() {
                break;
            }
            let end = rank + terminals;
            let wanted = ids.partition_point(|&id| id < end);
            if wanted > 0 {
                path.push(nib);
                self.collect(child_pos, rank, &ids[..wanted], path, f);
                path.truncate(path.nibbles - 1);
                ids = &ids[wanted..];
            }
            rank = end;
            child_pos += size;
        }
        path.truncate(label_start);
    }

    /// The raw encoded byte array (its length is the memory footprint the
    /// §3 experiment reports).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl HeapSize for TrieDict {
    fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A stored string's bytes as the `str` they are.
fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("trie stores valid UTF-8")
}

/// The nibbles from the root to a node, packed two to a byte as the
/// string's bytes are: at a terminal (an even count) they *are* its bytes.
#[derive(Default)]
struct Path {
    packed: Vec<u8>,
    nibbles: usize,
}

impl Path {
    fn push(&mut self, nib: u8) {
        match self.packed.last_mut() {
            Some(low) if self.nibbles % 2 == 1 => *low |= nib,
            _ => self.packed.push(nib << 4),
        }
        self.nibbles += 1;
    }

    /// Back to the first `nibbles` nibbles.
    fn truncate(&mut self, nibbles: usize) {
        self.packed.truncate(nibbles.div_ceil(2));
        if let (Some(low), 1) = (self.packed.last_mut(), nibbles % 2) {
            *low &= 0xf0;
        }
        self.nibbles = nibbles;
    }

    fn bytes(&self) -> &[u8] {
        debug_assert!(self.nibbles.is_multiple_of(2), "a string ends on a byte boundary");
        &self.packed
    }
}

/// Parsed view of one encoded node.
struct Node<'a> {
    bytes: &'a [u8],
    terminal: bool,
    label_len: usize,
    label_start: usize,
    /// `(branch_nibble, subtree_bytes, subtree_terminals)` of the first
    /// `child_count` children, ascending: their metadata read once.
    children: [(u8, usize, u32); 16],
    child_count: usize,
    /// Offset of the first child's encoding.
    children_start: usize,
}

impl<'a> Node<'a> {
    fn parse(bytes: &'a [u8], pos: usize) -> Node<'a> {
        let flags = bytes[pos];
        let mut cursor = pos + 1;
        let label_len = varint::read_u64(bytes, &mut cursor).expect("valid trie") as usize;
        let label_start = cursor;
        cursor += label_len.div_ceil(2);
        let child_mask = u16::from_le_bytes([bytes[cursor], bytes[cursor + 1]]);
        cursor += 2;
        let mut children = [(0, 0, 0); 16];
        let mut child_count = 0;
        for nib in (0..16u8).filter(|n| child_mask & (1 << n) != 0) {
            let size = varint::read_u64(bytes, &mut cursor).expect("valid trie") as usize;
            let terminals = varint::read_u64(bytes, &mut cursor).expect("valid trie") as u32;
            children[child_count] = (nib, size, terminals);
            child_count += 1;
        }
        Node {
            bytes,
            terminal: flags & FLAG_TERMINAL != 0,
            label_len,
            label_start,
            children,
            child_count,
            children_start: cursor,
        }
    }

    #[inline]
    fn label_nibble(&self, k: usize) -> u8 {
        let b = self.bytes[self.label_start + k / 2];
        if k.is_multiple_of(2) {
            b >> 4
        } else {
            b & 0x0f
        }
    }

    /// Iterate `(branch_nibble, subtree_bytes, subtree_terminals)` ascending.
    fn children(&self) -> impl Iterator<Item = (u8, usize, u32)> + '_ {
        self.children[..self.child_count].iter().copied()
    }
}

/// Recursively build the radix tree for the sorted range `strings`, whose
/// elements all share (and have consumed) `depth` nibbles.
fn build_node(strings: &[&[u8]], depth: usize) -> BuildNode {
    debug_assert!(!strings.is_empty());
    let first = strings[0];
    let last = strings[strings.len() - 1];

    // Path compression: the label is the longest common nibble prefix of the
    // range. Because the range is sorted, LCP(first, last) covers it.
    let mut end = depth;
    let max = nibble_len(first).min(nibble_len(last));
    while end < max && nibble(first, end) == nibble(last, end) {
        end += 1;
    }
    let label: Vec<u8> = (depth..end).map(|i| nibble(first, i)).collect();

    let terminal = nibble_len(first) == end;
    let rest = if terminal { &strings[1..] } else { strings };

    let mut children: Vec<(u8, BuildNode)> = Vec::new();
    let mut lo = 0;
    while lo < rest.len() {
        let branch = nibble(rest[lo], end);
        let mut hi = lo + 1;
        while hi < rest.len() && nibble(rest[hi], end) == branch {
            hi += 1;
        }
        children.push((branch, build_node(&rest[lo..hi], end + 1)));
        lo = hi;
    }
    BuildNode { label, terminal, children, terminals: 0, encoded_size: 0 }
}

/// Bottom-up pass computing subtree terminal counts and encoded sizes.
fn finalize(node: &mut BuildNode) {
    let mut terminals = node.terminal as u32;
    let mut size = 1 + varint::len_u64(node.label.len() as u64) + node.label.len().div_ceil(2) + 2;
    for (_, child) in &mut node.children {
        finalize(child);
        terminals += child.terminals;
        size += varint::len_u64(child.encoded_size as u64)
            + varint::len_u64(u64::from(child.terminals))
            + child.encoded_size;
    }
    node.terminals = terminals;
    node.encoded_size = size;
}

fn serialize(node: &BuildNode, out: &mut Vec<u8>) {
    out.push(if node.terminal { FLAG_TERMINAL } else { 0 });
    varint::write_u64(out, node.label.len() as u64);
    for pair in node.label.chunks(2) {
        let hi = pair[0] << 4;
        let lo = if pair.len() == 2 { pair[1] } else { 0 };
        out.push(hi | lo);
    }
    let mut mask = 0u16;
    for (nib, _) in &node.children {
        mask |= 1 << nib;
    }
    out.extend_from_slice(&mask.to_le_bytes());
    for (_, child) in &node.children {
        varint::write_u64(out, child.encoded_size as u64);
        varint::write_u64(out, u64::from(child.terminals));
    }
    for (_, child) in &node.children {
        serialize(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[&str]) -> TrieDict {
        let mut sorted: Vec<&str> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        TrieDict::from_sorted(&sorted).expect("build trie")
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
        let trie = TrieDict::from_sorted(&sorted).unwrap();
        assert_eq!(trie.len(), 13);
        for (id, v) in sorted.iter().enumerate() {
            assert_eq!(trie.id_of(v), Some(id as u32), "value {v}");
            assert_eq!(trie.value(id as u32), *v, "id {id}");
        }
        assert_eq!(trie.id_of("la red"), None);
        assert_eq!(trie.id_of("la redoute!"), None);
        assert_eq!(trie.id_of(""), None);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = TrieDict::from_sorted::<&str>(&[]).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.id_of("x"), None);

        let one = build(&["hello"]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.id_of("hello"), Some(0));
        assert_eq!(one.value(0), "hello");
    }

    #[test]
    fn empty_string_is_storable() {
        let t = build(&["", "a", "ab"]);
        assert_eq!(t.id_of(""), Some(0));
        assert_eq!(t.id_of("a"), Some(1));
        assert_eq!(t.id_of("ab"), Some(2));
        assert_eq!(t.value(0), "");
        assert_eq!(t.value(1), "a");
        assert_eq!(t.value(2), "ab");
    }

    #[test]
    fn prefix_chains() {
        // Strings that are prefixes of each other stress the terminal-
        // in-the-middle-of-a-path case.
        let t = build(&["a", "aa", "aaa", "aaaa", "ab", "b"]);
        let sorted = ["a", "aa", "aaa", "aaaa", "ab", "b"];
        for (id, v) in sorted.iter().enumerate() {
            assert_eq!(t.id_of(v), Some(id as u32));
            assert_eq!(t.value(id as u32), *v);
        }
        assert_eq!(t.id_of("aaaaa"), None);
    }

    #[test]
    fn unsorted_input_rejected() {
        assert!(TrieDict::from_sorted(&["b", "a"]).is_err());
        assert!(TrieDict::from_sorted(&["a", "a"]).is_err());
    }

    #[test]
    fn unicode_strings_round_trip() {
        let t = build(&["Ärger", "auto", "kostüme", "règle", "日本語", "中文"]);
        let mut values: Vec<&str> = vec!["Ärger", "auto", "kostüme", "règle", "日本語", "中文"];
        values.sort_unstable();
        for (id, v) in values.iter().enumerate() {
            assert_eq!(t.id_of(v), Some(id as u32), "{v}");
            assert_eq!(t.value(id as u32), *v);
        }
    }

    #[test]
    fn for_each_visits_in_order() {
        let values: Vec<String> =
            (0..500).map(|i| format!("table_{:04}_2011-12-{:02}", i % 97, i % 28 + 1)).collect();
        let mut sorted: Vec<&str> = values.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let t = TrieDict::from_sorted(&sorted).unwrap();
        let mut seen = Vec::new();
        t.for_each(|id, s| {
            assert_eq!(id as usize, seen.len());
            seen.push(utf8(s).to_owned());
        });
        assert_eq!(seen, sorted);
    }

    #[test]
    fn values_of_walks_only_what_was_asked() {
        // Terminals in the middle of a path, the empty string, a deep chain.
        let sorted = ["", "a", "aa", "aaa", "aaaa", "ab", "b", "ba"];
        let t = build(&sorted);
        let all: Vec<u32> = (0..t.len()).collect();
        assert_eq!(t.values_of(&all), sorted);
        assert_eq!(t.values_of(&[]), Vec::<String>::new());
        assert_eq!(t.values_of(&[0]), [""]);
        assert_eq!(t.values_of(&[4, 7]), ["aaaa", "ba"]);
        assert_eq!(t.values_of(&[1, 3, 5, 6]), ["a", "aaa", "ab", "b"]);
        assert_eq!(TrieDict::from_sorted::<&str>(&[]).unwrap().values_of(&[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn values_of_bounds_checked() {
        build(&["a", "b"]).values_of(&[1, 2]);
    }

    #[test]
    fn shared_prefixes_compress_well() {
        // Date-suffixed table names (the paper's motivating case): the trie
        // must be much smaller than the raw concatenated strings.
        let values: Vec<String> =
            (0..20_000).map(|i| format!("warehouse.revenue.daily_rollup_v2.{:05}", i)).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let t = TrieDict::from_sorted(&refs).unwrap();
        let raw: usize = values.iter().map(|s| s.len()).sum();
        assert!(t.heap_bytes() < raw / 3, "trie {} bytes vs raw {} bytes", t.heap_bytes(), raw);
        // Spot-check correctness at the edges.
        assert_eq!(t.id_of(&values[0]), Some(0));
        assert_eq!(t.id_of(&values[19_999]), Some(19_999));
        assert_eq!(t.value(12_345), values[12_345]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_bounds_checked() {
        build(&["a"]).value(1);
    }
}
