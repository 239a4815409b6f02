//! A stored column: the full §2.3 double-dictionary layout.
//!
//! `StoredColumn` owns the column's global dictionary and, per chunk, the
//! chunk dictionary plus the elements array. It can reconstruct any cell
//! (`value_at`), which is how Figure 1's
//! `dict(ch0.dict(ch0.elems[3]))` lookup chain appears in code.

use crate::options::{BuildOptions, DictMode};
use crate::partition::Partitioning;
use pd_common::{DataType, FxHashMap, Grid, HeapSize, Result, Value};
use pd_encoding::{ChunkDict, Elements, GlobalDict};

/// Per-chunk storage: chunk dictionary + elements.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    pub dict: ChunkDict,
    pub elements: Elements,
}

impl ColumnChunk {
    /// Rows in this chunk.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Global-id of the value in `row` (chunk-relative).
    #[inline]
    pub fn global_id_at(&self, row: usize) -> u32 {
        self.dict.get(self.elements.get(row))
    }

    /// Borrowed view of this chunk's raw element codes — what the group-by
    /// kernels iterate instead of calling [`Elements::get`] per row.
    #[inline]
    pub fn codes(&self) -> pd_encoding::CodesView<'_> {
        self.elements.codes()
    }

    /// Serialized payload (chunk dict + elements): what a compressed layer
    /// would hold, and what the Table 3–4 regenerators measure.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.dict.to_bytes();
        let elems = self.elements.to_bytes();
        out.extend_from_slice(&elems);
        out
    }
}

impl HeapSize for ColumnChunk {
    fn heap_bytes(&self) -> usize {
        self.dict.heap_bytes() + self.elements.heap_bytes()
    }
}

/// A fully encoded column.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredColumn {
    pub dict: GlobalDict,
    pub chunks: Vec<ColumnChunk>,
    /// A float column's [`Grid`], its dictionary's: kept beside it as the
    /// dictionary grows, never serialized. Empty for other types.
    grid: Grid,
}

impl StoredColumn {
    /// Encode from a sorted dictionary and one global-id per row, in stored
    /// order, against `partitioning`'s chunk boundaries — what every base
    /// column of an import and every virtual field is built from. A string
    /// dictionary is front-coded, and an integer one packed, here when the
    /// options ask for it.
    pub fn from_global_ids(
        dict: GlobalDict,
        global_ids: &[u32],
        partitioning: &Partitioning,
        options: &BuildOptions,
    ) -> Result<StoredColumn> {
        let dict = if options.dicts == DictMode::FrontCoded { dict.optimize()? } else { dict };
        let chunk_lens: Vec<usize> =
            (0..partitioning.chunk_count()).map(|c| partitioning.chunk_range(c).len()).collect();
        let grid = grid_of(&dict);
        let mut column = StoredColumn { dict, chunks: Vec::with_capacity(chunk_lens.len()), grid };
        column.append_chunks(global_ids, &chunk_lens, options);
        Ok(column)
    }

    /// Append a batch of coded rows — `dict`, a dictionary of this column's
    /// type over the batch's values, and a code into it per row — as fresh
    /// chunks of `chunk_lens` rows. `dict` is merged into the column's
    /// sorted dictionary ([`GlobalDict::merge`]); if that moved old ids, the
    /// old chunk dictionaries are renumbered through the merge's map, and
    /// their element arrays, which hold chunk-ids, are untouched.
    pub(crate) fn append_coded(
        &mut self,
        dict: &GlobalDict,
        codes: &[u32],
        chunk_lens: &[usize],
        options: &BuildOptions,
    ) -> Result<()> {
        let merged = self.dict.merge(dict)?;
        if let Some(map) = &merged.renumbered {
            self.chunks.iter_mut().for_each(|chunk| chunk.dict.renumber(map));
        }
        let global_ids: Vec<u32> = codes.iter().map(|&code| merged.ids[code as usize]).collect();
        self.append_chunks(&global_ids, chunk_lens, options);
        self.grid = self.grid.join(grid_of(dict));
        Ok(())
    }

    /// Encode global-ids as fresh chunks of the given row counts.
    fn append_chunks(&mut self, global_ids: &[u32], chunk_lens: &[usize], options: &BuildOptions) {
        debug_assert_eq!(global_ids.len(), chunk_lens.iter().sum::<usize>());
        let mut at = 0usize;
        for &len in chunk_lens {
            let slice = &global_ids[at..at + len];
            at += len;

            // Chunk dictionary: sorted distinct global-ids of the slice.
            let mut distinct: Vec<u32> = slice.to_vec();
            distinct.sort_unstable();
            distinct.dedup();

            // Translate global-ids to dense chunk-ids. A hash map beats
            // per-row binary search for large chunks.
            let lookup: FxHashMap<u32, u32> = distinct
                .iter()
                .enumerate()
                .map(|(chunk_id, &gid)| (gid, chunk_id as u32))
                .collect();
            let chunk_ids: Vec<u32> = slice.iter().map(|gid| lookup[gid]).collect();

            let elements = Elements::encode(&chunk_ids, distinct.len() as u32, options.elements);
            let dict = ChunkDict::from_sorted(distinct, options.elements)
                .expect("sorted+deduped ids are a valid chunk dictionary");
            self.chunks.push(ColumnChunk { dict, elements });
        }
    }

    pub fn data_type(&self) -> DataType {
        self.dict.data_type()
    }

    /// Whether plain `+` sums any `rows` of this float column's values
    /// exactly ([`Grid::sums_exactly`]), read in O(1) off its grid and its
    /// dictionary's two ends: the dictionary is in `total_cmp` order, which
    /// puts a NaN or an infinity, if it has one, at an end, and the larger
    /// magnitude of the two finite ends is the column's max|x|. False for a
    /// column of another type.
    pub fn sums_exactly(&self, rows: u64) -> bool {
        let GlobalDict::Float(dict) = &self.dict else { return false };
        match (dict.values().first(), dict.values().last()) {
            (Some(first), Some(last)) if first.is_finite() && last.is_finite() => {
                self.grid.sums_exactly(rows, first.abs().max(last.abs()))
            }
            (None, None) => true,
            _ => false,
        }
    }

    /// Total rows across chunks.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(ColumnChunk::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct the value at `row` within `chunk` — the Figure 1 lookup
    /// chain `dict(chN.dict(chN.elems[row]))`.
    pub fn value_at(&self, chunk: usize, row: usize) -> Value {
        self.dict.value(self.chunks[chunk].global_id_at(row))
    }

    /// Chunk `chunk`'s dictionary as values, by chunk-id.
    pub(crate) fn chunk_values(&self, chunk: usize) -> Vec<Value> {
        self.chunks[chunk].dict.ids().iter().map(|gid| self.dict.value(gid)).collect()
    }

    /// Memory of the global dictionary alone.
    pub fn dict_bytes(&self) -> usize {
        self.dict.heap_bytes()
    }

    /// Memory of all chunk dictionaries.
    pub fn chunk_dict_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.dict.heap_bytes()).sum()
    }

    /// Memory of all element arrays.
    pub fn elements_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.elements.heap_bytes()).sum()
    }

    /// Total memory footprint (the per-column number behind Tables 1–4).
    pub fn total_bytes(&self) -> usize {
        self.dict_bytes() + self.chunk_dict_bytes() + self.elements_bytes()
    }

    /// Resolve a set of literal values to the global-ids of the entries
    /// SQL-equal to one of them (sorted, deduplicated; absent values
    /// dropped) — the first step of §2.4's skipping decision. `None` when a
    /// literal cannot be resolved exactly
    /// ([`GlobalDict::resolves_exactly`]): the set is then unknown, not
    /// empty.
    pub fn global_ids_of(&self, values: &[Value]) -> Option<Vec<u32>> {
        let mut ids: Vec<u32> = Vec::with_capacity(values.len());
        for v in values {
            match (self.dict.data_type(), v) {
                // SQL equality compares Int with Float by `==`, under which
                // integer zero equals both float zeros — two entries.
                (DataType::Float, Value::Int(0)) => ids.extend(
                    [0.0, -0.0].into_iter().filter_map(|z| self.dict.id_of(&Value::Float(z))),
                ),
                _ if !self.dict.resolves_exactly(v) => return None,
                _ => ids.extend(self.dict.id_of(v)),
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }
}

/// A float dictionary's grid; the empty grid for any other.
fn grid_of(dict: &GlobalDict) -> Grid {
    match dict {
        GlobalDict::Float(dict) => Grid::of(dict.values()),
        _ => Grid::EMPTY,
    }
}

impl HeapSize for StoredColumn {
    fn heap_bytes(&self) -> usize {
        self.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PartitionSpec;
    use pd_encoding::build_dict;

    /// Code `values` (in stored order) and encode them as one column.
    fn build(values: &[Value], p: &Partitioning, options: &BuildOptions) -> StoredColumn {
        let (dict, global_ids) = build_dict(values).unwrap();
        StoredColumn::from_global_ids(dict, &global_ids, p, options).unwrap()
    }

    fn values(strs: &[&str]) -> Vec<Value> {
        strs.iter().map(|s| Value::from(*s)).collect()
    }

    /// Figure 1's search_string column, pre-arranged into 3 chunks.
    fn figure1_column() -> (Vec<Value>, Partitioning) {
        // chunk 0: ebay, cheap flights, amazon, ebay, yellow pages (ids 5,2,1,5,12)
        // chunk 1: ab in den Urlaub, amazon, ebay, faschingskostüme (0,1,5,6)
        // chunk 2: chaussures, voyages snfc, la redoute (11,10,9)
        let vals = values(&[
            "ebay",
            "cheap flights",
            "amazon",
            "ebay",
            "yellow pages",
            "ab in den Urlaub",
            "amazon",
            "ebay",
            "faschingskostüme",
            "chaussures",
            "voyages snfc",
            "la redoute",
        ]);
        let p = Partitioning { row_order: (0..12).collect(), chunk_starts: vec![0, 5, 9, 12] };
        (vals, p)
    }

    #[test]
    fn figure1_layout_reconstructs() {
        let (vals, p) = figure1_column();
        let col = build(&vals, &p, &BuildOptions::basic());
        assert_eq!(col.chunks.len(), 3);
        for c in 0..3 {
            let range = p.chunk_range(c);
            for (i, global_row) in range.clone().enumerate() {
                assert_eq!(col.value_at(c, i), vals[global_row], "chunk {c} row {i}");
            }
        }
        // The chunk dictionaries are small and chunk-local.
        assert_eq!(col.chunks[2].dict.len(), 3);
    }

    #[test]
    fn global_ids_of_drops_absent_values() {
        let (vals, p) = figure1_column();
        let col = build(&vals, &p, &BuildOptions::basic());
        let ids = col
            .global_ids_of(&[
                Value::from("la redoute"),
                Value::from("voyages sncf"), // note: paper's dictionary stores "voyages snfc"
                Value::from("ebay"),
            ])
            .unwrap();
        // Two present values; the absent one is dropped.
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn global_ids_of_follows_sql_equality_across_numeric_types() {
        let p = Partitioning::single_chunk(3);
        let floats = [Value::Float(-0.0), Value::Float(0.0), Value::Float(2.0)];
        let col = build(&floats, &p, &BuildOptions::basic());
        // Integer zero equals both float zeros; other integers name one entry.
        assert_eq!(col.global_ids_of(&[Value::Int(0)]), Some(vec![0, 1]));
        assert_eq!(col.global_ids_of(&[Value::Int(2), Value::Float(0.0)]), Some(vec![1, 2]));
        let ints = [Value::Int(0), Value::Int(5), Value::Int(i64::MAX)];
        let col = build(&ints, &p, &BuildOptions::basic());
        assert_eq!(col.global_ids_of(&[Value::Float(5.0), Value::Float(5.5)]), Some(vec![1]));
        // Not "absent": several integers may equal a float this large.
        assert_eq!(col.global_ids_of(&[Value::Int(5), Value::Float(1e30)]), None);
        assert_eq!(col.global_ids_of(&[Value::Float(f64::NAN)]), None);
    }

    #[test]
    fn optimized_elements_shrink_low_cardinality_chunks() {
        // One country per chunk → Const encoding, 0 bytes of elements.
        let mut vals = Vec::new();
        vals.extend(values(&["US"; 100]));
        vals.extend(values(&["DE"; 100]));
        let p = Partitioning { row_order: (0..200).collect(), chunk_starts: vec![0, 100, 200] };

        let basic = build(&vals, &p, &BuildOptions::basic());
        assert_eq!(basic.elements_bytes(), 200 * 4);

        let opt = build(&vals, &p, &BuildOptions::optcols(PartitionSpec::new(&["country"], 100)));
        assert_eq!(opt.elements_bytes(), 0, "both chunks are single-valued");
        assert_eq!(opt.chunks[0].elements.repr_name(), "const");
    }

    #[test]
    fn front_coded_dicts_shrink_string_columns() {
        let vals: Vec<Value> = (0..2000)
            .map(|i| {
                Value::from(format!("logs.ads.queries_{:03}.2011-11-{:02}", i % 40, i % 28 + 1))
            })
            .collect();
        let p = Partitioning::single_chunk(vals.len());
        let spec = PartitionSpec::new(&[], 1_000_000);
        let sorted = build(&vals, &p, &BuildOptions::optcols(spec.clone()));
        let front_coded = build(&vals, &p, &BuildOptions::optdicts(spec));
        assert!(
            front_coded.dict_bytes() < sorted.dict_bytes() / 2,
            "front-coded {} vs sorted {}",
            front_coded.dict_bytes(),
            sorted.dict_bytes()
        );
        // Same logical mapping.
        for i in (0..vals.len()).step_by(97) {
            assert_eq!(front_coded.value_at(0, i), sorted.value_at(0, i));
        }
    }

    #[test]
    fn numeric_columns_round_trip() {
        let vals: Vec<Value> = (0..500).map(|i| Value::Int((i % 37) * 1000)).collect();
        let p = Partitioning { row_order: (0..500).collect(), chunk_starts: vec![0, 250, 500] };
        let col = build(&vals, &p, &BuildOptions::default());
        assert_eq!(col.data_type(), DataType::Int);
        for c in 0..2 {
            for (i, global_row) in p.chunk_range(c).clone().enumerate() {
                assert_eq!(col.value_at(c, i), vals[global_row]);
            }
        }
        // u8 elements suffice for 37 distinct values.
        assert_eq!(col.chunks[0].elements.repr_name(), "u8");
    }
}
