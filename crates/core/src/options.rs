//! Build configuration: the §3 optimization ladder as options.
//!
//! Each of the paper's layouts (Table 4) is a named constructor, so
//! experiments can build the same dataset four ways and diff the memory
//! reports; OptDicts front-codes the string dictionaries and packs the
//! integer ones. The last two rungs are not layouts: "Zippy" is a
//! measurement over any build, and "Reorder" is sorted input + OptDicts —
//! a table sorted by its partition fields ([`pd_data::Table::sorted_by`])
//! built with [`BuildOptions::optdicts`].

use pd_encoding::ElementsMode;

/// How string and integer global-dictionaries are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DictMode {
    /// Sorted array + binary search (the "canonical" §2.3 layout).
    #[default]
    Sorted,
    /// Front-coded blocks of the sorted strings, and the sorted integers
    /// as fixed-width offsets from their minimum ("OptDicts", §3). Float
    /// dictionaries stay arrays.
    FrontCoded,
}

/// Composite range partitioning configuration (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Ordered fields — "3–5 fields which amount to a 'natural primary
    /// key'". Split attempts use the first field with ≥ 2 distinct values
    /// remaining in the chunk.
    pub fields: Vec<String>,
    /// Stop splitting once no chunk exceeds this many rows (the paper's
    /// example threshold is 50'000).
    pub max_chunk_rows: usize,
}

impl PartitionSpec {
    pub fn new(fields: &[&str], max_chunk_rows: usize) -> Self {
        PartitionSpec { fields: fields.iter().map(|s| (*s).to_owned()).collect(), max_chunk_rows }
    }
}

/// Options controlling the import pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOptions {
    /// `None` treats the whole table as one chunk ("Basic").
    pub partition: Option<PartitionSpec>,
    /// Element array encoding.
    pub elements: ElementsMode,
    /// String and integer dictionary representation.
    pub dicts: DictMode,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions::optdicts(PartitionSpec { fields: Vec::new(), max_chunk_rows: 50_000 })
    }
}

impl BuildOptions {
    /// "Basic" (§2.3): one chunk, 32-bit elements, sorted-array dicts.
    pub fn basic() -> Self {
        BuildOptions { partition: None, elements: ElementsMode::Basic, dicts: DictMode::Sorted }
    }

    /// "Chunks" (§3): partitioned, otherwise basic.
    pub fn chunked(spec: PartitionSpec) -> Self {
        BuildOptions { partition: Some(spec), ..BuildOptions::basic() }
    }

    /// "OptCols" (§3): + adaptive element encodings, and chunk
    /// dictionaries as offsets from their first id in 1, 2 or 4 bytes.
    pub fn optcols(spec: PartitionSpec) -> Self {
        BuildOptions { elements: ElementsMode::Optimized, ..BuildOptions::chunked(spec) }
    }

    /// "OptDicts" (§3): + front-coded string and packed integer
    /// dictionaries.
    pub fn optdicts(spec: PartitionSpec) -> Self {
        BuildOptions { dicts: DictMode::FrontCoded, ..BuildOptions::optcols(spec) }
    }

    /// The production-style default for a dataset with the given natural
    /// key fields: OptDicts at the paper's 50'000-row threshold.
    pub fn production(fields: &[&str]) -> Self {
        BuildOptions::optdicts(PartitionSpec::new(fields, 50_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let spec = PartitionSpec::new(&["country", "table_name"], 50_000);
        let basic = BuildOptions::basic();
        assert!(basic.partition.is_none());
        assert_eq!(basic.elements, ElementsMode::Basic);

        let chunks = BuildOptions::chunked(spec.clone());
        assert!(chunks.partition.is_some());
        assert_eq!(chunks.elements, ElementsMode::Basic);

        let optcols = BuildOptions::optcols(spec.clone());
        assert_eq!(optcols.elements, ElementsMode::Optimized);
        assert_eq!(optcols.dicts, DictMode::Sorted);

        let optdicts = BuildOptions::optdicts(spec);
        assert_eq!(optdicts.dicts, DictMode::FrontCoded);
        assert_eq!(optdicts.elements, ElementsMode::Optimized);
    }

    #[test]
    fn partition_spec_holds_field_order() {
        let spec = PartitionSpec::new(&["country", "table_name"], 1000);
        assert_eq!(spec.fields, vec!["country".to_owned(), "table_name".to_owned()]);
        assert_eq!(spec.max_chunk_rows, 1000);
    }
}
