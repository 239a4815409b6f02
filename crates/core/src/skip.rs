//! Chunk activity analysis — the skipping decision of §2.4.
//!
//! For each chunk, the restriction tree is evaluated against the chunk
//! dictionaries into a three-valued verdict:
//!
//! - [`ChunkActivity::Skip`] — no row can match; the chunk is not scanned
//!   (92.41 % of production records, §6);
//! - [`ChunkActivity::Full`] — every row matches; the result for this chunk
//!   can come from the chunk-result cache (§6: "we also cache results for
//!   chunks which are fully active");
//! - [`ChunkActivity::Partial`] — some rows may match; the chunk is scanned
//!   with a row-level filter.
//!
//! The resolution of a restriction leaf — its literals looked up in the
//! global dictionary, §2.4's first step — serves two consumers: the verdict
//! here, and the row mask of a `Partial` chunk (`kernels::filter_mask`),
//! which turns the same resolved ids into chunk-ids and never looks at a
//! value. Both go through `resolve_leaf`. A verdict may err toward
//! `Partial`; a mask may not err at all, so the resolver answers only where
//! id semantics equal the row filter's bit for bit and declines otherwise.
//!
//! This is the one judge of a store's chunks: a scan consults nothing but
//! the store's own dictionaries, and only a scan reads `Full`. A tree parent
//! asks the value-domain summary it holds (`pd_dist::meta`) only whether a
//! child's chunk may match, to prune an edge before a hop; read off these
//! very dictionaries, it proves no Skip they do not wherever a literal
//! resolves exactly (`GlobalDict::resolves_exactly`); no leaf consults it.

use crate::column::StoredColumn;
use crate::datastore::DataStore;
use pd_common::Result;
use pd_sql::{Expr, Restriction};
use std::sync::Arc;

/// Three-valued chunk verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkActivity {
    /// No row of the chunk can satisfy the restriction.
    Skip,
    /// Every row of the chunk satisfies the restriction.
    Full,
    /// Mixed — scan with a row filter.
    Partial,
}

impl ChunkActivity {
    /// Conjunction of two *sound* verdicts over the same chunk: any proof
    /// of emptiness wins, Full survives only when both sides prove it.
    fn and(self, other: ChunkActivity) -> ChunkActivity {
        use ChunkActivity::*;
        match (self, other) {
            (Skip, _) | (_, Skip) => Skip,
            (Full, Full) => Full,
            _ => Partial,
        }
    }

    /// Disjunction of two sound verdicts: any proof of full activity wins,
    /// Skip survives only when both sides prove it (so `Skip` is the fold's
    /// identity).
    fn or(self, other: ChunkActivity) -> ChunkActivity {
        use ChunkActivity::*;
        match (self, other) {
            (Full, _) | (_, Full) => Full,
            (Skip, Skip) => Skip,
            _ => Partial,
        }
    }
}

/// An `In` / `Range` restriction leaf with its literals translated into
/// the field's global-id space — once per query, through
/// [`resolve_leaf`], for both consumers: the chunk verdict below and the
/// row mask (`kernels::filter_mask`). Because they share the resolution, a
/// verdict and a mask cannot disagree about what a leaf means.
pub(crate) struct ResolvedLeaf {
    /// The field's stored column (a base column or a materialized virtual
    /// field, §5).
    pub(crate) col: Arc<StoredColumn>,
    pub(crate) ids: LeafIds,
}

/// What a leaf's literals came to in the global-id domain. Exact: a row
/// satisfies the leaf iff its global-id is in the set / interval (negated
/// for `NOT IN`).
pub(crate) enum LeafIds {
    /// Sorted global-ids of the literals that exist in the dictionary.
    /// Absent literals match no row, so they are simply dropped: `IN` over
    /// only absent literals matches nothing, `NOT IN` everything.
    In { ids: Vec<u32>, negated: bool },
    /// Half-open global-id interval `[lo, hi)`: the extension range
    /// restriction (value order == id order in sorted dictionaries).
    Range { lo: u32, hi: u32 },
}

/// Resolve one restriction leaf against `store`, materializing the virtual
/// field it names if need be (§5: restrictions on materialized expressions
/// skip chunks through the expression's own chunk dictionaries).
///
/// `None` — for anything that is not an `In` / `Range` leaf, for a leaf
/// whose virtual field fails to materialize (the mask then evaluates the
/// leaf over the rows its scope leaves, which may not fail), and for a leaf
/// the dictionary cannot answer *exactly*: a float literal no integer
/// stands for (`GlobalDict::resolves_exactly`). The skip pass then scans
/// ("maybe") and the mask falls back to evaluating values. Every
/// dictionary flavour ranks a range bound of its type, front coding too. A
/// column the store lacks is an error.
pub(crate) fn resolve_leaf(store: &DataStore, leaf: &Restriction) -> Result<Option<ResolvedLeaf>> {
    let column = |field: &Expr| -> Result<Option<Arc<StoredColumn>>> {
        let mut names = Vec::new();
        field.referenced_columns(&mut names);
        names.iter().try_for_each(|name| store.column(name).map(drop))?;
        Ok(store.column_for_expr(field).ok())
    };
    Ok(match leaf {
        Restriction::In { field, values, negated } => column(field)?.and_then(|col| {
            col.global_ids_of(values)
                .map(|ids| ResolvedLeaf { col, ids: LeafIds::In { ids, negated: *negated } })
        }),
        Restriction::Range { field, min, max } => column(field)?.and_then(|col| {
            col.dict
                .range_ids(min.as_ref(), max.as_ref())
                .map(|(lo, hi)| ResolvedLeaf { col, ids: LeafIds::Range { lo, hi } })
        }),
        _ => None,
    })
}

impl ResolvedLeaf {
    /// Verdict for chunk `c`, from the chunk dictionary alone.
    fn activity(&self, c: usize) -> ChunkActivity {
        let dict = &self.col.chunks[c].dict;
        match &self.ids {
            LeafIds::Range { lo, hi } => {
                let Some((cmin, cmax)) = dict.bounds() else {
                    return ChunkActivity::Skip; // empty chunk
                };
                if *lo >= *hi || cmax < *lo || cmin >= *hi {
                    ChunkActivity::Skip
                } else if cmin >= *lo && cmax < *hi {
                    ChunkActivity::Full
                } else {
                    ChunkActivity::Partial
                }
            }
            LeafIds::In { ids, negated } => {
                // A chunk whose dictionary avoids all the ids has no row IN
                // them (and every row NOT IN them); one entirely inside
                // them the reverse.
                let (outside, inside) = if *negated {
                    (ChunkActivity::Full, ChunkActivity::Skip)
                } else {
                    (ChunkActivity::Skip, ChunkActivity::Full)
                };
                if !dict.contains_any(ids) {
                    outside
                } else if dict.subset_of(ids) {
                    inside
                } else {
                    ChunkActivity::Partial
                }
            }
        }
    }
}

/// A restriction with every leaf resolved (once per query, not per chunk).
enum ResolvedNode {
    True,
    And(Vec<ResolvedNode>),
    Or(Vec<ResolvedNode>),
    Leaf(ResolvedLeaf),
    Opaque,
}

/// The per-query skipping context: the restriction with every leaf
/// resolved against the store's dictionaries.
pub struct SkipAnalysis {
    resolved: ResolvedNode,
}

impl SkipAnalysis {
    /// Resolve `restriction` against `store`, materializing any virtual
    /// fields it references.
    pub fn prepare(store: &DataStore, restriction: &Restriction) -> Result<SkipAnalysis> {
        Ok(SkipAnalysis { resolved: resolve(store, restriction)? })
    }

    /// Verdict for chunk `c`, from its chunk dictionaries alone.
    pub fn activity(&self, c: usize) -> ChunkActivity {
        evaluate(&self.resolved, c)
    }

    /// Verdicts for every chunk.
    pub fn all(&self, chunk_count: usize) -> Vec<ChunkActivity> {
        (0..chunk_count).map(|c| self.activity(c)).collect()
    }
}

fn resolve(store: &DataStore, restriction: &Restriction) -> Result<ResolvedNode> {
    Ok(match restriction {
        Restriction::True => ResolvedNode::True,
        // An empty AND/OR errs toward maybe, as the edge verdicts do: `any`
        // over no child would prove every chunk empty.
        Restriction::And(children) | Restriction::Or(children) if children.is_empty() => {
            ResolvedNode::Opaque
        }
        Restriction::Opaque => ResolvedNode::Opaque,
        Restriction::And(children) => {
            ResolvedNode::And(children.iter().map(|r| resolve(store, r)).collect::<Result<_>>()?)
        }
        Restriction::Or(children) => {
            ResolvedNode::Or(children.iter().map(|r| resolve(store, r)).collect::<Result<_>>()?)
        }
        // A leaf the dictionary cannot answer exactly is scanned: the row
        // filter still applies.
        leaf => resolve_leaf(store, leaf)?.map_or(ResolvedNode::Opaque, ResolvedNode::Leaf),
    })
}

fn evaluate(node: &ResolvedNode, c: usize) -> ChunkActivity {
    match node {
        ResolvedNode::True => ChunkActivity::Full,
        ResolvedNode::Opaque => ChunkActivity::Partial,
        ResolvedNode::And(children) => {
            children.iter().map(|n| evaluate(n, c)).fold(ChunkActivity::Full, ChunkActivity::and)
        }
        ResolvedNode::Or(children) => {
            children.iter().map(|n| evaluate(n, c)).fold(ChunkActivity::Skip, ChunkActivity::or)
        }
        ResolvedNode::Leaf(leaf) => leaf.activity(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BuildOptions, PartitionSpec};
    use pd_common::{DataType, Row, Schema, Value};
    use pd_data::Table;
    use pd_sql::parse_query;

    /// A table partitioned by country into (at least) one chunk per value.
    fn store() -> DataStore {
        let schema = Schema::of(&[("country", DataType::Str), ("latency", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..300i64 {
            let country = ["DE", "FR", "US"][(i % 3) as usize];
            t.push_row(Row(vec![Value::from(country), Value::Int(i)])).unwrap();
        }
        DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["country"], 100))).unwrap()
    }

    fn verdicts(store: &DataStore, where_sql: &str) -> Vec<ChunkActivity> {
        let q = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}")).unwrap();
        let r = Restriction::from_expr(&q.where_clause.unwrap());
        SkipAnalysis::prepare(store, &r).unwrap().all(store.chunk_count())
    }

    #[test]
    fn equality_skips_other_countries() {
        let s = store();
        let v = verdicts(&s, "country = 'DE'");
        assert!(v.contains(&ChunkActivity::Full), "the DE chunk is fully active: {v:?}");
        assert!(v.contains(&ChunkActivity::Skip), "other chunks skip: {v:?}");
        assert!(!v.contains(&ChunkActivity::Partial), "country chunks are pure: {v:?}");
    }

    #[test]
    fn absent_value_skips_everything() {
        let s = store();
        let v = verdicts(&s, "country = 'ZZ'");
        assert!(v.iter().all(|a| *a == ChunkActivity::Skip));
    }

    #[test]
    fn not_in_flips_verdicts() {
        let s = store();
        let v_in = verdicts(&s, "country IN ('DE')");
        let v_not = verdicts(&s, "country NOT IN ('DE')");
        for (a, b) in v_in.iter().zip(&v_not) {
            match a {
                ChunkActivity::Full => assert_eq!(*b, ChunkActivity::Skip),
                ChunkActivity::Skip => assert_eq!(*b, ChunkActivity::Full),
                ChunkActivity::Partial => assert_eq!(*b, ChunkActivity::Partial),
            }
        }
    }

    #[test]
    fn and_or_combine() {
        let s = store();
        let v = verdicts(&s, "country = 'DE' AND country = 'FR'");
        assert!(v.iter().all(|a| *a == ChunkActivity::Skip), "contradiction skips all: {v:?}");
        let v = verdicts(&s, "country = 'DE' OR country = 'FR'");
        let full = v.iter().filter(|a| **a == ChunkActivity::Full).count();
        assert!(full >= 2, "both countries' chunks fully active: {v:?}");
    }

    #[test]
    fn opaque_forces_partial_scan() {
        let s = store();
        let v = verdicts(&s, "latency > 100");
        assert!(v.iter().all(|a| *a == ChunkActivity::Partial));
        // ... but an AND with a discriminative leg still skips.
        let v = verdicts(&s, "country = 'DE' AND latency > 100");
        assert!(v.contains(&ChunkActivity::Skip));
        assert!(!v.contains(&ChunkActivity::Full), "opaque leg prevents Full");
    }

    #[test]
    fn no_restriction_is_fully_active() {
        let s = store();
        let analysis = SkipAnalysis::prepare(&s, &Restriction::True).unwrap();
        assert!(analysis.all(s.chunk_count()).iter().all(|a| *a == ChunkActivity::Full));
    }

    #[test]
    fn virtual_field_restrictions_skip() {
        // §5's example: a restriction on date(timestamp) skips chunks via
        // the materialized virtual field. Timestamps here are chosen so the
        // partitioning on `latency` (a proxy) splits dates across chunks.
        let schema = Schema::of(&[("timestamp", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..400i64 {
            t.push_row(Row(vec![Value::Int(i * 86_400 / 4)])).unwrap(); // 100 days
        }
        let s =
            DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["timestamp"], 64)))
                .unwrap();
        let v = verdicts(&s, "date(timestamp) IN ('1970-01-05')");
        assert!(v.contains(&ChunkActivity::Skip), "{v:?}");
        assert!(
            v.iter().any(|a| *a != ChunkActivity::Skip),
            "the chunk containing Jan 5 must stay active: {v:?}"
        );
    }

    #[test]
    fn range_restrictions_skip_via_min_max_ids() {
        // Partitioned by latency itself: chunks occupy disjoint latency
        // ranges, so a range restriction skips cleanly.
        let schema = Schema::of(&[("latency", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..400i64 {
            t.push_row(Row(vec![Value::Int(i)])).unwrap();
        }
        let s = DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["latency"], 64)))
            .unwrap();
        let v = verdicts(&s, "latency > 350");
        assert!(v.contains(&ChunkActivity::Skip), "{v:?}");
        assert!(v.iter().any(|a| *a != ChunkActivity::Skip), "rows above 350 exist: {v:?}");
        // Fully-covered chunks are recognized.
        let v = verdicts(&s, "latency >= 0");
        assert!(v.iter().all(|a| *a == ChunkActivity::Full), "{v:?}");
        // Exclusive vs inclusive boundaries.
        let v_lt = verdicts(&s, "latency < 0");
        assert!(v_lt.iter().all(|a| *a == ChunkActivity::Skip), "{v_lt:?}");
        let v_le = verdicts(&s, "latency <= 0");
        assert!(v_le.iter().any(|a| *a != ChunkActivity::Skip), "{v_le:?}");
        // Two-sided ranges via AND.
        let v = verdicts(&s, "latency >= 100 AND latency < 130");
        let active = v.iter().filter(|a| **a != ChunkActivity::Skip).count();
        assert!(active <= 2, "narrow band touches few chunks: {v:?}");
    }

    #[test]
    fn string_ranges_skip_alike_on_front_coding_and_sorted_arrays() {
        // A string range resolves to an id range on front coding as on a
        // sorted array: its bounds, present or not, rank in one block.
        let schema = Schema::of(&[("s", DataType::Str)]);
        let mut t = Table::new(schema);
        for i in 0..400i64 {
            t.push_row(Row(vec![Value::from(format!("s{:03}", i / 4))])).unwrap();
        }
        let spec = PartitionSpec::new(&["s"], 40);
        let sorted = DataStore::build(&t, &BuildOptions::optcols(spec.clone())).unwrap();
        let front_coded = DataStore::build(&t, &BuildOptions::optdicts(spec)).unwrap();
        for where_sql in ["s >= 's050'", "s < 's0255'", "s > 's02' AND s <= 's071'", "s > 't'"] {
            let v = verdicts(&sorted, where_sql);
            assert!(v.contains(&ChunkActivity::Skip), "{where_sql}: {v:?}");
            assert_eq!(verdicts(&front_coded, where_sql), v, "{where_sql}");
        }
    }

    #[test]
    fn float_ranges_against_int_columns() {
        let schema = Schema::of(&[("n", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..100i64 {
            t.push_row(Row(vec![Value::Int(i)])).unwrap();
        }
        let s =
            DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["n"], 20))).unwrap();
        // 99.5 excludes everything below 100 — all chunks skip.
        let v = verdicts(&s, "n > 99.5");
        assert!(v.iter().all(|a| *a == ChunkActivity::Skip), "{v:?}");
        // > 98.0 keeps only the last chunk.
        let v = verdicts(&s, "n > 98.0");
        assert_eq!(v.iter().filter(|a| **a != ChunkActivity::Skip).count(), 1, "{v:?}");
    }

    #[test]
    fn float_literals_no_integer_stands_for_prove_nothing() {
        use pd_sql::{analyze, BinaryOp, Expr};
        // One value per chunk, so a wrong resolution shows as a wrong
        // Full / Skip verdict and as a wrong count.
        let past_exact = (1i64 << 53) + 1;
        let schema = Schema::of(&[("n", DataType::Int)]);
        let mut t = Table::new(schema);
        for v in [-7, 0, 5, past_exact, i64::MAX] {
            for _ in 0..4 {
                t.push_row(Row(vec![Value::Int(v)])).unwrap();
            }
        }
        let s =
            DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["n"], 4))).unwrap();
        assert_eq!(s.chunk_count(), 5);

        let count = |filter: Expr| -> (Vec<ChunkActivity>, Value) {
            let mut q = analyze(&parse_query("SELECT COUNT(*) FROM t").unwrap()).unwrap();
            q.restriction = Restriction::from_expr(&filter);
            q.filter = Some(filter);
            let verdicts = SkipAnalysis::prepare(&s, &q.restriction).unwrap().all(s.chunk_count());
            let (result, _) = crate::exec::execute(&s, &q, &Default::default()).unwrap();
            (verdicts, result.rows[0].0[0].clone())
        };
        let n_vs = |op: BinaryOp, v: f64| Expr::Binary {
            op,
            lhs: Box::new(Expr::column("n")),
            rhs: Box::new(Expr::Literal(Value::Float(v))),
        };
        let undecided = vec![ChunkActivity::Partial; 5];

        // `1e30 as i64` saturates to i64::MAX, which is in the dictionary;
        // no integer equals 1e30.
        assert_eq!(count(n_vs(BinaryOp::Eq, 1e30)), (undecided.clone(), Value::Int(0)));
        // `NaN as i64` is 0; in the total order every number is below NaN.
        assert_eq!(count(n_vs(BinaryOp::Ge, f64::NAN)), (undecided.clone(), Value::Int(0)));
        assert_eq!(count(n_vs(BinaryOp::Lt, f64::NAN)), (undecided.clone(), Value::Int(20)));
        // 2^53 + 1 *is* 2^53 once the filter casts it `as f64`; an integer
        // lookup of 2^53 finds nothing.
        assert_eq!(count(n_vs(BinaryOp::Eq, (1u64 << 53) as f64)), (undecided, Value::Int(4)));
        // Ordinary float literals still skip.
        let (verdicts, n) = count(n_vs(BinaryOp::Gt, 4.5));
        assert_eq!(n, Value::Int(12));
        assert_eq!(verdicts.iter().filter(|v| **v == ChunkActivity::Skip).count(), 2);
        assert_eq!(verdicts.iter().filter(|v| **v == ChunkActivity::Full).count(), 3);
    }

    #[test]
    fn empty_and_or_err_toward_maybe() {
        // `any` over no child is vacuously false: an empty OR once proved
        // every chunk empty, and a COUNT(*) under it answered 0.
        let s = store();
        for r in [Restriction::Or(vec![]), Restriction::And(vec![])] {
            let analysis = SkipAnalysis::prepare(&s, &r).unwrap();
            assert!(analysis.all(s.chunk_count()).iter().all(|v| *v == ChunkActivity::Partial));
            let mut analyzed = pd_sql::plan("SELECT COUNT(*) FROM t").unwrap();
            analyzed.restriction = r;
            let (result, _) =
                crate::exec::execute(&s, &analyzed, &crate::ExecContext::default()).unwrap();
            assert_eq!(result.rows[0].0[0], Value::Int(s.n_rows() as i64));
        }
    }

    #[test]
    fn paper_worked_example() {
        // §2.4: restriction IN ("la redoute", "voyages sncf") over the
        // Figure 1 layout — only chunk 2 stays active.
        let schema = Schema::of(&[("search_string", DataType::Str), ("chunk", DataType::Int)]);
        let mut t = Table::new(schema);
        let chunks: [&[&str]; 3] = [
            &["ebay", "cheap flights", "amazon", "ebay", "pages jaunes"],
            &["ab in den Urlaub", "amazon", "ebay", "faschingskostüme", "immobilienscout"],
            &["chaussures", "voyages sncf", "la redoute", "chaussures", "karnevalskostüme"],
        ];
        for (ci, values) in chunks.iter().enumerate() {
            for v in *values {
                t.push_row(Row(vec![Value::from(*v), Value::Int(ci as i64)])).unwrap();
            }
        }
        let s = DataStore::build(&t, &BuildOptions::optcols(PartitionSpec::new(&["chunk"], 5)))
            .unwrap();
        assert_eq!(s.chunk_count(), 3);
        let v = verdicts(&s, "search_string IN ('la redoute', 'voyages sncf')");
        assert_eq!(v[0], ChunkActivity::Skip);
        assert_eq!(v[1], ChunkActivity::Skip);
        assert_eq!(v[2], ChunkActivity::Partial);
    }
}
