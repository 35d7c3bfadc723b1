//! Transaction-level precedence DAG over the redo work list.
//!
//! Nodes are transactions; edges come from page-set intersections. For
//! every page, the transactions that touch it (writers from redo items,
//! readers from command records' read sets) are chained in key order:
//! writer → every reader since it → the next writer, and writer → writer
//! directly when no reader intervenes. Strict 2PL guarantees the keys
//! interleave consistently (a reader's shared lock span separates its
//! neighbouring writers' exclusive spans), so the chain is exactly lock
//! order, which is exactly per-page LSN order.
//!
//! The build is deterministic: nodes are sorted by key, pages are walked
//! in `BTreeMap` order, and edges are deduplicated — so DAG shape, node
//! numbering, and the executor's ready-queue tie-break are identical for
//! every worker count.

use rmdb_storage::PageId;
use rmdb_wal::recovery::{LogicalMeta, RedoItem};
use rmdb_wal::TxnId;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One transaction's slice of the redo work.
pub struct DagNode {
    pub txn: TxnId,
    /// Scheduling key: commit LSN for command-logged transactions, max
    /// fragment LSN for physical ones. Keys are globally unique (both come
    /// from the same LSN counter) and key order refines every page chain.
    pub key: u64,
    /// Whether this node re-executes command ops (vs installing fragments).
    pub reexec: bool,
    /// Pages this node writes, each with its items in LSN order.
    pub pages: Vec<(PageId, Vec<RedoItem>)>,
}

/// The precedence DAG plus everything the executor needs.
pub struct Dag {
    /// Nodes in ascending key order (a valid serial schedule).
    pub nodes: Vec<DagNode>,
    /// Successor lists, indexed like `nodes`.
    pub succ: Vec<Vec<u32>>,
    /// Incoming-edge counts, indexed like `nodes`.
    pub indegree: Vec<u32>,
    /// Distinct precedence edges.
    pub edges: u64,
    /// Per written page: does the earliest item carry a full image
    /// (torn-page rebuild is then possible without a doublewrite copy)?
    pub full_image: HashMap<PageId, bool>,
}

/// Build the precedence DAG from the per-page redo map and the command
/// records' metadata (commit LSNs + read sets).
pub fn build_dag(
    redo: BTreeMap<PageId, Vec<RedoItem>>,
    logical: &HashMap<TxnId, LogicalMeta>,
) -> Dag {
    // Group items by transaction in one pass per page. After sorting a
    // page's items by LSN, each transaction's items form one contiguous
    // run: strict 2PL holds the X lock across all of a transaction's
    // writes to the page, so two transactions' LSN ranges on it cannot
    // interleave. Partitioning the sorted list by txn boundary therefore
    // recovers exactly the per-(txn, page) item lists — without the
    // per-item nested-map inserts this pass used to cost. (If a corrupt
    // log ever did interleave, a txn would just get two runs for the
    // page, applied in LSN order — slower, never wrong.)
    let mut full_image: HashMap<PageId, bool> = HashMap::new();
    let mut node_of: HashMap<TxnId, u32> = HashMap::new();
    let mut nodes: Vec<DagNode> = Vec::new();
    let mut max_lsn: Vec<u64> = Vec::new();
    for (page, mut items) in redo {
        items.sort_by_key(|i| i.new_lsn);
        full_image.insert(page, items.first().is_some_and(|i| i.is_full_image()));
        let mut items = items.into_iter().peekable();
        while let Some(first) = items.next() {
            let txn = first.txn;
            let mut run = vec![first];
            while items.peek().is_some_and(|i| i.txn == txn) {
                run.push(items.next().expect("peeked"));
            }
            let idx = *node_of.entry(txn).or_insert_with(|| {
                nodes.push(DagNode {
                    txn,
                    key: 0,
                    reexec: false,
                    pages: Vec::new(),
                });
                max_lsn.push(0);
                (nodes.len() - 1) as u32
            }) as usize;
            max_lsn[idx] = max_lsn[idx].max(run.last().map_or(0, |i| i.new_lsn.0));
            nodes[idx].pages.push((page, run));
        }
    }
    for (idx, node) in nodes.iter_mut().enumerate() {
        let (key, reexec) = match logical.get(&node.txn) {
            Some(meta) => (meta.commit_lsn, true),
            None => (max_lsn[idx], false),
        };
        node.key = key;
        node.reexec = reexec;
    }
    nodes.sort_by_key(|n| n.key);

    // Per-page touch events: writers keyed by their first LSN on the page,
    // readers by their commit LSN. BTreeMap so the chain walk order (and
    // hence edge insertion order) is deterministic.
    struct Touch {
        key: u64,
        node: u32,
        writes: bool,
    }
    let mut touches: BTreeMap<PageId, Vec<Touch>> = BTreeMap::new();
    for (i, node) in nodes.iter().enumerate() {
        for (page, items) in &node.pages {
            touches.entry(*page).or_default().push(Touch {
                key: items.first().map_or(node.key, |it| it.new_lsn.0),
                node: i as u32,
                writes: true,
            });
        }
        if node.reexec {
            if let Some(meta) = logical.get(&node.txn) {
                let written: HashSet<PageId> = node.pages.iter().map(|(p, _)| *p).collect();
                for page in &meta.reads {
                    if !written.contains(page) {
                        touches.entry(*page).or_default().push(Touch {
                            key: node.key,
                            node: i as u32,
                            writes: false,
                        });
                    }
                }
            }
        }
    }

    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    let mut indegree: Vec<u32> = vec![0; nodes.len()];
    let mut seen_edges: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = 0u64;
    let mut add_edge =
        |from: u32, to: u32, succ: &mut Vec<Vec<u32>>, indegree: &mut Vec<u32>, edges: &mut u64| {
            if from != to && seen_edges.insert((from, to)) {
                succ[from as usize].push(to);
                indegree[to as usize] += 1;
                *edges += 1;
            }
        };
    for (_, mut chain) in touches {
        chain.sort_by_key(|t| t.key);
        let mut last_writer: Option<u32> = None;
        let mut readers_since: Vec<u32> = Vec::new();
        for t in chain {
            if t.writes {
                if let Some(w) = last_writer {
                    add_edge(w, t.node, &mut succ, &mut indegree, &mut edges);
                }
                for r in readers_since.drain(..) {
                    add_edge(r, t.node, &mut succ, &mut indegree, &mut edges);
                }
                last_writer = Some(t.node);
            } else {
                if let Some(w) = last_writer {
                    add_edge(w, t.node, &mut succ, &mut indegree, &mut edges);
                }
                readers_since.push(t.node);
            }
        }
    }

    Dag {
        nodes,
        succ,
        indegree,
        edges,
        full_image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::Lsn;
    use rmdb_wal::recovery::RedoBody;
    use rmdb_wal::LogicalOp;

    fn install(txn: TxnId, lsn: u64, page: u64) -> (PageId, RedoItem) {
        (
            PageId(page),
            RedoItem {
                new_lsn: Lsn(lsn),
                txn,
                body: RedoBody::Install {
                    offset: 0,
                    data: vec![txn as u8; 4],
                },
            },
        )
    }

    fn op(txn: TxnId, lsn: u64, page: u64) -> (PageId, RedoItem) {
        (
            PageId(page),
            RedoItem {
                new_lsn: Lsn(lsn),
                txn,
                body: RedoBody::Op(LogicalOp::AddU64 {
                    page: PageId(page),
                    lsn: Lsn(lsn),
                    offset: 0,
                    delta: 1,
                }),
            },
        )
    }

    fn redo_map(items: Vec<(PageId, RedoItem)>) -> BTreeMap<PageId, Vec<RedoItem>> {
        let mut m: BTreeMap<PageId, Vec<RedoItem>> = BTreeMap::new();
        for (p, i) in items {
            m.entry(p).or_default().push(i);
        }
        m
    }

    #[test]
    fn disjoint_txns_have_no_edges() {
        let redo = redo_map(vec![install(1, 1, 10), install(2, 2, 20)]);
        let dag = build_dag(redo, &HashMap::new());
        assert_eq!(dag.nodes.len(), 2);
        assert_eq!(dag.edges, 0);
        assert!(dag.indegree.iter().all(|&d| d == 0));
    }

    #[test]
    fn writers_chain_in_lsn_order() {
        let redo = redo_map(vec![
            install(1, 1, 10),
            install(2, 5, 10),
            install(3, 9, 10),
        ]);
        let dag = build_dag(redo, &HashMap::new());
        assert_eq!(dag.edges, 2, "w->w->w chain, no transitive edge");
        // nodes sorted by key: txn 1 (lsn 1), txn 2 (lsn 5), txn 3 (lsn 9)
        assert_eq!(dag.succ[0], vec![1]);
        assert_eq!(dag.succ[1], vec![2]);
        assert_eq!(dag.indegree, vec![0, 1, 1]);
    }

    #[test]
    fn reader_sits_between_writers() {
        // txn 1 writes page 10 (lsn 1); txn 2 reads page 10 and writes page
        // 20 (op lsn 3, commit lsn 4); txn 3 overwrites page 10 (lsn 7).
        let redo = redo_map(vec![install(1, 1, 10), op(2, 3, 20), install(3, 7, 10)]);
        let logical: HashMap<TxnId, LogicalMeta> = [(
            2,
            LogicalMeta {
                commit_lsn: 4,
                reads: vec![PageId(10), PageId(20)],
            },
        )]
        .into_iter()
        .collect();
        let dag = build_dag(redo, &logical);
        assert_eq!(dag.nodes.len(), 3);
        // 1 -> 2 (write->read), 2 -> 3 (read->next write), 1 -> 3 (w->w)
        assert_eq!(dag.edges, 3);
        assert_eq!(dag.indegree, vec![0, 1, 2]);
    }

    #[test]
    fn read_of_own_written_page_adds_no_touch() {
        let redo = redo_map(vec![op(5, 2, 7)]);
        let logical: HashMap<TxnId, LogicalMeta> = [(
            5,
            LogicalMeta {
                commit_lsn: 3,
                reads: vec![PageId(7)],
            },
        )]
        .into_iter()
        .collect();
        let dag = build_dag(redo, &logical);
        assert_eq!(dag.edges, 0);
        assert!(dag.nodes[0].reexec);
        assert_eq!(dag.nodes[0].key, 3);
    }

    #[test]
    fn full_image_flag_follows_earliest_item() {
        let mut m: BTreeMap<PageId, Vec<RedoItem>> = BTreeMap::new();
        let full = RedoItem {
            new_lsn: Lsn(1),
            txn: 1,
            body: RedoBody::Install {
                offset: 0,
                data: vec![0u8; rmdb_storage::PAYLOAD_SIZE],
            },
        };
        let partial = install(2, 5, 10).1;
        m.insert(PageId(10), vec![partial.clone(), full]);
        m.insert(PageId(11), vec![partial]);
        let dag = build_dag(m, &HashMap::new());
        assert!(dag.full_image[&PageId(10)]);
        assert!(!dag.full_image[&PageId(11)]);
    }
}
