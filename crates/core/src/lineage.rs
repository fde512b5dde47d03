//! Backend-agnostic, fine-grained lineage tracing (paper §3.2).
//!
//! A lineage trace is a DAG of [`LineageItem`]s built incrementally at
//! runtime: one item per executed instruction, holding the opcode, literal
//! data items, and pointers to the input items. Items are immutable and
//! shared (`Arc`), with precomputed hash and height so that probing the
//! lineage cache is cheap; full equality uses the paper's non-recursive,
//! queue-based comparison with sub-DAG memoization and early aborts.
//!
//! # Interned identity
//!
//! Every structurally-unique DAG is interned at construction time by a
//! sharded, process-global table keyed on the precomputed FNV hash: the
//! first construction becomes the canonical node and every later
//! structural twin *is* that node (the same `Arc`). This is the
//! compaction of paper §3.3 done once, at construction: equal traces
//! always share sub-DAGs, so nothing re-shares them after a probe. Each
//! node carries a [`LineageId`] (a `u32` + the content hash, `Copy`,
//! compared as a single integer) — the key type of the entire cache
//! (entry map, in-flight markers, eviction scoring, GPU pointer tags,
//! disk manifest tags), so the steady-state probe→hit path never walks a
//! DAG, never allocates and never consults the table. A hash collision
//! between structurally distinct DAGs aborts the process — with a 64-bit
//! FNV over full DAG content this is the same abort-on-collision contract
//! the paper's hash-probing already relied on, now enforced eagerly.
//!
//! The intern table deliberately never shrinks: a `LineageId` must stay
//! resolvable ([`resolve`]) for as long as the process may start from
//! one (disk recovery, cluster migration). This trades bounded growth
//! (one node per unique DAG ever traced) for an allocation-free,
//! lock-free-on-probe identity — the same trade SystemDS-style lineage
//! dedup makes.

use memphis_matrix::hash::{fnv1a, FNV_OFFSET};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared handle to a lineage DAG node.
pub type LItem = Arc<LineageItem>;

/// Compact process-global identity of a structurally-unique lineage DAG.
///
/// Equality is a single `u32` compare; hashing writes the precomputed
/// content-derived FNV hash of the DAG (so `HashMap<LineageId, _>`
/// distributes identically to hashing the DAG itself, and shard
/// assignment / eviction tie-breaks stay deterministic across runs).
/// There is deliberately no `Ord`: the raw id is allocation order, which
/// is racy under concurrent tracing — any ordering must use
/// [`LineageId::content_hash`] instead.
#[derive(Debug, Clone, Copy)]
pub struct LineageId {
    id: u32,
    hash: u64,
}

impl LineageId {
    /// The raw interned index (diagnostics only; allocation order is not
    /// deterministic across runs or threads).
    pub fn raw(self) -> u32 {
        self.id
    }

    /// The content-derived FNV hash of the DAG this id identifies. Stable
    /// across runs; use it for sharding and deterministic tie-breaks.
    pub fn content_hash(self) -> u64 {
        self.hash
    }
}

impl PartialEq for LineageId {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for LineageId {}

impl std::hash::Hash for LineageId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One node of a lineage trace: an executed operator with its literal
/// arguments and input lineage.
#[derive(Debug)]
pub struct LineageItem {
    /// Interned structural identity and node identity: structurally
    /// equal DAGs are one node, so this is equal exactly for them. The
    /// cache's key type.
    pub lid: LineageId,
    /// Operator code, e.g. `"ba+*"` (matmul), `"tsmm"`, `"rand"`, or
    /// `"func:linRegDS"` for multi-level (function) reuse entries.
    pub opcode: Arc<str>,
    /// Literal data items: scalar values, dimensions, seeds — everything
    /// that makes the instruction deterministic and unique.
    pub data: Vec<String>,
    /// Input lineage items.
    pub inputs: Vec<LItem>,
    /// Precomputed DAG hash (hash of opcode, data, and input hashes).
    pub hash: u64,
    /// DAG height: leaves have height 1.
    pub height: u32,
}

// ---------------------------------------------------------------------
// Intern table
// ---------------------------------------------------------------------

const INTERN_SHARDS: usize = 64;

struct InternTable {
    /// content hash → canonical node.
    shards: [Mutex<HashMap<u64, LItem>>; INTERN_SHARDS],
    next: AtomicU32,
}

fn intern_table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable {
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        next: AtomicU32::new(0),
    })
}

/// Returns the node an interned id identifies, for callers that start
/// from a bare [`LineageId`] (disk recovery and spill, cluster
/// migration). Code holding an `LItem` already holds the node.
///
/// Lock + `Arc` clone only — no heap allocation. Panics if the id was
/// never minted by interning (impossible for ids read off a live
/// `LineageItem`).
pub fn resolve(id: LineageId) -> LItem {
    let shard = intern_table().shards[(id.hash as usize) & (INTERN_SHARDS - 1)].lock();
    shard
        .get(&id.hash)
        .cloned()
        .expect("LineageId resolves: ids are only minted by the intern table")
}

/// Interns `(opcode, data, inputs)` under the given precomputed hash.
///
/// The first construction of a structure becomes the canonical node;
/// every later structural twin returns that same `Arc` (its own
/// opcode, data and inputs are dropped). A hash-equal but
/// structurally-unequal construction is a silent-corruption hazard and
/// aborts the process.
fn intern_node(
    opcode: Arc<str>,
    data: Vec<String>,
    inputs: Vec<LItem>,
    hash: u64,
    height: u32,
) -> LItem {
    let table = intern_table();
    let mut shard = table.shards[(hash as usize) & (INTERN_SHARDS - 1)].lock();
    match shard.get(&hash) {
        Some(canonical) => {
            // Cheap structural verification against the canonical node:
            // input ids compare by interned identity, which is
            // inductively structural — O(node), not O(DAG).
            assert!(
                canonical.opcode == opcode
                    && canonical.data == data
                    && canonical.inputs.len() == inputs.len()
                    && canonical
                        .inputs
                        .iter()
                        .zip(&inputs)
                        .all(|(a, b)| a.lid == b.lid),
                "lineage hash collision: structurally distinct DAGs share hash {hash:#018x} \
                 (opcode `{}` vs `{}`) — aborting to prevent silent cross-reuse",
                canonical.opcode,
                opcode,
            );
            canonical.clone()
        }
        None => {
            let id = table.next.fetch_add(1, Ordering::Relaxed);
            let item = Arc::new(LineageItem {
                lid: LineageId { id, hash },
                opcode,
                data,
                inputs,
                hash,
                height,
            });
            shard.insert(hash, item.clone());
            item
        }
    }
}

impl LineageItem {
    /// Creates an operator node over `inputs`.
    pub fn new(opcode: &str, data: Vec<String>, inputs: Vec<LItem>) -> LItem {
        let mut hash = fnv1a(FNV_OFFSET, opcode.as_bytes());
        for d in &data {
            hash = fnv1a(fnv1a(hash, &[0xfe]), d.as_bytes());
        }
        for i in &inputs {
            hash = fnv1a(fnv1a(hash, &[0xff]), &i.hash.to_le_bytes());
        }
        let height = 1 + inputs.iter().map(|i| i.height).max().unwrap_or(0);
        intern_node(Arc::from(opcode), data, inputs, hash, height)
    }

    /// Creates a leaf node (an input dataset, literal, or seeded random
    /// source). `name` uniquely identifies the data, e.g. a file path or a
    /// content fingerprint.
    pub fn leaf(name: &str) -> LItem {
        Self::new("leaf", vec![name.to_string()], vec![])
    }

    /// Number of reachable nodes (counting shared sub-DAGs once).
    pub fn dag_size(self: &LItem) -> usize {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([self.clone()]);
        while let Some(item) = queue.pop_front() {
            if seen.insert(item.lid) {
                queue.extend(item.inputs.iter().cloned());
            }
        }
        seen.len()
    }
}

/// The paper's queue-based structural equality with memoization and early
/// aborts (hash mismatch, height mismatch, shared sub-DAG object
/// identity). With interning, structurally-equal DAGs are one node, so
/// the common case is a single integer compare; the queue-based walk
/// remains as the definition the intern table is verified against.
pub fn lineage_eq(a: &LItem, b: &LItem) -> bool {
    if a.lid == b.lid {
        return true; // interned identity: structural equality by construction
    }
    let mut queue: VecDeque<(LItem, LItem)> = VecDeque::from([(a.clone(), b.clone())]);
    let mut memo: HashSet<(u32, u32)> = HashSet::new();
    while let Some((x, y)) = queue.pop_front() {
        if Arc::ptr_eq(&x, &y) {
            continue; // shared sub-DAG: object identity short-circuit
        }
        if x.hash != y.hash
            || x.height != y.height
            || x.opcode != y.opcode
            || x.data != y.data
            || x.inputs.len() != y.inputs.len()
        {
            return false;
        }
        let (lo, hi) = (x.lid.raw().min(y.lid.raw()), x.lid.raw().max(y.lid.raw()));
        if !memo.insert((lo, hi)) {
            continue; // pair already verified on another path
        }
        for (xi, yi) in x.inputs.iter().zip(y.inputs.iter()) {
            queue.push_back((xi.clone(), yi.clone()));
        }
    }
    true
}

/// Maps live variable names to their lineage DAGs (the `LineageMap` of
/// paper §3.2). The compaction of §3.3 needs no pass here: interning
/// makes every traced twin the canonical node already.
#[derive(Debug, Default)]
pub struct LineageMap {
    map: HashMap<String, LItem>,
}

impl LineageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// TRACE: builds the lineage item for an instruction writing `output`,
    /// reading variables `input_vars`, with literal `data` items, and
    /// registers it under the output variable. Returns the new item.
    ///
    /// # Panics
    /// Panics if an input variable has no lineage (engine bug).
    pub fn trace(
        &mut self,
        output: &str,
        opcode: &str,
        data: Vec<String>,
        input_vars: &[&str],
    ) -> LItem {
        let inputs: Vec<LItem> = input_vars
            .iter()
            .map(|v| {
                self.map
                    .get(*v)
                    .unwrap_or_else(|| panic!("no lineage for variable {v}"))
                    .clone()
            })
            .collect();
        let item = LineageItem::new(opcode, data, inputs);
        self.map.insert(output.to_string(), item.clone());
        item
    }

    /// Registers a leaf lineage (input dataset or literal) for a variable.
    pub fn set_leaf(&mut self, var: &str, name: &str) -> LItem {
        let item = LineageItem::leaf(name);
        self.map.insert(var.to_string(), item.clone());
        item
    }

    /// Binds a variable to an existing lineage item (variable assignment
    /// or function-result binding).
    pub fn bind(&mut self, var: &str, item: LItem) {
        self.map.insert(var.to_string(), item);
    }

    /// The lineage of a variable.
    pub fn get(&self, var: &str) -> Option<&LItem> {
        self.map.get(var)
    }

    /// Removes a variable binding (end of scope).
    pub fn remove(&mut self, var: &str) -> Option<LItem> {
        self.map.remove(var)
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------
// Serialization (paper: SERIALIZE / DESERIALIZE for debugging and
// cross-environment recomputation)
// ---------------------------------------------------------------------

/// Serializes a lineage DAG to a line-oriented log:
/// `(<node>) <opcode> [<data>,*] (<input-node>,*)` — topologically ordered,
/// leaves first. Shared sub-DAGs appear once.
///
/// The output string is preallocated from the DAG's node contents and
/// every field is appended into that one buffer directly — no per-node
/// intermediate strings or joins.
pub fn serialize(root: &LItem) -> String {
    let mut order: Vec<LItem> = Vec::new();
    let mut seen: HashSet<LineageId> = HashSet::new();
    fn visit(item: &LItem, seen: &mut HashSet<LineageId>, order: &mut Vec<LItem>) {
        if !seen.insert(item.lid) {
            return;
        }
        for i in &item.inputs {
            visit(i, seen, order);
        }
        order.push(item.clone());
    }
    visit(root, &mut seen, &mut order);
    let index: HashMap<LineageId, usize> =
        order.iter().enumerate().map(|(i, n)| (n.lid, i)).collect();
    // Per line: "(i) opcode [d1,d2] (i1,i2)\n" — opcode + data bytes +
    // up to ~8 digits per reference + fixed punctuation. Escapes can
    // lengthen data slightly; the estimate stays within one growth step.
    let cap: usize = order
        .iter()
        .map(|n| {
            n.opcode.len()
                + n.data.iter().map(|d| d.len() + 1).sum::<usize>()
                + n.inputs.len() * 8
                + 16
        })
        .sum();
    let mut out = String::with_capacity(cap);
    for (i, node) in order.iter().enumerate() {
        write!(out, "({i}) {} [", node.opcode).expect("write to string");
        for (j, d) in node.data.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            for c in d.chars() {
                if c == '\\' || c == ',' {
                    out.push('\\');
                }
                out.push(c);
            }
        }
        out.push_str("] (");
        for (j, input) in node.inputs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{}", index[&input.lid]).expect("write to string");
        }
        out.push_str(")\n");
    }
    out
}

/// Errors from [`deserialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not match the expected grammar.
    Malformed(usize),
    /// An input reference pointed to an undefined or later node.
    BadReference(usize),
    /// The log was empty.
    Empty,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(l) => write!(f, "malformed lineage log at line {l}"),
            ParseError::BadReference(l) => write!(f, "bad node reference at line {l}"),
            ParseError::Empty => write!(f, "empty lineage log"),
        }
    }
}

impl std::error::Error for ParseError {}

fn split_escaped(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut esc = false;
    for c in s.chars() {
        if esc {
            cur.push(c);
            esc = false;
        } else if c == '\\' {
            esc = true;
        } else if c == ',' {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Deserializes a log produced by [`serialize`], returning the root item
/// (the last line).
pub fn deserialize(log: &str) -> Result<LItem, ParseError> {
    let mut nodes: Vec<LItem> = Vec::new();
    for (lineno, line) in log.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Grammar: (i) opcode [data] (inputs)
        let rest = line
            .strip_prefix('(')
            .ok_or(ParseError::Malformed(lineno))?;
        let (_idx, rest) = rest.split_once(") ").ok_or(ParseError::Malformed(lineno))?;
        let (opcode, rest) = rest.split_once(" [").ok_or(ParseError::Malformed(lineno))?;
        let (data_str, rest) = rest
            .rsplit_once("] (")
            .ok_or(ParseError::Malformed(lineno))?;
        let inputs_str = rest
            .strip_suffix(')')
            .ok_or(ParseError::Malformed(lineno))?;
        let data = split_escaped(data_str);
        let mut inputs = Vec::new();
        if !inputs_str.is_empty() {
            for tok in inputs_str.split(',') {
                let i: usize = tok
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::BadReference(lineno))?;
                if i >= nodes.len() {
                    return Err(ParseError::BadReference(lineno));
                }
                inputs.push(nodes[i].clone());
            }
        }
        nodes.push(LineageItem::new(opcode, data, inputs));
    }
    nodes.pop().ok_or(ParseError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(a: &LItem, b: &LItem) -> LItem {
        LineageItem::new("ba+*", vec![], vec![a.clone(), b.clone()])
    }

    #[test]
    fn identical_construction_is_equal() {
        let x = LineageItem::leaf("X.bin");
        let y = LineageItem::leaf("y.bin");
        let a = mm(&x, &y);
        let x2 = LineageItem::leaf("X.bin");
        let y2 = LineageItem::leaf("y.bin");
        let b = mm(&x2, &y2);
        assert_eq!(a.hash, b.hash);
        assert!(lineage_eq(&a, &b));
        assert_eq!(a.lid, b.lid, "structural twins intern to one id");
    }

    #[test]
    fn interned_twins_are_one_node() {
        let a = LineageItem::leaf("intern/unique-twin-leaf");
        let b = LineageItem::leaf("intern/unique-twin-leaf");
        assert_eq!(a.lid, b.lid);
        assert!(Arc::ptr_eq(&a, &b), "a twin is the canonical node");
        let ta = LineageItem::new("r'", vec![], vec![a.clone()]);
        let tb = LineageItem::new("r'", vec![], vec![b]);
        assert!(Arc::ptr_eq(&ta, &tb), "twin DAGs intern to one node");
        assert!(Arc::ptr_eq(&resolve(a.lid), &a));
    }

    #[test]
    fn distinct_dags_get_distinct_ids() {
        let a = LineageItem::leaf("intern/distinct-a");
        let b = LineageItem::leaf("intern/distinct-b");
        assert_ne!(a.lid, b.lid);
        let c = LineageItem::new("r'", vec![], vec![a.clone()]);
        assert_ne!(a.lid, c.lid);
        assert_eq!(c.lid.content_hash(), c.hash);
    }

    #[test]
    #[should_panic(expected = "lineage hash collision")]
    fn hash_collision_aborts() {
        let a = LineageItem::leaf("intern/collision-victim");
        // Force a structurally different node carrying the same hash:
        // the intern table must refuse to alias them.
        let _ = intern_node(Arc::from("not-a-leaf"), vec![], vec![], a.hash, 1);
    }

    #[test]
    fn different_opcode_data_or_inputs_differ() {
        let x = LineageItem::leaf("X.bin");
        let y = LineageItem::leaf("y.bin");
        let a = mm(&x, &y);
        let b = LineageItem::new("tsmm", vec![], vec![x.clone(), y.clone()]);
        assert!(!lineage_eq(&a, &b));
        let c = mm(&y, &x); // swapped order
        assert!(!lineage_eq(&a, &c));
        let d = LineageItem::new("ba+*", vec!["k=2".into()], vec![x.clone(), y.clone()]);
        assert!(!lineage_eq(&a, &d));
        let e = LineageItem::leaf("Z.bin");
        assert!(!lineage_eq(&a, &mm(&e, &y)));
    }

    #[test]
    fn height_and_hash_precomputed() {
        let x = LineageItem::leaf("X");
        assert_eq!(x.height, 1);
        let t = LineageItem::new("t", vec![], vec![x.clone()]);
        assert_eq!(t.height, 2);
        let m = mm(&t, &x);
        assert_eq!(m.height, 3);
    }

    #[test]
    fn shared_subdags_compare_in_linear_time() {
        // A deep chain with heavy sharing: naive recursion would be 2^40.
        let mut a = LineageItem::leaf("X");
        let mut b = LineageItem::leaf("X");
        for _ in 0..40 {
            a = mm(&a, &a);
            b = mm(&b, &b);
        }
        assert!(lineage_eq(&a, &b)); // memoization must terminate fast
        assert_eq!(a.dag_size(), 41);
    }

    #[test]
    fn hash_mismatch_aborts_early() {
        let a = LineageItem::leaf("A");
        let b = LineageItem::leaf("B");
        assert_ne!(a.hash, b.hash);
        assert!(!lineage_eq(&a, &b));
    }

    #[test]
    fn trace_builds_from_live_variables() {
        let mut lm = LineageMap::new();
        lm.set_leaf("X", "X.bin");
        lm.set_leaf("y", "y.bin");
        let t = lm.trace("tX", "r'", vec![], &["X"]);
        assert_eq!(t.height, 2);
        let b = lm.trace("b", "ba+*", vec![], &["tX", "y"]);
        assert_eq!(b.inputs.len(), 2);
        assert!(Arc::ptr_eq(&b.inputs[0], lm.get("tX").unwrap()));
        // Rebinding replaces the trace.
        lm.trace("b", "r'", vec![], &["b"]);
        assert_eq!(lm.get("b").unwrap().height, 4);
    }

    #[test]
    #[should_panic(expected = "no lineage for variable")]
    fn trace_missing_input_panics() {
        let mut lm = LineageMap::new();
        lm.trace("out", "op", vec![], &["missing"]);
    }

    #[test]
    fn serialize_roundtrip_preserves_equality() {
        let x = LineageItem::leaf("X.bin");
        let t = LineageItem::new("r'", vec![], vec![x.clone()]);
        let m = LineageItem::new("ba+*", vec!["reg=0.1".into()], vec![t.clone(), x.clone()]);
        let log = serialize(&m);
        let back = deserialize(&log).unwrap();
        assert!(lineage_eq(&m, &back));
        assert_eq!(back.height, m.height);
    }

    #[test]
    fn serialize_roundtrip_preserves_content_hash() {
        // The durable disk tier keys records on `content_hash` and
        // re-interns the embedded lineage log at recovery: the hash of
        // the deserialized item must equal the hash the record was
        // written under, or recovered entries could never match a probe.
        let x = LineageItem::leaf("X.bin");
        let t = LineageItem::new("r'", vec![], vec![x.clone()]);
        let m = LineageItem::new("ba+*", vec!["reg=0.1".into()], vec![t, x]);
        let back = deserialize(&serialize(&m)).unwrap();
        assert_eq!(back.lid.content_hash(), m.lid.content_hash());
        assert_eq!(back.lid, m.lid, "re-interning yields the same identity");
    }

    #[test]
    fn serialize_escapes_commas() {
        let leaf = LineageItem::new("rand", vec!["dims=3,4".into(), "p\\q".into()], vec![]);
        let back = deserialize(&serialize(&leaf)).unwrap();
        assert_eq!(back.data, leaf.data);
    }

    #[test]
    fn serialize_preallocates_enough() {
        // The capacity estimate must cover the final length (no repeated
        // growth on long logs); correctness of the format is covered by
        // the roundtrip tests.
        let mut item = LineageItem::leaf("prealloc/leaf-with-a-long-name");
        for i in 0..64 {
            item = LineageItem::new("op", vec![format!("step={i}"), "x,y".into()], vec![item]);
        }
        let log = serialize(&item);
        assert!(log.capacity() >= log.len());
        assert!(deserialize(&log).is_ok());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(matches!(deserialize(""), Err(ParseError::Empty)));
        assert!(matches!(
            deserialize("(0) op [] (5)"),
            Err(ParseError::BadReference(0))
        ));
        assert!(matches!(
            deserialize("not a line"),
            Err(ParseError::Malformed(0))
        ));
    }

    #[test]
    fn shared_subdag_serialized_once() {
        let x = LineageItem::leaf("X");
        let t = LineageItem::new("r'", vec![], vec![x.clone()]);
        let m = mm(&t, &t);
        let log = serialize(&m);
        assert_eq!(log.lines().count(), 3, "X, t(X), mm — shared t once");
        let twin = LineageItem::new("r'", vec![], vec![LineageItem::leaf("X")]);
        assert_eq!(
            serialize(&mm(&t, &twin)),
            log,
            "a twin sub-DAG is written once"
        );
    }

    #[test]
    fn function_level_items_for_multilevel_reuse() {
        let x = LineageItem::leaf("X");
        let y = LineageItem::leaf("y");
        let f1 = LineageItem::new(
            "func:linRegDS",
            vec!["out=0".into()],
            vec![x.clone(), y.clone()],
        );
        let f2 = LineageItem::new("func:linRegDS", vec!["out=0".into()], vec![x, y]);
        assert!(lineage_eq(&f1, &f2));
        assert_eq!(f1.lid, f2.lid);
    }
}
