//! RECOMPUTE (paper §3.2): re-executes a serialized lineage log to
//! reproduce the exact intermediate it identifies — for debugging,
//! trace sharing, and cross-environment reproduction.
//!
//! The core is execution-engine agnostic: callers supply a
//! [`LineageExecutor`] that knows how to run one operator. The engine
//! crate provides the full implementation over its instruction set.

use crate::cache::entry::CachedObject;
use crate::lineage::{deserialize, LItem, LineageId, ParseError};
use std::collections::HashMap;

/// Executes one lineage node given its already-computed inputs.
pub trait LineageExecutor {
    /// Runs the operator identified by `item` over `inputs` (one value per
    /// lineage input, in order) and returns its output.
    fn execute(&mut self, item: &LItem, inputs: &[CachedObject]) -> Result<CachedObject, String>;
}

/// Errors from [`recompute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecomputeError {
    /// The lineage log could not be parsed.
    Parse(ParseError),
    /// An operator failed to execute.
    Exec {
        /// Opcode of the failing node.
        opcode: String,
        /// Executor-provided message.
        message: String,
    },
}

impl std::fmt::Display for RecomputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecomputeError::Parse(e) => write!(f, "lineage parse error: {e}"),
            RecomputeError::Exec { opcode, message } => {
                write!(f, "recompute failed at {opcode}: {message}")
            }
        }
    }
}

impl std::error::Error for RecomputeError {}

/// RECOMPUTE: deserializes `log` and evaluates the DAG bottom-up with
/// sub-DAG memoization, returning the root value.
pub fn recompute<E: LineageExecutor>(
    log: &str,
    exec: &mut E,
) -> Result<CachedObject, RecomputeError> {
    let root = deserialize(log).map_err(RecomputeError::Parse)?;
    recompute_item(&root, exec)
}

/// Evaluates an in-memory lineage DAG (used when the trace never left the
/// process).
pub fn recompute_item<E: LineageExecutor>(
    root: &LItem,
    exec: &mut E,
) -> Result<CachedObject, RecomputeError> {
    // Iterative post-order evaluation with memoization on node identity.
    let mut results: HashMap<LineageId, CachedObject> = HashMap::new();
    let mut stack: Vec<(LItem, bool)> = vec![(root.clone(), false)];
    while let Some((item, expanded)) = stack.pop() {
        if results.contains_key(&item.lid) {
            continue;
        }
        if !expanded {
            stack.push((item.clone(), true));
            for i in &item.inputs {
                stack.push((i.clone(), false));
            }
            continue;
        }
        let inputs: Vec<CachedObject> = item
            .inputs
            .iter()
            .map(|i| results.get(&i.lid).expect("post-order").clone())
            .collect();
        let value = exec
            .execute(&item, &inputs)
            .map_err(|message| RecomputeError::Exec {
                opcode: item.opcode.to_string(),
                message,
            })?;
        results.insert(item.lid, value);
    }
    Ok(results.remove(&root.lid).expect("root evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::{serialize, LineageItem};

    /// A toy executor over scalars: leaves carry their value in data[0],
    /// "add" sums inputs, "mul" multiplies.
    struct ScalarExec {
        calls: usize,
    }

    impl LineageExecutor for ScalarExec {
        fn execute(
            &mut self,
            item: &LItem,
            inputs: &[CachedObject],
        ) -> Result<CachedObject, String> {
            self.calls += 1;
            let vals: Vec<f64> = inputs
                .iter()
                .map(|o| match o {
                    CachedObject::Scalar(v) => Ok(*v),
                    _ => Err("non-scalar input".to_string()),
                })
                .collect::<Result<_, _>>()?;
            match &*item.opcode {
                "leaf" => item.data[0]
                    .parse()
                    .map(CachedObject::Scalar)
                    .map_err(|e| format!("{e}")),
                "add" => Ok(CachedObject::Scalar(vals.iter().sum())),
                "mul" => Ok(CachedObject::Scalar(vals.iter().product())),
                op => Err(format!("unknown op {op}")),
            }
        }
    }

    #[test]
    fn recomputes_serialized_dag() {
        let a = LineageItem::leaf("2");
        let b = LineageItem::leaf("3");
        let sum = LineageItem::new("add", vec![], vec![a.clone(), b.clone()]);
        let prod = LineageItem::new("mul", vec![], vec![sum.clone(), b]);
        let log = serialize(&prod);
        let mut exec = ScalarExec { calls: 0 };
        match recompute(&log, &mut exec).unwrap() {
            CachedObject::Scalar(v) => assert_eq!(v, 15.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_subdags_execute_once() {
        let a = LineageItem::leaf("2");
        let sq = LineageItem::new("mul", vec![], vec![a.clone(), a.clone()]);
        let quad = LineageItem::new("mul", vec![], vec![sq.clone(), sq.clone()]);
        let mut exec = ScalarExec { calls: 0 };
        match recompute_item(&quad, &mut exec).unwrap() {
            CachedObject::Scalar(v) => assert_eq!(v, 16.0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            exec.calls, 3,
            "leaf, square, fourth power — no re-execution"
        );
    }

    #[test]
    fn executor_errors_carry_opcode() {
        let bad = LineageItem::new("nope", vec![], vec![]);
        let mut exec = ScalarExec { calls: 0 };
        let err = recompute_item(&bad, &mut exec).unwrap_err();
        assert!(matches!(err, RecomputeError::Exec { ref opcode, .. } if opcode == "nope"));
    }

    #[test]
    fn parse_errors_propagate() {
        let mut exec = ScalarExec { calls: 0 };
        assert!(matches!(
            recompute("garbage", &mut exec),
            Err(RecomputeError::Parse(_))
        ));
    }
}
