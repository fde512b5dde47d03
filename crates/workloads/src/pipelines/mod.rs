//! The seven end-to-end ML pipelines of §6.3 (Table 3), each parameterized
//! so the benchmark harness can sweep the paper's x-axes at reduced scale.

pub mod clean;
pub mod en2de;
pub mod hband;
pub mod hcv;
pub mod hdrop;
pub mod pnmf;
pub mod tlvis;

use memphis_core::cache::LineageCache;
use memphis_engine::context::Result;
use memphis_engine::{EngineConfig, ExecutionContext, ReuseMode};
use std::sync::Arc;

/// The serving pipeline mix shared by the PR 4 rendezvous harness
/// ([`crate::serve`]) and the memphis-serve scheduler: session `s` of a
/// run seeded `seed` gets [`session_kind`]`(seed, s)`.
pub const SESSION_MIX: [&str; 4] = ["hcv", "pnmf", "hband", "tlvis"];

/// The pipeline kind assigned to session `s` under `seed`.
pub fn session_kind(seed: u64, s: usize) -> &'static str {
    SESSION_MIX[(seed.wrapping_add(s as u64) % SESSION_MIX.len() as u64) as usize]
}

/// The script-only tenant pipelines (PR 10): corpus `.dml` programs that
/// have no builder-API counterpart, routable through
/// [`run_session_kind`] like any other serving workload. Kept separate
/// from [`SESSION_MIX`] so the gated serve counters are unchanged.
pub const SCRIPT_SESSION_MIX: [&str; 3] = ["cvgrid", "ensemble", "minibatch"];

/// Builds a session execution context over a shared lineage cache with
/// MEMPHIS reuse on (the serving-layer configuration).
pub fn session_context(cache: &Arc<LineageCache>) -> ExecutionContext {
    ExecutionContext::new(
        EngineConfig::test().with_reuse(ReuseMode::Memphis),
        Arc::clone(cache),
        None,
        None,
    )
}

/// Runs one session pipeline of `kind` (a [`SESSION_MIX`] or
/// [`SCRIPT_SESSION_MIX`] name) at test scale, returning its checksum.
/// Unknown kinds fall back to tlvis, matching the historical
/// serving-harness dispatch.
pub fn run_session_kind(ctx: &mut ExecutionContext, kind: &str) -> Result<f64> {
    match kind {
        "hcv" => hcv::run(ctx, &hcv::HcvParams::small()),
        "pnmf" => pnmf::run(ctx, &pnmf::PnmfParams::small()),
        "hband" => hband::run(ctx, &hband::HbandParams::small()),
        "cvgrid" | "ensemble" | "minibatch" => crate::script::run_corpus(ctx, kind),
        _ => tlvis::run(ctx, &tlvis::TlvisParams::small()),
    }
}
