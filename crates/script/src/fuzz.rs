//! Structured program fuzzer: generates random *well-typed* scripts from
//! a SplitMix64 stream (the same seeding discipline as sparksim's
//! `FaultPlan` and the latency harness), and shrinks diverging programs
//! by statement removal.
//!
//! Generated programs are self-contained — all matrix sources are seeded
//! `rand(...)` calls, so no external read resolver is needed. Operators
//! are chosen so results stay bounded (relu/sigmoid/tanh/abs, products of
//! [-1, 1] uniforms): every run is deterministic, which is what makes the
//! reuse-on/off, `Paper`/`DelayedHits`, and warm-restart differentials
//! meaningful bit-for-bit.

use crate::ast::Stmt;
use crate::{compile, parse, print_source};
use memphis_matrix::hash::{mix, GOLDEN_GAMMA};

/// A deterministic decision stream for one generated program.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64, program: u64) -> Self {
        Self {
            state: mix(seed ^ mix(program ^ 0x1a7e_5c21)),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// One-in-`n` chance.
    fn chance(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VKind {
    Matrix(usize, usize),
    Scalar,
}

struct Gen {
    rng: Rng,
    src: String,
    vars: Vec<(String, VKind)>,
    next_id: u32,
    rand_seed: u64,
}

impl Gen {
    fn fresh(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    fn matrices(&self) -> Vec<(String, usize, usize)> {
        self.vars
            .iter()
            .filter_map(|(n, k)| match k {
                VKind::Matrix(r, c) => Some((n.clone(), *r, *c)),
                VKind::Scalar => None,
            })
            .collect()
    }

    fn scalars(&self) -> Vec<String> {
        self.vars
            .iter()
            .filter_map(|(n, k)| match k {
                VKind::Scalar => Some(n.clone()),
                VKind::Matrix(..) => None,
            })
            .collect()
    }

    fn pick_matrix(&mut self) -> (String, usize, usize) {
        let ms = self.matrices();
        let i = self.rng.below(ms.len() as u64) as usize;
        ms[i].clone()
    }

    fn emit_rand(&mut self, indent: &str) -> (String, usize, usize) {
        const DIMS: [usize; 4] = [2, 3, 4, 6];
        let r = DIMS[self.rng.below(4) as usize];
        let c = DIMS[self.rng.below(4) as usize];
        let name = self.fresh("m");
        self.rand_seed += 1;
        let seed = self.rand_seed;
        self.src.push_str(&format!(
            "{indent}{name} = rand({r}, {c}, -1, 1, {seed});\n"
        ));
        self.vars.push((name.clone(), VKind::Matrix(r, c)));
        (name, r, c)
    }

    /// A small constant with one decimal digit, in [-1.5, 1.5].
    fn small_const(&mut self) -> String {
        let v = self.rng.below(31) as i64 - 15;
        format!("{}", v as f64 / 10.0)
    }

    /// Emits one statement at `indent`, optionally using `loop_var` as a
    /// runtime scalar. Returns the name it assigned.
    fn emit_stmt(&mut self, indent: &str, loop_var: Option<&str>) -> String {
        let choice = self.rng.below(10);
        match choice {
            // Elementwise binary between matrices of the same shape (via
            // a bounded unary to keep values tame).
            0 | 1 => {
                let (a, r, c) = self.pick_matrix();
                let same: Vec<String> = self
                    .matrices()
                    .into_iter()
                    .filter(|(_, mr, mc)| *mr == r && *mc == c)
                    .map(|(n, _, _)| n)
                    .collect();
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                let name = self.fresh("m");
                if same.len() > 1 && self.rng.chance(2) {
                    let b = same[self.rng.below(same.len() as u64) as usize].clone();
                    self.src
                        .push_str(&format!("{indent}{name} = {a} {op} {b};\n"));
                } else {
                    let k = self.small_const();
                    self.src
                        .push_str(&format!("{indent}{name} = {a} {op} {k};\n"));
                }
                self.vars.push((name.clone(), VKind::Matrix(r, c)));
                name
            }
            // A %*% t(B) — always shape-compatible when cols match.
            2 => {
                let (a, ar, ac) = self.pick_matrix();
                let compat: Vec<(String, usize, usize)> = self
                    .matrices()
                    .into_iter()
                    .filter(|(_, _, mc)| *mc == ac)
                    .collect();
                let (b, br, _) = compat[self.rng.below(compat.len() as u64) as usize].clone();
                let name = self.fresh("m");
                self.src
                    .push_str(&format!("{indent}{name} = {a} %*% t({b});\n"));
                self.vars.push((name.clone(), VKind::Matrix(ar, br)));
                name
            }
            3 => {
                let (a, _, c) = self.pick_matrix();
                let name = self.fresh("m");
                self.src.push_str(&format!("{indent}{name} = tsmm({a});\n"));
                self.vars.push((name.clone(), VKind::Matrix(c, c)));
                name
            }
            4 => {
                let (a, ar, ac) = self.pick_matrix();
                let compat: Vec<(String, usize, usize)> = self
                    .matrices()
                    .into_iter()
                    .filter(|(_, mr, _)| *mr == ar)
                    .collect();
                let (b, _, bc) = compat[self.rng.below(compat.len() as u64) as usize].clone();
                let name = self.fresh("m");
                self.src
                    .push_str(&format!("{indent}{name} = xty({a}, {b});\n"));
                self.vars.push((name.clone(), VKind::Matrix(ac, bc)));
                name
            }
            5 => {
                let (a, r, c) = self.pick_matrix();
                let f = ["relu", "abs", "sigmoid", "tanh"][self.rng.below(4) as usize];
                let name = self.fresh("m");
                self.src.push_str(&format!("{indent}{name} = {f}({a});\n"));
                self.vars.push((name.clone(), VKind::Matrix(r, c)));
                name
            }
            6 => {
                let (a, r, c) = self.pick_matrix();
                let name = self.fresh("m");
                self.src.push_str(&format!("{indent}{name} = t({a});\n"));
                self.vars.push((name.clone(), VKind::Matrix(c, r)));
                name
            }
            7 => {
                let (a, _, _) = self.pick_matrix();
                let f = ["sum", "mean", "var", "sumsq"][self.rng.below(4) as usize];
                let name = self.fresh("s");
                self.src.push_str(&format!("{indent}{name} = {f}({a});\n"));
                self.vars.push((name.clone(), VKind::Scalar));
                name
            }
            8 => {
                let (a, r, c) = self.pick_matrix();
                if r >= 3 && self.rng.chance(2) {
                    let cut = 1 + self.rng.below(r as u64 - 1) as usize;
                    let name = self.fresh("m");
                    self.src
                        .push_str(&format!("{indent}{name} = slice_rows({a}, 0, {cut});\n"));
                    self.vars.push((name.clone(), VKind::Matrix(cut, c)));
                    name
                } else {
                    let name = self.fresh("m");
                    let k = self.small_const();
                    self.src.push_str(&format!("{indent}{name} = {a} * {k};\n"));
                    self.vars.push((name.clone(), VKind::Matrix(r, c)));
                    name
                }
            }
            // Scalar arithmetic, pulling in the loop variable when one is
            // in scope (exercises ScalarRef::Loop and runtime scalars).
            _ => {
                let (a, r, c) = self.pick_matrix();
                let name = self.fresh("m");
                let s = match loop_var {
                    Some(v) if self.rng.chance(2) => v.to_string(),
                    _ => {
                        let ss = self.scalars();
                        if !ss.is_empty() && self.rng.chance(2) {
                            ss[self.rng.below(ss.len() as u64) as usize].clone()
                        } else {
                            self.small_const()
                        }
                    }
                };
                let op = ["*", "+"][self.rng.below(2) as usize];
                self.src
                    .push_str(&format!("{indent}{name} = {a} {op} {s};\n"));
                self.vars.push((name.clone(), VKind::Matrix(r, c)));
                name
            }
        }
    }
}

/// Generates the `index`-th well-typed program of `seed`'s stream. The
/// result always compiles (debug-asserted) and prints at least one sink.
pub fn gen_program(seed: u64, index: u64) -> String {
    let mut g = Gen {
        rng: Rng::new(seed, index),
        src: String::new(),
        vars: Vec::new(),
        next_id: 0,
        rand_seed: seed % 1000 + index * 17,
    };
    g.src
        .push_str(&format!("# fuzz seed={seed} index={index}\n"));
    let bases = 2 + g.rng.below(2);
    for _ in 0..bases {
        g.emit_rand("");
    }
    let stmts = 3 + g.rng.below(7);
    for _ in 0..stmts {
        match g.rng.below(8) {
            // Runtime for-loop: body uses the loop variable.
            0 => {
                let v = g.fresh("r");
                let a = g.small_const();
                let b = g.small_const();
                g.src.push_str(&format!("for ({v} in [{a}, {b}]) {{\n"));
                let inner = 1 + g.rng.below(2);
                for _ in 0..inner {
                    g.emit_stmt("  ", Some(&v));
                }
                g.src.push_str("}\n");
            }
            // Unrolled parfor.
            1 => {
                let v = g.fresh("i");
                g.src.push_str(&format!("parfor ({v} in seq(1, 2)) {{\n"));
                g.emit_stmt("  ", Some(&v));
                g.src.push_str("}\n");
            }
            // Branch on an aggregate.
            2 => {
                let (a, r, c) = g.pick_matrix();
                let cond = g.fresh("s");
                g.src.push_str(&format!("{cond} = mean({a});\n"));
                g.vars.push((cond.clone(), VKind::Scalar));
                let name = g.fresh("m");
                let k1 = g.small_const();
                let k2 = g.small_const();
                g.src.push_str(&format!(
                    "if ({cond} > 0) {{\n  {name} = {a} * {k1};\n}} else {{\n  {name} = {a} + {k2};\n}}\n"
                ));
                g.vars.push((name, VKind::Matrix(r, c)));
            }
            _ => {
                g.emit_stmt("", None);
            }
        }
    }
    // Publish 1-3 sinks: always the most recent matrix, sometimes more.
    let ms = g.matrices();
    let last = ms.last().expect("bases guarantee a matrix").0.clone();
    let mut printed = vec![last.clone()];
    g.src.push_str(&format!("print({last});\n"));
    for _ in 0..g.rng.below(3) {
        let pick = ms[g.rng.below(ms.len() as u64) as usize].0.clone();
        if !printed.contains(&pick) {
            g.src.push_str(&format!("print({pick});\n"));
            printed.push(pick);
        }
    }
    debug_assert!(
        compile(&g.src).is_ok(),
        "generator emitted invalid:\n{}",
        g.src
    );
    g.src
}

/// Shrinks a diverging program by statement removal: repeatedly deletes
/// one statement (anywhere in the tree), keeping the deletion whenever
/// the program still compiles and `still_diverges` holds, until a
/// fixpoint. Returns the minimized canonical source.
pub fn minimize(src: &str, mut still_diverges: impl FnMut(&str) -> bool) -> String {
    let Ok(mut script) = parse(src) else {
        return src.to_string();
    };
    loop {
        let total = count_stmts(&script.stmts);
        let mut shrunk = false;
        for i in 0..total {
            let mut candidate = script.clone();
            remove_nth(&mut candidate.stmts, &mut { i });
            let printed = print_source(&candidate);
            if compile(&printed).is_ok() && still_diverges(&printed) {
                script = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return print_source(&script);
        }
    }
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::For { body, .. } => count_stmts(body),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => count_stmts(then_body) + count_stmts(else_body),
                _ => 0,
            }
        })
        .sum()
}

/// Removes the `n`-th statement in pre-order; decrements `n` in place.
fn remove_nth(stmts: &mut Vec<Stmt>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if *n == 0 {
            stmts.remove(i);
            return true;
        }
        *n -= 1;
        let removed = match &mut stmts[i] {
            Stmt::For { body, .. } => remove_nth(body, n),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => remove_nth(then_body, n) || remove_nth(else_body, n),
            _ => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

/// Convenience: parses + lowers, used by harnesses to validate candidates.
pub fn compiles(src: &str) -> bool {
    compile(src).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_compile_and_are_deterministic() {
        for seed in [42u64, 1337] {
            for index in 0..50 {
                let a = gen_program(seed, index);
                let b = gen_program(seed, index);
                assert_eq!(a, b, "generation must be deterministic");
                let c = compile(&a).unwrap_or_else(|e| panic!("{e}\n{a}"));
                assert!(!c.prints.is_empty());
                assert!(c.node_count() > 0);
            }
        }
    }

    #[test]
    fn different_indices_differ() {
        let a = gen_program(42, 0);
        let b = gen_program(42, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn minimize_shrinks_to_the_essential_statement() {
        let src = "\
m1 = rand(3, 3, -1, 1, 1);
m2 = rand(3, 3, -1, 1, 2);
m3 = m1 + m2;
m4 = tsmm(m2);
print(m4);
";
        // Oracle: "diverges" whenever a tsmm statement survives.
        let out = minimize(src, |s| s.contains("tsmm"));
        assert!(out.contains("tsmm"));
        assert!(!out.contains("m1"), "unrelated statements removed:\n{out}");
    }

    #[test]
    fn roundtrip_holds_for_generated_programs() {
        for index in 0..20 {
            let src = gen_program(42, index);
            let ast1 = crate::parse(&src).unwrap();
            let printed = crate::print_source(&ast1);
            let ast2 = crate::parse(&printed).unwrap();
            let p1 = crate::lower::lower(&ast1).unwrap();
            let p2 = crate::lower::lower(&ast2).unwrap();
            assert_eq!(
                crate::canonical_debug(&p1.program),
                crate::canonical_debug(&p2.program)
            );
        }
    }
}
