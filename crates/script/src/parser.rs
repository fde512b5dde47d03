//! Recursive-descent parser producing the [`crate::ast::Script`] tree. Operator
//! precedence (loosest to tightest): comparisons, `+ -`, `* /`, `%*%`,
//! unary `-`, `^`.

use crate::ast::{Arg, BinOp, Expr, FuncDef, Script, SeqSpec, Stmt};
use crate::lexer::{tokenize, Tok, Token};
use crate::{Result, ScriptError, Span};

/// Parses a whole script.
pub fn parse(src: &str) -> Result<Script> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut script = Script::default();
    while !p.at(&Tok::Eof) {
        if p.at_kw("function") {
            script.funcs.push(p.funcdef()?);
        } else {
            script.stmts.push(p.stmt()?);
        }
    }
    Ok(script)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn at(&self, t: &Tok) -> bool {
        &self.peek().tok == t
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok, what: &str) -> Result<Token> {
        if self.at(t) {
            Ok(self.bump())
        } else {
            Err(ScriptError::at(
                self.span(),
                format!("expected {what}, found {}", self.peek().tok.describe()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span)> {
        let span = self.span();
        match self.bump().tok {
            Tok::Ident(s) => Ok((s, span)),
            other => Err(ScriptError::at(
                span,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn funcdef(&mut self) -> Result<FuncDef> {
        let span = self.span();
        self.bump(); // function
        let (name, _) = self.ident("function name")?;
        self.eat(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                params.push(self.ident("parameter name")?.0);
                if self.at(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen, "`)`")?;
        self.eat(&Tok::LBrace, "`{`")?;
        let mut body = Vec::new();
        loop {
            if self.at_kw("return") {
                break;
            }
            if self.at(&Tok::RBrace) || self.at(&Tok::Eof) {
                return Err(ScriptError::at(
                    self.span(),
                    format!("function `{name}` must end with `return(expr);`"),
                ));
            }
            body.push(self.stmt()?);
        }
        self.bump(); // return
        self.eat(&Tok::LParen, "`(`")?;
        let ret = self.expr()?;
        self.eat(&Tok::RParen, "`)`")?;
        self.eat(&Tok::Semi, "`;`")?;
        self.eat(&Tok::RBrace, "`}`")?;
        Ok(FuncDef {
            name,
            params,
            body,
            ret,
            span,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.eat(&Tok::LBrace, "`{`")?;
        let mut body = Vec::new();
        while !self.at(&Tok::RBrace) {
            if self.at(&Tok::Eof) {
                return Err(ScriptError::at(self.span(), "unclosed `{` block"));
            }
            body.push(self.stmt()?);
        }
        self.bump();
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let span = self.span();
        if self.at_kw("for") || self.at_kw("parfor") {
            let unroll = self.at_kw("parfor");
            self.bump();
            self.eat(&Tok::LParen, "`(`")?;
            let (var, _) = self.ident("loop variable")?;
            match self.bump().tok {
                Tok::Ident(kw) if kw == "in" => {}
                other => {
                    return Err(ScriptError::at(
                        span,
                        format!("expected `in`, found {}", other.describe()),
                    ))
                }
            }
            let seq = self.seq_spec()?;
            self.eat(&Tok::RParen, "`)`")?;
            let body = self.block()?;
            return Ok(Stmt::For {
                var,
                seq,
                body,
                unroll,
                span,
            });
        }
        if self.at_kw("if") {
            self.bump();
            self.eat(&Tok::LParen, "`(`")?;
            let cond = self.expr()?;
            self.eat(&Tok::RParen, "`)`")?;
            let then_body = self.block()?;
            let else_body = if self.at_kw("else") {
                self.bump();
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            });
        }
        if self.at_kw("print") || self.at_kw("checkpoint") {
            let is_print = self.at_kw("print");
            self.bump();
            self.eat(&Tok::LParen, "`(`")?;
            let (name, _) = self.ident("variable name")?;
            self.eat(&Tok::RParen, "`)`")?;
            self.eat(&Tok::Semi, "`;`")?;
            return Ok(if is_print {
                Stmt::Print { name, span }
            } else {
                Stmt::Checkpoint { name, span }
            });
        }
        if self.at_kw("evict") {
            self.bump();
            self.eat(&Tok::LParen, "`(`")?;
            let fspan = self.span();
            let fraction = match self.bump().tok {
                Tok::Num(v) => v,
                other => {
                    return Err(ScriptError::at(
                        fspan,
                        format!("expected fraction literal, found {}", other.describe()),
                    ))
                }
            };
            self.eat(&Tok::RParen, "`)`")?;
            self.eat(&Tok::Semi, "`;`")?;
            return Ok(Stmt::Evict { fraction, span });
        }
        // Plain assignment.
        let (name, span) = self.ident("statement")?;
        self.eat(&Tok::Assign, "`=`")?;
        let expr = self.expr()?;
        self.eat(&Tok::Semi, "`;`")?;
        Ok(Stmt::Assign { name, expr, span })
    }

    fn seq_spec(&mut self) -> Result<SeqSpec> {
        if self.at(&Tok::LBracket) {
            self.bump();
            let mut values = Vec::new();
            loop {
                values.push(self.expr()?);
                if self.at(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat(&Tok::RBracket, "`]`")?;
            return Ok(SeqSpec::List(values));
        }
        if self.at_kw("seq") {
            self.bump();
            self.eat(&Tok::LParen, "`(`")?;
            let from = self.expr()?;
            self.eat(&Tok::Comma, "`,`")?;
            let to = self.expr()?;
            self.eat(&Tok::RParen, "`)`")?;
            return Ok(SeqSpec::Range(Box::new(from), Box::new(to)));
        }
        Err(ScriptError::at(
            self.span(),
            format!(
                "expected `[v1, v2, ...]` or `seq(from, to)`, found {}",
                self.peek().tok.describe()
            ),
        ))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let mut lhs = self.addsub()?;
        loop {
            let op = match self.peek().tok {
                Tok::Lt => BinOp::Lt,
                Tok::Gt => BinOp::Gt,
                Tok::Le => BinOp::Le,
                Tok::Ge => BinOp::Ge,
                Tok::EqEq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                _ => break,
            };
            let span = self.span();
            self.bump();
            let rhs = self.addsub()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn addsub(&mut self) -> Result<Expr> {
        let mut lhs = self.muldiv()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            let span = self.span();
            self.bump();
            let rhs = self.muldiv()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn muldiv(&mut self) -> Result<Expr> {
        let mut lhs = self.matmul()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            let span = self.span();
            self.bump();
            let rhs = self.matmul()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn matmul(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        while self.at(&Tok::MatMul) {
            let span = self.span();
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op: BinOp::MatMul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.at(&Tok::Minus) {
            let span = self.span();
            self.bump();
            let arg = self.unary()?;
            // Fold negation of a literal so `-3` prints back as `-3`.
            if let Expr::Num(v, _) = arg {
                return Ok(Expr::Num(-v, span));
            }
            return Ok(Expr::Neg(Box::new(arg), span));
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr> {
        let base = self.primary()?;
        if self.at(&Tok::Caret) {
            let span = self.span();
            self.bump();
            let exp = self.unary()?;
            return Ok(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
                span,
            });
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.peek().tok.clone() {
            Tok::Num(v) => {
                self.bump();
                Ok(Expr::Num(v, span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.eat(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if self.at(&Tok::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&Tok::RParen) {
                        loop {
                            if let Tok::Str(s) = self.peek().tok.clone() {
                                let sspan = self.span();
                                self.bump();
                                args.push(Arg::Str(s, sspan));
                            } else {
                                args.push(Arg::Expr(self.expr()?));
                            }
                            if self.at(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen, "`)`")?;
                    Ok(Expr::Call { name, args, span })
                } else {
                    Ok(Expr::Var(name, span))
                }
            }
            other => Err(ScriptError::at(
                span,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_precedence() {
        let s = parse("y = a + b * c %*% d;").unwrap();
        let Stmt::Assign { expr, .. } = &s.stmts[0] else {
            panic!()
        };
        // a + (b * (c %*% d))
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = expr
        else {
            panic!("top is +: {expr:?}")
        };
        let Expr::Binary {
            op: BinOp::Mul,
            rhs: inner,
            ..
        } = rhs.as_ref()
        else {
            panic!("then *")
        };
        assert!(matches!(
            inner.as_ref(),
            Expr::Binary {
                op: BinOp::MatMul,
                ..
            }
        ));
    }

    #[test]
    fn parses_for_if_function() {
        let src = "\
function sq(x) { y = x * x; return(y); }
for (reg in [0.1, 0.2]) { A = G + reg; }
parfor (i in seq(1, 3)) { s = sq(i); }
if (s > 2) { t = s; } else { t = s + 1; }
print(t);
";
        let s = parse(src).unwrap();
        assert_eq!(s.funcs.len(), 1);
        assert_eq!(s.stmts.len(), 4);
        assert!(matches!(&s.stmts[0], Stmt::For { unroll: false, .. }));
        assert!(matches!(&s.stmts[1], Stmt::For { unroll: true, .. }));
        assert!(matches!(&s.stmts[2], Stmt::If { .. }));
        assert!(matches!(&s.stmts[3], Stmt::Print { .. }));
    }

    #[test]
    fn missing_semicolon_error_has_span() {
        let e = parse("x = 1;\ny = 2").unwrap_err();
        assert_eq!((e.span.line, e.span.col), (2, 6));
        assert!(e.message.contains("`;`"));
    }

    #[test]
    fn function_without_return_is_rejected() {
        let e = parse("function f(x) { y = x; }").unwrap_err();
        assert!(e.message.contains("return"));
    }

    #[test]
    fn negative_literals_fold() {
        let s = parse("x = -3;").unwrap();
        let Stmt::Assign { expr, .. } = &s.stmts[0] else {
            panic!()
        };
        assert_eq!(*expr, Expr::Num(-3.0, Span { line: 1, col: 5 }));
    }
}
