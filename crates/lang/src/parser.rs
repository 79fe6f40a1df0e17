//! Recursive-descent parser for ALang.
//!
//! Grammar (one statement per line):
//!
//! ```text
//! line    := IDENT '=' or_expr
//! or_expr := and_expr ( 'or' and_expr )*
//! and_expr:= cmp_expr ( 'and' cmp_expr )*
//! cmp_expr:= add_expr ( ('<'|'<='|'>'|'>='|'=='|'!=') add_expr )?
//! add_expr:= mul_expr ( ('+'|'-') mul_expr )*
//! mul_expr:= unary ( ('*'|'/') unary )*
//! unary   := ('-'|'not') unary | primary
//! primary := NUM | STR | IDENT | IDENT '(' args ')' | '(' or_expr ')'
//! ```

use crate::ast::{BinOp, Expr, Line, Program, UnOp};
use crate::error::{LangError, Result};
use crate::token::{lex_line, Token};

/// How deep a line's expression tree may nest, an open parenthesis
/// counting as a level (the registered programs nest at most 6 deep). The
/// parser, lowering, evaluation and `Drop` all recurse per level, so deeper
/// input is refused, not a stack overflow.
const MAX_DEPTH: usize = 64;

/// Parses a full ALang source text into a [`Program`].
///
/// Blank lines and comment-only lines are skipped; the remaining lines are
/// numbered consecutively from zero (those indices are the SESE region ids
/// used everywhere else).
///
/// # Errors
///
/// Returns a [`LangError::Lex`] or [`LangError::Parse`] pinpointing the
/// offending 1-based source line; an expression nested deeper than 64
/// levels is a [`LangError::Parse`].
///
/// ```
/// let p = alang::parser::parse("x = 1 + 2\ny = x * 3\n")?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), alang::error::LangError>(())
/// ```
pub fn parse(source: &str) -> Result<Program> {
    let mut lines = Vec::new();
    for (src_no, raw) in source.lines().enumerate() {
        let tokens = lex_line(raw, src_no + 1)?;
        if tokens.is_empty() {
            continue;
        }
        let mut p = Parser {
            tokens,
            pos: 0,
            line_no: src_no + 1,
            open: 0,
        };
        let line = p.parse_line(lines.len(), raw.trim().to_owned())?;
        lines.push(line);
    }
    Ok(Program::from_lines(lines))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    line_no: usize,
    /// Unary operators, parentheses and call argument lists enclosing the
    /// expression being parsed.
    open: usize,
}

/// A parsed expression and the depth of its tree.
struct Node {
    expr: Expr,
    depth: usize,
}

impl Parser {
    fn parse_line(&mut self, index: usize, source: String) -> Result<Line> {
        let target = match self.next() {
            Some(Token::Ident(name)) => name,
            other => return Err(self.unexpected(other.as_ref(), "a variable name")),
        };
        match self.next() {
            Some(Token::Assign) => {}
            other => return Err(self.unexpected(other.as_ref(), "`=`")),
        }
        let expr = self.or_expr()?.expr;
        if let Some(tok) = self.peek() {
            let tok = tok.clone();
            return Err(self.unexpected(Some(&tok), "end of line"));
        }
        Ok(Line::new(index, target, expr, source))
    }

    fn or_expr(&mut self) -> Result<Node> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::Or) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Node> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Token::And) {
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Node> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        self.binary(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> Result<Node> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Node> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node> {
        let op = if self.eat(&Token::Minus) {
            UnOp::Neg
        } else if self.eat(&Token::Not) {
            UnOp::Not
        } else {
            return self.primary();
        };
        let operand = self.nested(Self::unary)?;
        let expr = Expr::Unary {
            op,
            expr: Box::new(operand.expr),
        };
        self.node(expr, operand.depth + 1)
    }

    fn primary(&mut self) -> Result<Node> {
        match self.next() {
            Some(Token::Num(n)) => self.node(Expr::Num(n), 1),
            Some(Token::Str(s)) => self.node(Expr::Str(s), 1),
            Some(Token::Ident(name)) => {
                if !self.eat(&Token::LParen) {
                    return self.node(Expr::Ident(name), 1);
                }
                let mut args = Vec::new();
                let mut deepest = 0;
                if !self.eat(&Token::RParen) {
                    loop {
                        let arg = self.nested(Self::or_expr)?;
                        deepest = deepest.max(arg.depth);
                        args.push(arg.expr);
                        if self.eat(&Token::Comma) {
                            continue;
                        }
                        match self.next() {
                            Some(Token::RParen) => break,
                            other => return Err(self.unexpected(other.as_ref(), "`,` or `)`")),
                        }
                    }
                }
                self.node(Expr::Call { name, args }, deepest + 1)
            }
            Some(Token::LParen) => {
                let e = self.nested(Self::or_expr)?;
                match self.next() {
                    Some(Token::RParen) => Ok(e),
                    other => Err(self.unexpected(other.as_ref(), "`)`")),
                }
            }
            other => Err(self.unexpected(other.as_ref(), "an expression")),
        }
    }

    /// Parses `rule` one level further in, refusing to recurse past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, rule: fn(&mut Self) -> Result<Node>) -> Result<Node> {
        if self.open == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = rule(self);
        self.open -= 1;
        parsed
    }

    fn binary(&self, op: BinOp, lhs: Node, rhs: Node) -> Result<Node> {
        let depth = lhs.depth.max(rhs.depth) + 1;
        let expr = Expr::Binary {
            op,
            lhs: Box::new(lhs.expr),
            rhs: Box::new(rhs.expr),
        };
        self.node(expr, depth)
    }

    /// `expr` of tree depth `depth`, unless it would sit deeper than
    /// [`MAX_DEPTH`] under what encloses it.
    fn node(&self, expr: Expr, depth: usize) -> Result<Node> {
        if self.open + depth > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(Node { expr, depth })
    }

    fn too_deep(&self) -> LangError {
        LangError::Parse {
            line: self.line_no,
            message: format!("expression nests deeper than {MAX_DEPTH}"),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn unexpected(&self, got: Option<&Token>, wanted: &str) -> LangError {
        let got = got.map_or_else(|| "end of line".to_owned(), Token::describe);
        LangError::Parse {
            line: self.line_no,
            message: format!("expected {wanted}, found {got}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr};

    #[test]
    fn parses_precedence() {
        let p = parse("x = 1 + 2 * 3\n").expect("parse");
        match &p.lines()[0].expr {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn parses_parentheses_override() {
        let p = parse("x = (1 + 2) * 3\n").expect("parse");
        assert!(matches!(
            p.lines()[0].expr,
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn parses_nested_calls() {
        let p = parse("s = sum(mul(a, b))\n").expect("parse");
        match &p.lines()[0].expr {
            Expr::Call { name, args } => {
                assert_eq!(name, "sum");
                assert!(matches!(&args[0], Expr::Call { name, .. } if name == "mul"));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn parses_zero_arg_call() {
        let p = parse("x = now()\n").expect("parse");
        assert!(matches!(&p.lines()[0].expr, Expr::Call { args, .. } if args.is_empty()));
    }

    #[test]
    fn parses_logical_chain() {
        let p = parse("m = a < 1 and b >= 2 or not c\n").expect("parse");
        assert!(matches!(
            p.lines()[0].expr,
            Expr::Binary { op: BinOp::Or, .. }
        ));
    }

    #[test]
    fn parses_unary_minus() {
        let p = parse("x = -y * 2\n").expect("parse");
        assert!(matches!(
            p.lines()[0].expr,
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn blank_and_comment_lines_skipped() {
        let p = parse("\n# header\nx = 1\n\ny = x\n").expect("parse");
        assert_eq!(p.len(), 2);
        assert_eq!(p.lines()[0].index, 0);
        assert_eq!(p.lines()[1].index, 1);
    }

    #[test]
    fn missing_assign_is_parse_error() {
        let e = parse("x 1\n").unwrap_err();
        assert!(matches!(e, LangError::Parse { line: 1, .. }));
    }

    #[test]
    fn trailing_garbage_is_parse_error() {
        assert!(parse("x = 1 2\n").is_err());
    }

    #[test]
    fn unclosed_paren_is_parse_error() {
        assert!(parse("x = f(1, 2\n").is_err());
    }

    #[test]
    fn error_reports_true_source_line() {
        let e = parse("a = 1\n\n# comment\nb = +\n").unwrap_err();
        match e {
            LangError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn too_deep(line: usize) -> LangError {
        LangError::Parse {
            line,
            message: format!("expression nests deeper than {MAX_DEPTH}"),
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        let chain = format!("x = 1{}", " + 1".repeat(999_999));
        for source in [
            format!("x = {}", "(".repeat(10_000)),
            format!("x = {}1", "-".repeat(100_000)),
            format!("x = {}1", "not ".repeat(100_000)),
            format!("x = {}", "f(".repeat(100_000)),
            chain,
        ] {
            assert_eq!(parse(&source).unwrap_err(), too_deep(1));
        }
    }

    #[test]
    fn a_line_at_the_depth_limit_parses_lowers_runs_and_drops() {
        // Each shape nests exactly `depth` levels: a unary chain, a
        // left-leaning sum, parentheses around a literal, nested calls.
        let shapes = |depth: usize| {
            [
                format!("x = {}1", "-".repeat(depth - 1)),
                format!("x = 1{}", " + 1".repeat(depth - 1)),
                format!("x = {}1{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
                format!("x = {}1{}", "abs(".repeat(depth - 1), ")".repeat(depth - 1)),
            ]
        };
        let expected = [-1.0, MAX_DEPTH as f64, 1.0, 1.0];
        // A test thread's default stack, stated rather than inherited.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let storage = crate::builtins::Storage::new();
                for (source, want) in shapes(MAX_DEPTH).iter().zip(expected) {
                    let program = parse(source).expect("at the limit");
                    let lowered = crate::lower::lower(&program).expect("lowers");
                    let mut vm = crate::bytecode::Vm::new(&lowered, &storage);
                    vm.run().expect("runs");
                    let x = vm.var("x").expect("x").as_num().expect("a number");
                    assert_eq!(x, want, "{source}");
                }
                for source in shapes(MAX_DEPTH + 1) {
                    assert_eq!(parse(&source).unwrap_err(), too_deep(1), "{source}");
                }
            })
            .expect("spawns")
            .join()
            .expect("no overflow");
    }
}
