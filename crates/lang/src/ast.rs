//! Abstract syntax for ALang programs.
//!
//! A program is a flat sequence of lines, each `target = expression`. One
//! line is the paper's unit of task assignment: a single-entry-single-exit
//! region (§III-B). Expressions are side-effect-free; all data flow is
//! through named variables, which is what makes the per-line input/output
//! volumes of Eq. 1 well defined.

use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// The surface syntax of the operator.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// Whether the operator yields a boolean mask / scalar.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical negation.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Variable reference.
    Ident(String),
    /// Builtin call.
    Call {
        /// Function name (resolved against the builtin registry).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Collects the free variables the expression reads, in name order.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Num(_) | Expr::Str(_) => {}
            Expr::Ident(name) => {
                out.insert(name.clone());
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_free_vars(out);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_free_vars(out);
                rhs.collect_free_vars(out);
            }
            Expr::Unary { expr, .. } => expr.collect_free_vars(out),
        }
    }

    /// Counts [`Expr::Call`] nodes in the tree — the "library call
    /// boundaries" the copy-elimination optimization targets.
    #[must_use]
    pub fn call_count(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => 0,
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::call_count).sum::<usize>(),
            Expr::Binary { lhs, rhs, .. } => lhs.call_count() + rhs.call_count(),
            Expr::Unary { expr, .. } => expr.call_count(),
        }
    }

    /// Whether the expression contains a `scan(...)` or `scan_raw(...)`
    /// (stored-data access).
    #[must_use]
    pub fn contains_scan(&self) -> bool {
        match self {
            Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => false,
            Expr::Call { name, args } => {
                reads_storage(name) || args.iter().any(Expr::contains_scan)
            }
            Expr::Binary { lhs, rhs, .. } => lhs.contains_scan() || rhs.contains_scan(),
            Expr::Unary { expr, .. } => expr.contains_scan(),
        }
    }
}

/// Whether `builtin` is one of the two calls that read a stored dataset.
fn reads_storage(builtin: &str) -> bool {
    builtin == "scan" || builtin == "scan_raw"
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Str(s) => write!(f, "\"{s}\""),
            Expr::Ident(name) => write!(f, "{name}"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "(-{expr})"),
                UnOp::Not => write!(f, "(not {expr})"),
            },
        }
    }
}

/// One program line: `target = expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// 0-based index within the program (also the SESE region id).
    pub index: usize,
    /// The variable the line defines.
    pub target: String,
    /// The right-hand side.
    pub expr: Expr,
    /// The original source text (for reports).
    pub source: String,
    /// Free variables of `expr`, computed once at construction.
    inputs: BTreeSet<String>,
    /// Whether `expr` contains a `scan(...)`, computed once at construction.
    scans_storage: bool,
}

impl Line {
    /// Builds a line, precomputing its input set and storage-access flag so
    /// per-line execution never re-walks the expression tree.
    #[must_use]
    pub fn new(index: usize, target: String, expr: Expr, source: String) -> Self {
        let inputs = expr.free_vars();
        let scans_storage = expr.contains_scan();
        Line {
            index,
            target,
            expr,
            source,
            inputs,
            scans_storage,
        }
    }

    /// Variables this line reads (cached at parse time).
    #[must_use]
    pub fn inputs(&self) -> &BTreeSet<String> {
        &self.inputs
    }

    /// The variable this line defines (its only output).
    #[must_use]
    pub fn outputs(&self) -> &str {
        &self.target
    }

    /// Whether this line touches stored data (cached at parse time).
    #[must_use]
    pub fn accesses_storage(&self) -> bool {
        self.scans_storage
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.target, self.expr)
    }
}

/// A parsed ALang program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    lines: Vec<Line>,
    /// Indices of the lines that assign their target for the first time,
    /// computed once at construction.
    first_defs: Vec<usize>,
    /// Indices of the lines that assign their target for the last time,
    /// sorted by target name so [`Program::def_site`] is a binary search.
    final_defs: Vec<usize>,
}

impl Program {
    /// Builds a program from parsed lines; use [`crate::parser::parse`] to
    /// obtain one from source text.
    #[must_use]
    pub(crate) fn from_lines(lines: Vec<Line>) -> Self {
        let mut seen = BTreeSet::new();
        let first_defs = lines
            .iter()
            .filter(|l| seen.insert(l.target.as_str()))
            .map(|l| l.index)
            .collect();
        let mut seen = BTreeSet::new();
        let mut final_defs: Vec<usize> = lines
            .iter()
            .rev()
            .filter(|l| seen.insert(l.target.as_str()))
            .map(|l| l.index)
            .collect();
        final_defs.sort_unstable_by_key(|&i| lines[i].target.as_str());
        Program {
            lines,
            first_defs,
            final_defs,
        }
    }

    /// The distinct variables the program assigns, in first-assignment
    /// order.
    pub fn targets(&self) -> impl Iterator<Item = &str> {
        self.first_defs
            .iter()
            .map(|i| self.lines[*i].target.as_str())
    }

    /// The variable holding the program's result: the last line's target.
    #[must_use]
    pub fn result_target(&self) -> Option<&str> {
        self.lines.last().map(|l| l.target.as_str())
    }

    /// The program's lines in execution order.
    #[must_use]
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Number of lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the program has no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The line defining `name`, if any (last definition wins).
    #[must_use]
    pub fn def_site(&self, name: &str) -> Option<usize> {
        self.final_defs
            .binary_search_by(|&i| self.lines[i].target.as_str().cmp(name))
            .ok()
            .map(|at| self.final_defs[at])
    }

    /// The dataset `name` holds when the program ends, if its final
    /// assignment is nothing but `scan('…')` / `scan_raw('…')` of a string
    /// literal: the variable then *is* that stored value (both kernels
    /// return the stored value itself), so whatever the storage knows about
    /// the dataset it knows about the variable.
    #[must_use]
    pub fn scanned_dataset(&self, name: &str) -> Option<&str> {
        match &self.lines[self.def_site(name)?].expr {
            Expr::Call { name, args } if reads_storage(name) => match args.as_slice() {
                [Expr::Str(dataset)] => Some(dataset),
                _ => None,
            },
            _ => None,
        }
    }

    /// Indices of the lines that read variable `name` after line `after`,
    /// up to and including the line that redefines it.
    pub fn consumers_of<'a>(
        &'a self,
        name: &'a str,
        after: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        // A redefinition kills the value, but may itself read it first.
        let mut live = true;
        self.lines[after + 1..]
            .iter()
            .take_while(move |l| std::mem::replace(&mut live, l.target != name))
            .filter(move |l| l.inputs().contains(name))
            .map(|l| l.index)
    }

    /// Variables that are live at the boundary *after* line `at`: defined at
    /// or before `at` and read by some later line.
    #[must_use]
    pub fn live_after(&self, at: usize) -> BTreeSet<String> {
        let mut live = BTreeSet::new();
        for line in &self.lines[..=at.min(self.lines.len() - 1)] {
            if self.consumers_of(&line.target, at).next().is_some() {
                live.insert(line.target.clone());
            }
        }
        live
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    const PROG: &str = "\
t = scan('lineitem')
m = col(t, 'qty') < 24
f = filter(t, m)
s = sum(col(f, 'price'))
";

    #[test]
    fn free_vars_are_collected() {
        let p = parse(PROG).expect("parse");
        assert!(p.lines()[1].inputs().contains("t"));
        assert!(p.lines()[3].inputs().contains("f"));
        assert!(p.lines()[0].inputs().is_empty());
    }

    #[test]
    fn scan_detection() {
        let p = parse(PROG).expect("parse");
        assert!(p.lines()[0].accesses_storage());
        assert!(!p.lines()[1].accesses_storage());
    }

    #[test]
    fn def_site_and_consumers() {
        let p = parse(PROG).expect("parse");
        assert_eq!(p.def_site("t"), Some(0));
        assert_eq!(p.def_site("s"), Some(3));
        assert_eq!(p.def_site("zzz"), None);
        assert!(p.consumers_of("t", 0).eq([1, 2]));
        assert!(p.consumers_of("m", 1).eq([2]));
    }

    #[test]
    fn redefinition_kills_liveness() {
        let src = "a = 1\nb = a + 1\na = 2\nc = a + b\n";
        let p = parse(src).expect("parse");
        // Consumers of the first `a` stop at the redefinition on line 2.
        assert!(p.consumers_of("a", 0).eq([1]));
        assert!(p.consumers_of("a", 2).eq([3]));
        // ... and the redefined name keeps its first-assignment position.
        assert_eq!(p.targets().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(p.result_target(), Some("c"));
    }

    #[test]
    fn def_site_is_the_last_assignment_of_every_name() {
        let src = "b = 1\na = b\nc = a\na = c + 1\nb = a\nzz = b\n";
        let p = parse(src).expect("parse");
        for name in ["a", "b", "c", "zz", "", "aa", "z"] {
            let scanned = p.lines().iter().rposition(|l| l.target == name);
            assert_eq!(p.def_site(name), scanned, "`{name}`");
        }
    }

    #[test]
    fn scanned_dataset_reads_the_final_assignment_only() {
        let src = "\
t = scan('lineitem')
r = scan_raw(\"wire\")
u = scan('a')
u = u + 1
v = v0
v = scan('b')
n = 'c'
w = scan(n)
x = sum(scan('d'))
y = col(t, 'qty')
";
        let p = parse(src).expect("parse");
        assert_eq!(p.scanned_dataset("t"), Some("lineitem"));
        assert_eq!(p.scanned_dataset("r"), Some("wire"));
        assert_eq!(p.scanned_dataset("u"), None, "reassigned after the scan");
        assert_eq!(p.scanned_dataset("v"), Some("b"), "the scan comes last");
        assert_eq!(p.scanned_dataset("w"), None, "not a literal");
        assert_eq!(p.scanned_dataset("x"), None, "nested in an expression");
        assert_eq!(p.scanned_dataset("y"), None);
        assert_eq!(p.scanned_dataset("zzz"), None, "never assigned");
    }

    #[test]
    fn live_after_boundary() {
        let p = parse(PROG).expect("parse");
        let live = p.live_after(1);
        assert!(live.contains("t"));
        assert!(live.contains("m"));
        // `f`/`s` are not yet defined.
        assert!(!live.contains("f"));
        let live3 = p.live_after(2);
        assert!(live3.contains("f"));
        assert!(!live3.contains("m"), "m has no consumer after line 2");
    }

    #[test]
    fn call_count_counts_nested_calls() {
        let p = parse("x = sum(filter(scan('d'), m))\n").expect("parse");
        assert_eq!(p.lines()[0].expr.call_count(), 3);
    }

    #[test]
    fn display_round_trips_shape() {
        let p = parse(PROG).expect("parse");
        let shown = format!("{p}");
        assert!(shown.contains("filter(t, m)"));
        assert!(shown.contains('<'));
    }
}
