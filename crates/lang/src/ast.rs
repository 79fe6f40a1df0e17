//! Abstract syntax for ALang programs.
//!
//! A program is a flat sequence of lines, each `target = expression`. One
//! line is the paper's unit of task assignment: a single-entry-single-exit
//! region (§III-B). Expressions are side-effect-free; all data flow is
//! through named variables, which is what makes the per-line input/output
//! volumes of Eq. 1 well defined.

use crate::builtins::{kernel_id, KernelId};
use std::collections::{BTreeMap, BTreeSet};
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
    /// The operands whose values, not only types and lengths, the
    /// operator's result shape or errors read: none
    /// ([`crate::shape`]).
    pub const BY_VALUE: &'static [usize] = &[];

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

impl UnOp {
    /// As [`BinOp::BY_VALUE`]: none.
    pub const BY_VALUE: &'static [usize] = &[];
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

    /// Whether the expression contains a call that reads a stored dataset
    /// (`scan(...)`, `scan_raw(...)`).
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

/// Whether `builtin` reads a stored dataset.
fn reads_storage(builtin: &str) -> bool {
    kernel_id(builtin).is_some_and(KernelId::reads_storage)
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
    /// Free variables of `expr` in name order, each with its reaching
    /// definition. The names are collected at construction; the
    /// definitions are resolved when the line joins a [`Program`].
    inputs: Vec<(String, Option<usize>)>,
    /// Whether `expr` contains a `scan(...)`, computed once at construction.
    scans_storage: bool,
}

impl Line {
    /// Builds a line, precomputing its input set and storage-access flag so
    /// per-line execution never re-walks the expression tree.
    #[must_use]
    pub(crate) fn new(index: usize, target: String, expr: Expr, source: String) -> Self {
        let inputs = expr.free_vars().into_iter().map(|v| (v, None)).collect();
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

    /// Variables this line reads, in name order, each with its reaching
    /// definition: the latest earlier line assigning that name, so
    /// `a = a + 1` reads the previous `a`. `None` when no earlier line
    /// assigns it — evaluating the read is an unknown-variable error.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, Option<usize>)> {
        self.inputs.iter().map(|(name, def)| (name.as_str(), *def))
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
    /// Per line: the last line that reads the value it defines.
    last_reads: Vec<Option<usize>>,
}

impl Program {
    /// Builds a program from parsed lines, resolving every read to its
    /// reaching definition; use [`crate::parser::parse`] to obtain one from
    /// source text.
    #[must_use]
    pub(crate) fn from_lines(mut lines: Vec<Line>) -> Self {
        // Name → the latest line assigning it, as of the line being visited.
        let mut latest: BTreeMap<&str, usize> = BTreeMap::new();
        let mut first_defs = Vec::new();
        let mut last_reads = vec![None; lines.len()];
        let mut reaching = Vec::new();
        for line in &lines {
            for (name, _) in &line.inputs {
                let def = latest.get(name.as_str()).copied();
                if let Some(def) = def {
                    last_reads[def] = Some(line.index);
                }
                reaching.push(def);
            }
            if latest.insert(&line.target, line.index).is_none() {
                first_defs.push(line.index);
            }
        }
        // What each name maps to once every line is in, in name order.
        let final_defs = latest.into_values().collect();
        let reads = lines.iter_mut().flat_map(|l| &mut l.inputs);
        for ((_, slot), def) in reads.zip(reaching) {
            *slot = def;
        }
        Program {
            lines,
            first_defs,
            final_defs,
            last_reads,
        }
    }

    /// The distinct variables the program assigns, in first-assignment
    /// order.
    pub fn targets(&self) -> impl Iterator<Item = &str> {
        self.first_defs
            .iter()
            .map(|i| self.lines[*i].target.as_str())
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
            Expr::Call { name, args } => match args.as_slice() {
                [Expr::Str(dataset)] if reads_storage(name) => Some(dataset),
                _ => None,
            },
            _ => None,
        }
    }

    /// The last line that reads the value line `def` defines, if any line
    /// does: the value is dead after it (and `a = a + 1` is a read of the
    /// `a` it replaces).
    #[must_use]
    pub fn last_read(&self, def: usize) -> Option<usize> {
        self.last_reads[def]
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
        assert!(p.lines()[1].inputs().eq([("t", Some(0))]));
        assert!(p.lines()[2].inputs().eq([("m", Some(1)), ("t", Some(0))]));
        assert!(p.lines()[3].inputs().eq([("f", Some(2))]));
        assert_eq!(p.lines()[0].inputs().count(), 0);
    }

    #[test]
    fn scan_detection() {
        let p = parse(PROG).expect("parse");
        assert!(p.lines()[0].accesses_storage());
        assert!(!p.lines()[1].accesses_storage());
    }

    #[test]
    fn def_site_and_last_reads() {
        let p = parse(PROG).expect("parse");
        assert_eq!(p.def_site("t"), Some(0));
        assert_eq!(p.def_site("s"), Some(3));
        assert_eq!(p.def_site("zzz"), None);
        let last_reads: Vec<_> = (0..p.len()).map(|def| p.last_read(def)).collect();
        assert_eq!(last_reads, [Some(2), Some(2), Some(3), None]);
    }

    #[test]
    fn a_read_resolves_to_the_latest_earlier_assignment() {
        let src = "a = 1\nb = a + 1\na = a + b\nc = a + b + z\nz = c\n";
        let p = parse(src).expect("parse");
        // Line 2 reads the `a` it replaces; line 3 reads the new one, and
        // a `z` no earlier line assigns (line 4 comes too late).
        assert!(p.lines()[1].inputs().eq([("a", Some(0))]));
        assert!(p.lines()[2].inputs().eq([("a", Some(0)), ("b", Some(1))]));
        let expected = [("a", Some(2)), ("b", Some(1)), ("z", None)];
        assert!(p.lines()[3].inputs().eq(expected));
        // The first `a` dies at its redefinition, not at the last `a` read.
        let last_reads: Vec<_> = (0..p.len()).map(|def| p.last_read(def)).collect();
        assert_eq!(last_reads, [Some(2), Some(3), Some(3), Some(4), None]);
        // ... and the redefined name keeps its first-assignment position.
        assert_eq!(p.targets().collect::<Vec<_>>(), ["a", "b", "c", "z"]);
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
