//! Path expressions: abstract syntax and parser.
//!
//! The supported language is the XPath fragment the paper works with
//! (§2, [29]): the axes `self`, `child` (`/`), `descendant` (`//`),
//! `following-sibling::` (⊲) and `following::` (◄) — the paper proves any
//! XPath axis can be rewritten into `{., /, //, ◄}` — plus tag-name tests,
//! wildcards, attribute tests (`@name`), and predicates with relative paths
//! and value comparisons:
//!
//! ```text
//! //book[author/last="Stevens"][price<100]
//! /bib/book[@year>1991]/title
//! /a/b/following-sibling::c
//! //chapter[.="intro"]
//! ```

use crate::error::{CoreError, CoreResult};
use std::fmt;

/// How a step relates to the previous context node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/` — child.
    Child,
    /// `//` — descendant (strictly below).
    Descendant,
    /// `following-sibling::` — the paper's ⊲ (local).
    FollowingSibling,
    /// `following::` — the paper's ◄ (global).
    Following,
}

/// A node test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// A tag name (attributes are the synthetic `@name` tags).
    Tag(String),
    /// `*` — any element.
    Wildcard,
}

impl NameTest {
    /// Does a node named `name` pass the test? `*` selects elements, not
    /// the synthesized `@name` attribute nodes.
    pub fn accepts(&self, name: &str) -> bool {
        match self {
            NameTest::Tag(t) => t == name,
            NameTest::Wildcard => !name.starts_with('@'),
        }
    }
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Tag(t) => f.write_str(t),
            NameTest::Wildcard => f.write_str("*"),
        }
    }
}

/// A comparison operator in a value predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A literal on the right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Quoted string — compared as a string.
    Str(String),
    /// Bare number — compared numerically (non-numeric node values never
    /// match).
    Num(f64),
}

/// A value constraint `op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueCmp {
    /// Operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Literal,
}

impl ValueCmp {
    /// The literal of a `= "literal"` constraint — the one comparison the
    /// value index (hash of the exact string) can answer.
    pub fn str_eq(&self) -> Option<&str> {
        match (&self.rhs, self.op) {
            (Literal::Str(lit), CmpOp::Eq) => Some(lit),
            _ => None,
        }
    }

    /// Evaluate this constraint against a node's string value.
    pub fn eval(&self, value: &str) -> bool {
        match (&self.rhs, self.op) {
            (Literal::Str(s), CmpOp::Eq) => value == s,
            (Literal::Str(s), CmpOp::Ne) => value != s,
            (Literal::Str(s), op) => match (value.trim().parse::<f64>(), s.parse::<f64>()) {
                // Ordered comparison against a quoted literal falls back to
                // numeric when both sides parse, else lexicographic.
                (Ok(a), Ok(b)) => cmp_f64(a, b, op),
                _ => cmp_ord(value.cmp(s.as_str()), op),
            },
            (Literal::Num(n), op) => match value.trim().parse::<f64>() {
                Ok(v) => cmp_f64(v, *n, op),
                Err(_) => false,
            },
        }
    }
}

fn cmp_f64(a: f64, b: f64, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_ord(o: std::cmp::Ordering, op: CmpOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

/// A predicate: a relative path and an optional comparison on the value of
/// the path's last node. An empty path (`.`) tests the context node's own
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Relative steps (first step's axis is relative to the context node).
    pub path: Vec<Step>,
    /// Optional comparison applied to the final node's value.
    pub cmp: Option<ValueCmp>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Axis from the previous step.
    pub axis: Axis,
    /// Node test.
    pub test: NameTest,
    /// Predicates (all must hold).
    pub predicates: Vec<Predicate>,
}

/// A complete (absolute) path expression.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// Spine steps; the first step's axis is relative to the document root.
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// Parse an absolute path expression.
    pub fn parse(input: &str) -> CoreResult<PathExpr> {
        Parser::new(input).parse_path()
    }

    /// The expression's *shape*: its canonical text with each
    /// `= "literal"` replaced by a numbered slot, in text order —
    /// `//article[ee="db/j/7.html"]/title` is `//article[ee=$1]/title`.
    /// Queries that differ only in such literals share a shape, and so a
    /// plan ([`crate::XmlDb::bind`]).
    pub fn shape(&self) -> String {
        struct Shape<'a>(&'a PathExpr);
        impl fmt::Display for Shape<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut slot = Some(0);
                self.0
                    .steps
                    .iter()
                    .try_for_each(|s| write_step(f, s, &mut slot))
            }
        }
        Shape(self).to_string()
    }

    /// The literals of the `= "literal"` constraints, in the slot order of
    /// [`PathExpr::shape`].
    pub fn literals(&self) -> Vec<&str> {
        fn visit<'a>(steps: &'a [Step], out: &mut Vec<&'a str>) {
            for step in steps {
                for p in &step.predicates {
                    visit(&p.path, out);
                    out.extend(p.cmp.as_ref().and_then(ValueCmp::str_eq));
                }
            }
        }
        let mut out = Vec::new();
        visit(&self.steps, &mut out);
        out
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            write_step(f, step, &mut None)?;
        }
        Ok(())
    }
}

/// Write `step`; with `slot`, each `= "literal"` as the next numbered slot.
fn write_step(f: &mut fmt::Formatter<'_>, step: &Step, slot: &mut Option<usize>) -> fmt::Result {
    match step.axis {
        Axis::Child => f.write_str("/")?,
        Axis::Descendant => f.write_str("//")?,
        Axis::FollowingSibling => f.write_str("/following-sibling::")?,
        Axis::Following => f.write_str("/following::")?,
    }
    write_step_body(f, step, slot)
}

fn write_step_body(
    f: &mut fmt::Formatter<'_>,
    step: &Step,
    slot: &mut Option<usize>,
) -> fmt::Result {
    write!(f, "{}", step.test)?;
    for p in &step.predicates {
        f.write_str("[")?;
        for (i, s) in p.path.iter().enumerate() {
            if i == 0 && s.axis == Axis::Child {
                write_step_body(f, s, slot)?;
            } else {
                write_step(f, s, slot)?;
            }
        }
        if p.path.is_empty() {
            f.write_str(".")?;
        }
        if let Some(c) = &p.cmp {
            let op = match c.op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            match (&c.rhs, c.str_eq().and(slot.as_mut())) {
                (_, Some(k)) => {
                    *k += 1;
                    write!(f, "{op}${k}")?;
                }
                (Literal::Str(s), None) => write!(f, "{op}\"{s}\"")?,
                (Literal::Num(n), None) => write!(f, "{op}{n}")?,
            }
        }
        f.write_str("]")?;
    }
    Ok(())
}

struct Parser<'a> {
    input: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            src: input,
            pos: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> CoreResult<T> {
        Err(CoreError::PathSyntax {
            pos: self.pos,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_path(&mut self) -> CoreResult<PathExpr> {
        self.skip_ws();
        if self.peek() != Some(b'/') {
            return self.err("path expression must start with '/' or '//'");
        }
        let steps = self.parse_steps(true)?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("trailing characters after path expression");
        }
        if steps.is_empty() {
            return self.err("empty path expression");
        }
        Ok(PathExpr { steps })
    }

    /// Parse a `/`-introduced step sequence. When `absolute`, the leading
    /// separator is mandatory; inside predicates the first step may be bare.
    fn parse_steps(&mut self, absolute: bool) -> CoreResult<Vec<Step>> {
        let mut steps = Vec::new();
        loop {
            self.skip_ws();
            #[allow(clippy::if_same_then_else)]
            // '/' and a bare predicate-initial step both mean Child
            let axis = if self.eat_str("//") {
                Axis::Descendant
            } else if self.eat(b'/') {
                Axis::Child
            } else if steps.is_empty() && !absolute {
                Axis::Child // bare first step inside a predicate
            } else {
                break;
            };
            #[allow(clippy::if_same_then_else)] // `child::` is an explicit spelling of the default
            let axis = if self.eat_str("following-sibling::") {
                if axis == Axis::Descendant {
                    return self.err("'//' cannot precede following-sibling::");
                }
                Axis::FollowingSibling
            } else if self.eat_str("following::") {
                if axis == Axis::Descendant {
                    return self.err("'//' cannot precede following::");
                }
                Axis::Following
            } else if self.eat_str("descendant::") {
                Axis::Descendant
            } else if self.eat_str("child::") {
                axis // child:: is the default; keep / vs // meaning
            } else {
                axis
            };
            let test = self.parse_name_test()?;
            let mut predicates = Vec::new();
            self.skip_ws();
            while self.eat(b'[') {
                predicates.push(self.parse_predicate()?);
                self.skip_ws();
            }
            steps.push(Step {
                axis,
                test,
                predicates,
            });
        }
        Ok(steps)
    }

    fn parse_name_test(&mut self) -> CoreResult<NameTest> {
        self.skip_ws();
        if self.eat(b'*') {
            return Ok(NameTest::Wildcard);
        }
        let attr = self.eat(b'@');
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80 {
                // '.' only continues a name, it cannot start one (a leading
                // '.' is the self test, handled by the predicate parser).
                if self.pos == start && b == b'.' {
                    break;
                }
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name test");
        }
        let name = &self.src[start..self.pos];
        Ok(NameTest::Tag(if attr {
            format!("@{name}")
        } else {
            name.to_string()
        }))
    }

    fn parse_predicate(&mut self) -> CoreResult<Predicate> {
        self.skip_ws();
        let path = if self.peek() == Some(b'.') && self.input.get(self.pos + 1) != Some(&b'.') {
            self.pos += 1; // `.` — the context node itself
            if self.peek() == Some(b'/') {
                // `.//c` / `./c`: a path relative to the context node.
                self.parse_steps(true)?
            } else {
                Vec::new()
            }
        } else {
            self.parse_steps(false)?
        };
        self.skip_ws();
        let cmp = if let Some(op) = self.parse_cmp_op() {
            self.skip_ws();
            let rhs = self.parse_literal()?;
            Some(ValueCmp { op, rhs })
        } else {
            None
        };
        self.skip_ws();
        if !self.eat(b']') {
            return self.err("expected ']' to close predicate");
        }
        if path.is_empty() && cmp.is_none() {
            return self.err("predicate '.' requires a comparison");
        }
        Ok(Predicate { path, cmp })
    }

    fn parse_cmp_op(&mut self) -> Option<CmpOp> {
        if self.eat_str("!=") {
            Some(CmpOp::Ne)
        } else if self.eat_str("<=") {
            Some(CmpOp::Le)
        } else if self.eat_str(">=") {
            Some(CmpOp::Ge)
        } else if self.eat(b'=') {
            Some(CmpOp::Eq)
        } else if self.eat(b'<') {
            Some(CmpOp::Lt)
        } else if self.eat(b'>') {
            Some(CmpOp::Gt)
        } else {
            None
        }
    }

    fn parse_literal(&mut self) -> CoreResult<Literal> {
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == q {
                        let s = self.src[start..self.pos].to_string();
                        self.pos += 1;
                        return Ok(Literal::Str(s));
                    }
                    self.pos += 1;
                }
                self.err("unterminated string literal")
            }
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'+' || b == b'.' => {
                let start = self.pos;
                self.pos += 1;
                while let Some(b) = self.peek() {
                    if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                match self.src[start..self.pos].parse::<f64>() {
                    Ok(n) => Ok(Literal::Num(n)),
                    Err(_) => self.err("malformed numeric literal"),
                }
            }
            _ => self.err("expected a string or numeric literal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> PathExpr {
        PathExpr::parse(s).expect("parse failed")
    }

    #[test]
    fn simple_absolute_path() {
        let p = parse("/a/b/c");
        assert_eq!(p.steps.len(), 3);
        assert!(p.steps.iter().all(|s| s.axis == Axis::Child));
        assert_eq!(p.steps[2].test, NameTest::Tag("c".into()));
    }

    #[test]
    fn descendant_axes() {
        let p = parse("//book//title");
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[1].axis, Axis::Descendant);
        let p2 = parse("/a/descendant::b");
        assert_eq!(p2.steps[1].axis, Axis::Descendant);
    }

    #[test]
    fn paper_running_example() {
        // //book[author/last="Stevens"][price<100]
        let p = parse(r#"//book[author/last="Stevens"][price<100]"#);
        assert_eq!(p.steps.len(), 1);
        let book = &p.steps[0];
        assert_eq!(book.axis, Axis::Descendant);
        assert_eq!(book.predicates.len(), 2);
        let p1 = &book.predicates[0];
        assert_eq!(p1.path.len(), 2);
        assert_eq!(p1.path[0].test, NameTest::Tag("author".into()));
        assert_eq!(p1.path[1].test, NameTest::Tag("last".into()));
        assert_eq!(
            p1.cmp,
            Some(ValueCmp {
                op: CmpOp::Eq,
                rhs: Literal::Str("Stevens".into())
            })
        );
        let p2 = &book.predicates[1];
        assert_eq!(p2.path[0].test, NameTest::Tag("price".into()));
        assert_eq!(
            p2.cmp,
            Some(ValueCmp {
                op: CmpOp::Lt,
                rhs: Literal::Num(100.0)
            })
        );
    }

    #[test]
    fn attribute_tests() {
        let p = parse(r#"/bib/book[@year>1991]/@year"#);
        assert_eq!(p.steps[2].test, NameTest::Tag("@year".into()));
        assert_eq!(
            p.steps[1].predicates[0].path[0].test,
            NameTest::Tag("@year".into())
        );
    }

    #[test]
    fn existence_predicates() {
        let p = parse("/a/b[c][d][e][f]");
        assert_eq!(p.steps[1].predicates.len(), 4);
        assert!(p.steps[1].predicates.iter().all(|pr| pr.cmp.is_none()));
    }

    #[test]
    fn nested_predicates() {
        let p = parse("/a[b[c][d]/e]");
        let pred = &p.steps[0].predicates[0];
        assert_eq!(pred.path.len(), 2); // b, e
        assert_eq!(pred.path[0].predicates.len(), 2); // [c][d]
    }

    #[test]
    fn descendant_inside_predicate() {
        let p = parse("/a[b//c]");
        let pred = &p.steps[0].predicates[0];
        assert_eq!(pred.path[1].axis, Axis::Descendant);
    }

    #[test]
    fn self_value_predicate() {
        let p = parse(r#"//last[.="Stevens"]"#);
        let pred = &p.steps[0].predicates[0];
        assert!(pred.path.is_empty());
        assert!(pred.cmp.is_some());
    }

    #[test]
    fn following_sibling_axis() {
        let p = parse("/a/b/following-sibling::c");
        assert_eq!(p.steps[2].axis, Axis::FollowingSibling);
        let p2 = parse("/a/b/following::c");
        assert_eq!(p2.steps[2].axis, Axis::Following);
    }

    #[test]
    fn wildcard() {
        let p = parse("/a/*/c");
        assert_eq!(p.steps[1].test, NameTest::Wildcard);
    }

    #[test]
    fn all_comparison_ops() {
        for (s, op) in [
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ] {
            let p = parse(&format!("/a[b{s}5]"));
            assert_eq!(p.steps[0].predicates[0].cmp.as_ref().unwrap().op, op);
        }
    }

    #[test]
    fn single_quoted_strings() {
        let p = parse("/a[b='x y']");
        assert_eq!(
            p.steps[0].predicates[0].cmp.as_ref().unwrap().rhs,
            Literal::Str("x y".into())
        );
    }

    #[test]
    fn syntax_errors() {
        for bad in [
            "",
            "a/b",
            "/a[",
            "/a[]",
            "/a[b=]",
            "/a[.]",
            "/a/b]",
            "/a[b=\"unterminated]",
            "//following-sibling::x",
        ] {
            assert!(PathExpr::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn value_cmp_eval_string_and_number() {
        let eq = ValueCmp {
            op: CmpOp::Eq,
            rhs: Literal::Str("Stevens".into()),
        };
        assert!(eq.eval("Stevens"));
        assert!(!eq.eval("stevens"));
        let lt = ValueCmp {
            op: CmpOp::Lt,
            rhs: Literal::Num(100.0),
        };
        assert!(lt.eval("65.95"));
        assert!(lt.eval(" 65.95 ")); // tolerant of surrounding whitespace
        assert!(!lt.eval("129.95"));
        assert!(!lt.eval("not a number"));
        let ge = ValueCmp {
            op: CmpOp::Ge,
            rhs: Literal::Num(1991.0),
        };
        assert!(ge.eval("1994"));
        assert!(!ge.eval("1990"));
    }

    #[test]
    fn quoted_numeric_comparison_falls_back_sensibly() {
        // [price>"99"] — both sides numeric: compare numerically.
        let c = ValueCmp {
            op: CmpOp::Gt,
            rhs: Literal::Str("99".into()),
        };
        assert!(c.eval("129.95"));
        assert!(!c.eval("65.95"));
        // Non-numeric: lexicographic.
        let c2 = ValueCmp {
            op: CmpOp::Lt,
            rhs: Literal::Str("m".into()),
        };
        assert!(c2.eval("apple"));
        assert!(!c2.eval("zebra"));
    }

    #[test]
    fn display_round_trips_semantics() {
        for src in [
            "/a/b/c",
            "//book",
            "/a/b[c][d]",
            r#"//book[price<100]"#,
            "/a/*",
        ] {
            let p = parse(src);
            let printed = p.to_string();
            let p2 = parse(&printed);
            assert_eq!(p.steps.len(), p2.steps.len(), "{src} -> {printed}");
        }
    }
}
