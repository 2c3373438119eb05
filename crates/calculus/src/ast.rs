//! Calculus terms, predicates and queries over the merged data model.

use crate::QueryContext;
use gemstone_object::{ElemName, GemError, GemResult, Oop, SymbolId};
use std::cmp::Ordering;

/// A range variable, indexed densely from 0 in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

/// Read access to variable bindings during evaluation. Implemented by the
/// naive evaluator's dense rows (`[Oop]`) and by the executor's view of one
/// row of a block — term/predicate evaluation is generic over both.
pub trait EnvRead {
    /// The value bound to `var` (nil when unbound).
    fn read(&self, var: VarId) -> Oop;
}

impl EnvRead for [Oop] {
    fn read(&self, var: VarId) -> Oop {
        self.get(var.0 as usize).copied().unwrap_or(Oop::NIL)
    }
}

impl EnvRead for Vec<Oop> {
    fn read(&self, var: VarId) -> Oop {
        self.as_slice().read(var)
    }
}

/// A term.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A bound variable.
    Var(VarId),
    /// `v!a!b` — path from a bound variable.
    Path(VarId, Vec<ElemName>),
    /// A constant value (immediate or a pre-resolved object).
    Const(Oop),
    Mul(Box<Term>, Box<Term>),
    Add(Box<Term>, Box<Term>),
    Sub(Box<Term>, Box<Term>),
    Div(Box<Term>, Box<Term>),
}

impl Term {
    /// Variables this term mentions.
    pub fn vars(&self, into: &mut Vec<VarId>) {
        match self {
            Term::Var(v) | Term::Path(v, _) => {
                if !into.contains(v) {
                    into.push(*v);
                }
            }
            Term::Const(_) => {}
            Term::Mul(a, b) | Term::Add(a, b) | Term::Sub(a, b) | Term::Div(a, b) => {
                a.vars(into);
                b.vars(into);
            }
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    True,
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    Cmp(Term, CmpOp, Term),
    /// `x ∈ S` (membership in a set's element values).
    In(Term, Term),
    /// `S ⊆ T`.
    Subset(Term, Term),
}

impl Pred {
    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Split into top-level conjuncts (for pushdown).
    pub fn conjuncts(self) -> Vec<Pred> {
        match self {
            Pred::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            Pred::True => vec![],
            p => vec![p],
        }
    }

    /// Variables this predicate mentions.
    pub fn vars(&self, into: &mut Vec<VarId>) {
        match self {
            Pred::True => {}
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.vars(into);
                b.vars(into);
            }
            Pred::Not(a) => a.vars(into),
            Pred::Cmp(a, _, b) | Pred::In(a, b) | Pred::Subset(a, b) => {
                a.vars(into);
                b.vars(into);
            }
        }
    }
}

/// A range declaration: `var ∈ domain`.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    pub var: VarId,
    pub domain: Term,
}

/// A calculus query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Output template: label → term.
    pub result: Vec<(SymbolId, Term)>,
    pub ranges: Vec<Range>,
    pub pred: Pred,
}

impl Query {
    /// Number of range variables (they must be densely numbered).
    pub fn var_count(&self) -> usize {
        self.ranges.iter().map(|r| r.var.0 as usize + 1).max().unwrap_or(0)
    }

    /// Every variable the query mentions anywhere — result terms, range
    /// domains, and the predicate — deduplicated, in first-mention order.
    /// Static validators use this to check that all references stay inside
    /// the declared range + capture window.
    pub fn used_vars(&self) -> Vec<VarId> {
        let mut vs = Vec::new();
        for (_, t) in &self.result {
            t.vars(&mut vs);
        }
        for r in &self.ranges {
            r.domain.vars(&mut vs);
        }
        self.pred.vars(&mut vs);
        vs
    }
}

/// Evaluate a term under an environment of variable bindings.
pub fn eval_term<C: QueryContext, E: EnvRead + ?Sized>(
    ctx: &mut C,
    term: &Term,
    env: &E,
) -> GemResult<Oop> {
    match term {
        Term::Var(v) => Ok(env.read(*v)),
        Term::Const(c) => Ok(*c),
        Term::Path(v, names) => {
            let mut cur = env.read(*v);
            for n in names {
                cur = ctx.elem(cur, *n)?;
            }
            Ok(cur)
        }
        Term::Mul(a, b) => arith(ctx, a, b, env, |x, y| x * y),
        Term::Add(a, b) => arith(ctx, a, b, env, |x, y| x + y),
        Term::Sub(a, b) => arith(ctx, a, b, env, |x, y| x - y),
        Term::Div(a, b) => arith(ctx, a, b, env, |x, y| x / y),
    }
}

fn arith<C: QueryContext, E: EnvRead + ?Sized>(
    ctx: &mut C,
    a: &Term,
    b: &Term,
    env: &E,
    f: fn(f64, f64) -> f64,
) -> GemResult<Oop> {
    let av = eval_term(ctx, a, env)?;
    let bv = eval_term(ctx, b, env)?;
    let x = av
        .as_number()
        .ok_or_else(|| GemError::TypeMismatch { expected: "number", got: format!("{av:?}") })?;
    let y = bv
        .as_number()
        .ok_or_else(|| GemError::TypeMismatch { expected: "number", got: format!("{bv:?}") })?;
    // Integral results of integer operands stay SmallIntegers.
    let r = f(x, y);
    if av.as_int().is_some() && bv.as_int().is_some() && r.fract() == 0.0 && r.abs() < 2e17 {
        Ok(Oop::int(r as i64))
    } else {
        Ok(Oop::float(r))
    }
}

/// `av op bv`, through the context's equality and ordering.
pub fn cmp_values<C: QueryContext>(ctx: &mut C, op: CmpOp, av: Oop, bv: Oop) -> GemResult<bool> {
    match op {
        CmpOp::Eq => ctx.equals(av, bv),
        CmpOp::Ne => Ok(!ctx.equals(av, bv)?),
        CmpOp::Lt => Ok(ctx.compare(av, bv)? == Some(Ordering::Less)),
        CmpOp::Le => Ok(matches!(ctx.compare(av, bv)?, Some(Ordering::Less | Ordering::Equal))),
        CmpOp::Gt => Ok(ctx.compare(av, bv)? == Some(Ordering::Greater)),
        CmpOp::Ge => Ok(matches!(ctx.compare(av, bv)?, Some(Ordering::Greater | Ordering::Equal))),
    }
}

/// Evaluate a predicate under an environment.
pub fn eval_pred<C: QueryContext, E: EnvRead + ?Sized>(
    ctx: &mut C,
    pred: &Pred,
    env: &E,
) -> GemResult<bool> {
    match pred {
        Pred::True => Ok(true),
        Pred::And(a, b) => Ok(eval_pred(ctx, a, env)? && eval_pred(ctx, b, env)?),
        Pred::Or(a, b) => Ok(eval_pred(ctx, a, env)? || eval_pred(ctx, b, env)?),
        Pred::Not(a) => Ok(!eval_pred(ctx, a, env)?),
        Pred::Cmp(a, op, b) => {
            let av = eval_term(ctx, a, env)?;
            let bv = eval_term(ctx, b, env)?;
            cmp_values(ctx, *op, av, bv)
        }
        Pred::In(x, s) => {
            let xv = eval_term(ctx, x, env)?;
            let sv = eval_term(ctx, s, env)?;
            for m in ctx.elements(sv)? {
                if ctx.equals(xv, m)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Pred::Subset(a, b) => {
            let av = eval_term(ctx, a, env)?;
            let bv = eval_term(ctx, b, env)?;
            let members_b = ctx.elements(bv)?;
            'outer: for m in ctx.elements(av)? {
                for n in &members_b {
                    if ctx.equals(m, *n)? {
                        continue 'outer;
                    }
                }
                return Ok(false);
            }
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let p = Pred::Cmp(Term::Const(Oop::int(1)), CmpOp::Lt, Term::Const(Oop::int(2)))
            .and(Pred::True.and(Pred::In(Term::Const(Oop::int(3)), Term::Var(VarId(0)))));
        let cs = p.conjuncts();
        assert_eq!(cs.len(), 2, "True vanishes, nested Ands flatten");
    }

    #[test]
    fn var_collection() {
        let t = Term::Mul(Box::new(Term::Path(VarId(1), vec![])), Box::new(Term::Var(VarId(0))));
        let mut vs = Vec::new();
        t.vars(&mut vs);
        assert_eq!(vs.len(), 2);
        let p = Pred::Not(Box::new(Pred::Cmp(Term::Var(VarId(2)), CmpOp::Eq, Term::Var(VarId(2)))));
        let mut vs = Vec::new();
        p.vars(&mut vs);
        assert_eq!(vs, vec![VarId(2)]);
    }

    #[test]
    fn var_count_from_ranges() {
        let q = Query {
            result: vec![],
            ranges: vec![
                Range { var: VarId(0), domain: Term::Const(Oop::NIL) },
                Range { var: VarId(2), domain: Term::Const(Oop::NIL) },
            ],
            pred: Pred::True,
        };
        assert_eq!(q.var_count(), 3);
    }

    #[test]
    fn used_vars_spans_result_ranges_pred() {
        let q = Query {
            result: vec![(SymbolId(0), Term::Var(VarId(0)))],
            ranges: vec![Range { var: VarId(0), domain: Term::Var(VarId(3)) }],
            pred: Pred::Cmp(Term::Path(VarId(0), vec![]), CmpOp::Lt, Term::Var(VarId(2))),
        };
        assert_eq!(q.used_vars(), vec![VarId(0), VarId(3), VarId(2)]);
    }
}
