//! An in-memory object graph the calculus tests evaluate against.

use gemstone_calculus::{JoinKey, QueryContext};
use gemstone_object::{ElemName, GemResult, Oop, OopKind};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Heap index → element map, plus which collections have directories.
#[derive(Default)]
pub struct MockGraph {
    pub objects: Vec<BTreeMap<ElemName, Oop>>,
    /// Collections (by Oop) with a directory on a path.
    pub indexed: Vec<(Oop, Vec<ElemName>)>,
    pub index_probes: u64,
    /// Give floats no join key, so they hash-join through the pairwise
    /// `equals` path (a context may always decline to key a value).
    pub loose_floats: bool,
}

impl MockGraph {
    pub fn alloc(&mut self, elems: BTreeMap<ElemName, Oop>) -> Oop {
        self.objects.push(elems);
        Oop::obj(self.objects.len() as u32 - 1)
    }

    fn path_value(&mut self, member: Oop, path: &[ElemName]) -> GemResult<Oop> {
        let mut v = member;
        for n in path {
            v = self.elem(v, *n)?;
        }
        Ok(v)
    }

    /// The members of a directory-covered collection whose path value
    /// passes `keep`, in member order; `None` without a directory.
    fn probe(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        keep: impl Fn(&mut Self, Oop) -> GemResult<bool>,
    ) -> GemResult<Option<Vec<Oop>>> {
        if !self.indexed.iter().any(|(c, p)| *c == collection && p == path) {
            return Ok(None);
        }
        self.index_probes += 1;
        let mut out = Vec::new();
        for m in self.elements(collection)? {
            let v = self.path_value(m, path)?;
            if keep(self, v)? {
                out.push(m);
            }
        }
        Ok(Some(out))
    }
}

impl QueryContext for MockGraph {
    fn elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        Ok(obj
            .as_obj()
            .and_then(|i| self.objects.get(i as usize))
            .and_then(|m| m.get(&name).copied())
            .unwrap_or(Oop::NIL))
    }

    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>> {
        Ok(obj
            .as_obj()
            .and_then(|i| self.objects.get(i as usize))
            .map(|m| m.values().copied().filter(|v| !v.is_nil()).collect())
            .unwrap_or_default())
    }

    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool> {
        if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
            return Ok(x == y);
        }
        Ok(a == b)
    }

    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>> {
        match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => Ok(x.partial_cmp(&y)),
            _ => Ok(None),
        }
    }

    fn index_lookup(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        key: Oop,
    ) -> GemResult<Option<Vec<Oop>>> {
        self.probe(collection, path, |g, v| g.equals(v, key))
    }

    fn index_range(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        lo: Option<(Oop, bool)>,
        hi: Option<(Oop, bool)>,
    ) -> GemResult<Option<Vec<Oop>>> {
        self.probe(collection, path, |g, v| {
            let within = |bound: Option<(Oop, bool)>, g: &mut Self, past: Ordering| {
                Ok::<_, gemstone_object::GemError>(match bound {
                    None => true,
                    Some((b, inclusive)) => match g.compare(v, b)? {
                        Some(Ordering::Equal) => inclusive,
                        Some(o) => o == past,
                        None => false,
                    },
                })
            };
            Ok(within(lo, g, Ordering::Greater)? && within(hi, g, Ordering::Less)?)
        })
    }

    fn join_key(&mut self, v: Oop) -> GemResult<Option<JoinKey>> {
        Ok(match v.kind() {
            OopKind::Float(_) if self.loose_floats => None,
            OopKind::Int(i) => Some(JoinKey::num(i as f64)),
            OopKind::Float(f) if !f.is_nan() => Some(JoinKey::num(f)),
            OopKind::Char(c) => Some(JoinKey::Char(c)),
            OopKind::Nil | OopKind::True | OopKind::False => Some(JoinKey::Imm(v.bits())),
            _ => None,
        })
    }
}
