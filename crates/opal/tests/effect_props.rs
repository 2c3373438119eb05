//! Soundness property for the effect analysis: **no statement classified
//! `Pure` or `ReadOnly` ever performs a write at runtime.**
//!
//! "Write" means exactly what the commit fast path cares about: any world
//! operation that dirties or allocates workspace state (a fresh object is
//! born dirty), changes a global binding, or changes schema. A wrapper
//! world counts every such entry point; random programs mixing reads and
//! writes are classified first and executed second, and a read-only
//! verdict with a nonzero write count is a soundness bug.

use gemstone_object::{
    BodyFormat, ClassId, ElemName, GemResult, Kernel, MethodId, MethodRef, Oop, SymbolId,
};
use gemstone_opal::effects::{self, EffectCache};
use gemstone_opal::{
    compile_doit, run_block, BasicWorld, CompiledMethod, OpalWorld, QueryTemplate,
};
use gemstone_temporal::TxnTime;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// Counts every mutating/allocating world call made through it. Faulting
/// reads (`get_elem`, `elements`, `equals`…) are not writes.
struct CountingWorld {
    inner: BasicWorld,
    writes: u64,
}

impl CountingWorld {
    fn new(inner: BasicWorld) -> CountingWorld {
        CountingWorld { inner, writes: 0 }
    }
}

impl OpalWorld for CountingWorld {
    fn intern(&mut self, name: &str) -> SymbolId {
        self.inner.intern(name)
    }
    fn sym_name(&self, id: SymbolId) -> String {
        self.inner.sym_name(id)
    }
    fn class_named(&self, name: SymbolId) -> Option<ClassId> {
        self.inner.class_named(name)
    }
    fn class_name_of(&self, class: ClassId) -> SymbolId {
        self.inner.class_name_of(class)
    }
    fn superclass_of(&self, class: ClassId) -> Option<ClassId> {
        self.inner.superclass_of(class)
    }
    fn define_subclass(
        &mut self,
        superclass: ClassId,
        name: SymbolId,
        instvars: Vec<SymbolId>,
    ) -> GemResult<ClassId> {
        self.writes += 1;
        self.inner.define_subclass(superclass, name, instvars)
    }
    fn add_instvar(&mut self, class: ClassId, var: SymbolId) -> GemResult<()> {
        self.writes += 1;
        self.inner.add_instvar(class, var)
    }
    fn declares_instvar(&self, class: ClassId, var: SymbolId) -> bool {
        self.inner.declares_instvar(class, var)
    }
    fn lookup_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.inner.lookup_method(class, selector)
    }
    fn lookup_class_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.inner.lookup_class_method(class, selector)
    }
    fn install_method(
        &mut self,
        class: ClassId,
        selector: SymbolId,
        m: MethodRef,
        class_side: bool,
    ) {
        self.writes += 1;
        self.inner.install_method(class, selector, m, class_side)
    }
    fn is_kind_of(&self, a: ClassId, b: ClassId) -> bool {
        self.inner.is_kind_of(a, b)
    }
    fn kernel(&self) -> Kernel {
        self.inner.kernel()
    }
    fn class_of(&self, oop: Oop) -> ClassId {
        self.inner.class_of(oop)
    }
    fn class_format(&self, class: ClassId) -> BodyFormat {
        self.inner.class_format(class)
    }
    fn block_class(&self) -> ClassId {
        self.inner.block_class()
    }
    fn selector_defined_anywhere(&self, selector: SymbolId) -> bool {
        self.inner.selector_defined_anywhere(selector)
    }
    fn selector_targets(&self, selector: SymbolId) -> Vec<MethodRef> {
        self.inner.selector_targets(selector)
    }
    fn method(&self, id: MethodId) -> Arc<CompiledMethod> {
        self.inner.method(id)
    }
    fn add_method_code(&mut self, m: CompiledMethod) -> GemResult<MethodId> {
        // Registering the doIt being run is not a workspace write.
        self.inner.add_method_code(m)
    }
    fn new_object(&mut self, class: ClassId) -> GemResult<Oop> {
        self.writes += 1;
        self.inner.new_object(class)
    }
    fn new_string(&mut self, s: &str) -> GemResult<Oop> {
        self.writes += 1;
        self.inner.new_string(s)
    }
    fn string_value(&self, oop: Oop) -> Option<String> {
        self.inner.string_value(oop)
    }
    fn get_elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        self.inner.get_elem(obj, name)
    }
    fn get_elem_at(&mut self, obj: Oop, name: ElemName, t: TxnTime) -> GemResult<Oop> {
        self.inner.get_elem_at(obj, name, t)
    }
    fn set_elem(&mut self, obj: Oop, name: ElemName, v: Oop) -> GemResult<()> {
        self.writes += 1;
        self.inner.set_elem(obj, name, v)
    }
    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>> {
        self.inner.elements(obj)
    }
    fn element_names(&mut self, obj: Oop) -> GemResult<Vec<ElemName>> {
        self.inner.element_names(obj)
    }
    fn add_aliased(&mut self, obj: Oop, v: Oop) -> GemResult<()> {
        self.writes += 1;
        self.inner.add_aliased(obj, v)
    }
    fn push_indexed(&mut self, obj: Oop, v: Oop) -> GemResult<i64> {
        self.writes += 1;
        self.inner.push_indexed(obj, v)
    }
    fn obj_size(&mut self, obj: Oop) -> GemResult<usize> {
        self.inner.obj_size(obj)
    }
    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool> {
        self.inner.equals(a, b)
    }
    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>> {
        self.inner.compare(a, b)
    }
    fn get_global(&self, name: SymbolId) -> Option<Oop> {
        self.inner.get_global(name)
    }
    fn set_global(&mut self, name: SymbolId, v: Oop) -> GemResult<()> {
        self.writes += 1;
        self.inner.set_global(name, v)
    }
    fn system_message(&mut self, selector: SymbolId, args: &[Oop]) -> GemResult<Oop> {
        // BasicWorld has no transactions; anything it does accept
        // (time dial) is session state. Count it to stay conservative.
        self.writes += 1;
        self.inner.system_message(selector, args)
    }
    fn run_select(
        &mut self,
        coll: Oop,
        template: &QueryTemplate,
        captured: &[Oop],
    ) -> GemResult<Vec<Oop>> {
        self.inner.run_select(coll, template, captured)
    }
}

/// A world with shared state to read and write: a populated dictionary
/// `D`, a collection `C`, and a class `Pt` with accessors.
fn seeded_world() -> BasicWorld {
    let mut w = BasicWorld::new();
    for src in [
        "D := Dictionary new. D at: #a put: 3. D at: #b put: 7",
        "C := OrderedCollection new. C add: 1; add: 2; add: 3",
        "Object subclass: 'Pt' instVarNames: #('x').
         Pt compile: 'getX ^x'.
         Pt compile: 'setX: ax x := ax. ^self'.
         P := Pt new setX: 5",
    ] {
        run_block(&mut w, src).expect("seed");
    }
    w
}

/// Statement pool mixing proven-read-only material with writes of every
/// kind, so random programs land on both sides of the classification.
fn stmt_pool() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        // Reads and pure computation.
        Just("t := 1 + 2 * 3"),
        Just("t := D size"),
        Just("t := (D at: #a) max: (D at: #b)"),
        Just("t := (C includes: 2) ifTrue: [1] ifFalse: [0]"),
        Just("t := P getX"),
        Just("t := nil isNil ifTrue: [4] ifFalse: [5]"),
        Just("1 to: 3 do: [:i | t := i]"),
        // Local writes: allocation, element stores, instvar stores.
        Just("t := OrderedCollection new"),
        Just("D at: #c put: 9"),
        Just("C add: 99"),
        Just("P setX: 8"),
        Just("t := 'a' , 'b'"),
        Just("t := D printString"),
        // Global writes.
        Just("G := 5"),
        // Higher-order over shared state.
        Just("C do: [:e | t := e]"),
        Just("t := (C inject: 0 into: [:acc :e | acc + e])"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The soundness bar: a statement the analysis calls Pure/ReadOnly
    /// performs zero writes (and zero allocations) when actually run.
    #[test]
    fn read_only_classification_is_sound(
        stmts in prop::collection::vec(stmt_pool(), 1..5),
    ) {
        let src = format!("| t | t := 0. {}. t", stmts.join(". "));
        let mut w = CountingWorld::new(seeded_world());
        let m = compile_doit(&mut w, &src).expect("pool programs compile");
        let mut cache = EffectCache::new();
        let summary = effects::summarize_body(&w, &mut cache, &m);
        w.writes = 0;
        let outcome = run_block(&mut w, &src);
        if summary.effect.is_read_only() {
            prop_assert!(outcome.is_ok(), "read-only program failed: {src} → {outcome:?}");
            prop_assert_eq!(
                w.writes, 0,
                "classified {} but performed {} writes: {}",
                summary.effect, w.writes, src
            );
        }
    }

    /// Classification is independent of execution: summarizing before and
    /// after a run produces the same summary (summaries are static).
    #[test]
    fn summaries_are_execution_independent(
        stmts in prop::collection::vec(stmt_pool(), 1..4),
    ) {
        let src = format!("| t | t := 0. {}. t", stmts.join(". "));
        let mut w = seeded_world();
        let m = compile_doit(&mut w, &src).expect("pool programs compile");
        let mut cache = EffectCache::new();
        let before = effects::summarize_body(&w, &mut cache, &m);
        let _ = run_block(&mut w, &src);
        let mut cache2 = EffectCache::new();
        let after = effects::summarize_body(&w, &mut cache2, &m);
        prop_assert_eq!(before, after, "summary changed across execution: {}", src);
    }
}
