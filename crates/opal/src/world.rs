//! The object-system interface the OPAL machine runs against, and a
//! standalone in-memory implementation.
//!
//! The interpreter is pure control: every data operation — element access,
//! allocation, equality, globals, system commands, declarative selection —
//! goes through [`OpalWorld`]. The `gemstone` core crate implements it with
//! persistence, transactions and the time dial; [`BasicWorld`] here is the
//! non-persistent, single-user variant (what ST80 itself was, §4.3), used
//! for language-level tests and embeddable on its own.

use crate::bytecode::{CompiledMethod, QueryTemplate};
use crate::compiler;
use gemstone_object::{
    class_of, structurally_equal, BodyFormat, ClassId, ClassTable, ElemName, GemError, GemResult,
    HeapObject, Kernel, MethodId, MethodRef, Oop, OopKind, SegmentId, SymbolId, SymbolTable,
    Workspace,
};
use gemstone_temporal::TxnTime;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum nesting depth when printing object structures.
#[derive(Debug, Clone, Copy)]
pub struct PrintDepth(pub u8);

impl Default for PrintDepth {
    fn default() -> Self {
        PrintDepth(3)
    }
}

/// Everything the OPAL compiler and interpreter need from the object system.
pub trait OpalWorld {
    // ---- symbols
    fn intern(&mut self, name: &str) -> SymbolId;
    fn sym_name(&self, id: SymbolId) -> String;

    // ---- classes
    fn class_named(&self, name: SymbolId) -> Option<ClassId>;
    fn class_name_of(&self, class: ClassId) -> SymbolId;
    fn superclass_of(&self, class: ClassId) -> Option<ClassId>;
    fn define_subclass(
        &mut self,
        superclass: ClassId,
        name: SymbolId,
        instvars: Vec<SymbolId>,
    ) -> GemResult<ClassId>;
    fn add_instvar(&mut self, class: ClassId, var: SymbolId) -> GemResult<()>;
    fn declares_instvar(&self, class: ClassId, var: SymbolId) -> bool;
    fn lookup_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef>;
    fn lookup_class_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef>;
    fn install_method(
        &mut self,
        class: ClassId,
        selector: SymbolId,
        m: MethodRef,
        class_side: bool,
    );
    fn is_kind_of(&self, a: ClassId, b: ClassId) -> bool;
    fn kernel(&self) -> Kernel;
    fn class_of(&self, oop: Oop) -> ClassId;
    fn class_format(&self, class: ClassId) -> BodyFormat;
    /// The transient BlockClosure class.
    fn block_class(&self) -> ClassId;
    /// True if any class (kernel or user) defines a method for `selector`.
    /// The select-block analyzer uses this to avoid misreading a real
    /// method send (`printString`) as an element path.
    fn selector_defined_anywhere(&self, selector: SymbolId) -> bool;
    /// Every method bound to `selector` anywhere — instance and class
    /// side, all classes, deduplicated. The effect analysis
    /// ([`crate::effects`]) joins over this closed world to bound what a
    /// dynamically dispatched send can do.
    fn selector_targets(&self, selector: SymbolId) -> Vec<MethodRef>;
    /// Called when user source is compiled into a class (`compile:`), so a
    /// persistent world can record it for recompilation at recovery.
    fn note_method_source(&mut self, _class: ClassId, _source: &str, _class_side: bool) {}
    /// Called once per interpreter run with the bytecode-dispatch and
    /// message-send counts of that run. The interpreter accumulates both in
    /// plain locals and flushes here, so a telemetry-aware world pays two
    /// atomic adds per *run*, never per bytecode.
    fn note_interp_stats(&mut self, _dispatches: u64, _sends: u64) {}

    // ---- compiled code
    fn method(&self, id: MethodId) -> Arc<CompiledMethod>;
    /// Register compiled code, *verifying it first* ([`crate::verify`]).
    /// This is the single choke point through which bytecode reaches the
    /// interpreter: any method that installs here has passed the static
    /// stack/jump/slot analysis, so the interpreter's fast path need not
    /// re-check per instruction.
    fn add_method_code(&mut self, m: CompiledMethod) -> GemResult<MethodId>;

    // ---- objects
    fn new_object(&mut self, class: ClassId) -> GemResult<Oop>;
    fn new_string(&mut self, s: &str) -> GemResult<Oop>;
    /// Text of a String or Symbol.
    fn string_value(&self, oop: Oop) -> Option<String>;
    fn get_elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop>;
    /// Element value in the database state at `t` (temporal `@`).
    fn get_elem_at(&mut self, obj: Oop, name: ElemName, t: TxnTime) -> GemResult<Oop>;
    fn set_elem(&mut self, obj: Oop, name: ElemName, v: Oop) -> GemResult<()>;
    /// Present element values, in name order.
    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>>;
    /// Present element names, in order.
    fn element_names(&mut self, obj: Oop) -> GemResult<Vec<ElemName>>;
    fn add_aliased(&mut self, obj: Oop, v: Oop) -> GemResult<()>;
    fn push_indexed(&mut self, obj: Oop, v: Oop) -> GemResult<i64>;
    /// Present-element count (byte length for byte objects).
    fn obj_size(&mut self, obj: Oop) -> GemResult<usize>;
    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool>;
    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>>;

    // ---- globals
    fn get_global(&self, name: SymbolId) -> Option<Oop>;
    fn set_global(&mut self, name: SymbolId, v: Oop) -> GemResult<()>;

    // ---- system commands & declarative selection
    /// A message sent to the `System` pseudo-object (§4.2's uniform system
    /// commands): transactions, the time dial, SafeTime…
    fn system_message(&mut self, selector: SymbolId, args: &[Oop]) -> GemResult<Oop>;
    /// Run a compiled selection query against a collection, with captured
    /// outer values. Returns matching members.
    fn run_select(
        &mut self,
        coll: Oop,
        template: &QueryTemplate,
        captured: &[Oop],
    ) -> GemResult<Vec<Oop>>;
}

/// Human-readable rendering of any value, used by `printString`.
pub fn print_oop<W: OpalWorld + ?Sized>(
    world: &mut W,
    oop: Oop,
    depth: PrintDepth,
) -> GemResult<String> {
    Ok(match oop.kind() {
        OopKind::Nil => "nil".into(),
        OopKind::True => "true".into(),
        OopKind::False => "false".into(),
        OopKind::System => "System".into(),
        OopKind::Int(i) => i.to_string(),
        OopKind::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        OopKind::Char(c) => format!("${c}"),
        OopKind::Sym(s) => format!("#{}", world.sym_name(s)),
        OopKind::Class(c) => world.sym_name(world.class_name_of(c)),
        OopKind::Heap(_) | OopKind::Ref(_) => {
            if let Some(s) = world.string_value(oop) {
                return Ok(format!("'{s}'"));
            }
            let class = world.class_of(oop);
            let cname = world.sym_name(world.class_name_of(class));
            let k = world.kernel();
            if world.is_kind_of(class, k.collection) && depth.0 > 0 {
                let vals = world.elements(oop)?;
                let mut s = format!("{cname} (");
                for (i, v) in vals.iter().take(16).enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    s.push_str(&print_oop(world, *v, PrintDepth(depth.0 - 1))?);
                }
                if vals.len() > 16 {
                    s.push_str(" …");
                }
                s.push(')');
                s
            } else {
                let article =
                    if "AEIOU".contains(cname.chars().next().unwrap_or('X')) { "an" } else { "a" };
                format!("{article} {cname}")
            }
        }
    })
}

/// A standalone, in-memory OPAL world: bootstrapped kernel classes, a
/// session workspace, globals, and no persistence.
pub struct BasicWorld {
    pub symbols: SymbolTable,
    pub classes: ClassTable,
    pub workspace: Workspace,
    kernel: Kernel,
    block_class: ClassId,
    methods: Vec<Arc<CompiledMethod>>,
    globals: HashMap<SymbolId, Oop>,
}

impl BasicWorld {
    /// Bootstrap a world with kernel classes and kernel methods installed.
    pub fn new() -> BasicWorld {
        let mut symbols = SymbolTable::new();
        let (mut classes, kernel) = ClassTable::bootstrap(&mut symbols);
        let bc_name = symbols.intern("BlockClosure");
        let block_class = classes.subclass(bc_name, kernel.object, vec![]).expect("bootstrap");
        let mut w = BasicWorld {
            symbols,
            classes,
            workspace: Workspace::new(),
            kernel,
            block_class,
            methods: Vec::new(),
            globals: HashMap::new(),
        };
        install_kernel_methods(&mut w).expect("kernel methods");
        w
    }

    /// Every compiled method registered in this world (kernel methods plus
    /// anything installed since). All of them passed verification at
    /// registration; corpus tests re-run the verifier over this set.
    pub fn installed_methods(&self) -> impl Iterator<Item = &Arc<CompiledMethod>> {
        self.methods.iter()
    }
}

impl Default for BasicWorld {
    fn default() -> Self {
        BasicWorld::new()
    }
}

impl OpalWorld for BasicWorld {
    fn intern(&mut self, name: &str) -> SymbolId {
        self.symbols.intern(name)
    }

    fn sym_name(&self, id: SymbolId) -> String {
        self.symbols.name(id).to_string()
    }

    fn class_named(&self, name: SymbolId) -> Option<ClassId> {
        self.classes.by_name(name)
    }

    fn class_name_of(&self, class: ClassId) -> SymbolId {
        self.classes.get(class).name
    }

    fn superclass_of(&self, class: ClassId) -> Option<ClassId> {
        self.classes.get(class).superclass
    }

    fn define_subclass(
        &mut self,
        superclass: ClassId,
        name: SymbolId,
        instvars: Vec<SymbolId>,
    ) -> GemResult<ClassId> {
        self.classes.subclass(name, superclass, instvars)
    }

    fn add_instvar(&mut self, class: ClassId, var: SymbolId) -> GemResult<()> {
        self.classes.add_instvar(class, var)
    }

    fn declares_instvar(&self, class: ClassId, var: SymbolId) -> bool {
        self.classes.declares_instvar(class, var)
    }

    fn lookup_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.classes.lookup_method(class, selector).map(|(_, m)| m)
    }

    fn lookup_class_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.classes.lookup_class_method(class, selector).map(|(_, m)| m)
    }

    fn install_method(
        &mut self,
        class: ClassId,
        selector: SymbolId,
        m: MethodRef,
        class_side: bool,
    ) {
        if class_side {
            self.classes.add_class_method(class, selector, m);
        } else {
            self.classes.add_method(class, selector, m);
        }
    }

    fn is_kind_of(&self, a: ClassId, b: ClassId) -> bool {
        self.classes.is_kind_of(a, b)
    }

    fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn class_of(&self, oop: Oop) -> ClassId {
        class_of(&self.workspace, &self.kernel, oop)
    }

    fn class_format(&self, class: ClassId) -> BodyFormat {
        self.classes.get(class).format
    }

    fn block_class(&self) -> ClassId {
        self.block_class
    }

    fn selector_defined_anywhere(&self, selector: SymbolId) -> bool {
        self.classes.iter().any(|(_, def)| {
            def.methods.contains_key(&selector) || def.class_methods.contains_key(&selector)
        })
    }

    fn selector_targets(&self, selector: SymbolId) -> Vec<MethodRef> {
        let mut out = Vec::new();
        for (_, def) in self.classes.iter() {
            for m in
                [def.methods.get(&selector), def.class_methods.get(&selector)].into_iter().flatten()
            {
                if !out.contains(m) {
                    out.push(*m);
                }
            }
        }
        out
    }

    fn method(&self, id: MethodId) -> Arc<CompiledMethod> {
        self.methods[id.0 as usize].clone()
    }

    fn add_method_code(&mut self, m: CompiledMethod) -> GemResult<MethodId> {
        crate::verify::check(&m)?;
        self.methods.push(Arc::new(m));
        Ok(MethodId(self.methods.len() as u32 - 1))
    }

    fn new_object(&mut self, class: ClassId) -> GemResult<Oop> {
        let obj = match self.classes.get(class).format {
            BodyFormat::Elements => HeapObject::new_elements(class, SegmentId::SYSTEM),
            BodyFormat::Bytes => HeapObject::new_bytes(class, SegmentId::SYSTEM, Vec::new()),
        };
        Ok(self.workspace.alloc(obj))
    }

    fn new_string(&mut self, s: &str) -> GemResult<Oop> {
        Ok(self.workspace.alloc(HeapObject::new_bytes(
            self.kernel.string,
            SegmentId::SYSTEM,
            s.as_bytes().to_vec(),
        )))
    }

    fn string_value(&self, oop: Oop) -> Option<String> {
        match oop.kind() {
            OopKind::Sym(s) => Some(self.symbols.name(s).to_string()),
            OopKind::Heap(_) => {
                self.workspace.get(oop).ok().and_then(|o| o.as_str().ok()).map(String::from)
            }
            _ => None,
        }
    }

    fn get_elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        Ok(self.workspace.get(obj)?.elem(name))
    }

    fn get_elem_at(&mut self, _obj: Oop, _name: ElemName, _t: TxnTime) -> GemResult<Oop> {
        Err(GemError::RuntimeError(
            "no object history without a database (BasicWorld is not temporal)".into(),
        ))
    }

    fn set_elem(&mut self, obj: Oop, name: ElemName, v: Oop) -> GemResult<()> {
        self.workspace.get_mut(obj)?.set_elem(name, v);
        Ok(())
    }

    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>> {
        Ok(self.workspace.get(obj)?.present_elements().map(|(_, v)| v).collect())
    }

    fn element_names(&mut self, obj: Oop) -> GemResult<Vec<ElemName>> {
        Ok(self.workspace.get(obj)?.present_elements().map(|(n, _)| n).collect())
    }

    fn add_aliased(&mut self, obj: Oop, v: Oop) -> GemResult<()> {
        self.workspace.get_mut(obj)?.add_aliased(v);
        Ok(())
    }

    fn push_indexed(&mut self, obj: Oop, v: Oop) -> GemResult<i64> {
        let n = self.workspace.get_mut(obj)?.push_indexed(v);
        n.as_int().ok_or_else(|| GemError::TypeMismatch {
            expected: "integer index",
            got: format!("{n:?}"),
        })
    }

    fn obj_size(&mut self, obj: Oop) -> GemResult<usize> {
        let o = self.workspace.get(obj)?;
        Ok(match o.bytes() {
            Some(b) => b.len(),
            None => o.size(),
        })
    }

    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool> {
        Ok(structurally_equal(&self.workspace, &self.symbols, a, b))
    }

    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>> {
        compare_values(self, a, b)
    }

    fn get_global(&self, name: SymbolId) -> Option<Oop> {
        self.globals.get(&name).copied()
    }

    fn set_global(&mut self, name: SymbolId, v: Oop) -> GemResult<()> {
        self.globals.insert(name, v);
        Ok(())
    }

    fn system_message(&mut self, selector: SymbolId, args: &[Oop]) -> GemResult<Oop> {
        let name = self.symbols.name(selector).to_string();
        match name.as_str() {
            "error:" => {
                let msg = args
                    .first()
                    .and_then(|a| self.string_value(*a))
                    .unwrap_or_else(|| "error".into());
                Err(GemError::RuntimeError(msg))
            }
            _ => Err(GemError::RuntimeError(format!(
                "System does not understand #{name} without a database attached"
            ))),
        }
    }

    fn run_select(
        &mut self,
        _coll: Oop,
        _template: &QueryTemplate,
        _captured: &[Oop],
    ) -> GemResult<Vec<Oop>> {
        // BasicWorld has no directories; the compiler only emits SelectQuery
        // when the world asks for it (core does). Unreachable in practice,
        // but answer by scan semantics would require the interpreter; refuse.
        Err(GemError::RuntimeError("declarative selection requires a database session".into()))
    }
}

/// Shared ordering semantics for `<`/`>`: numbers by value, strings and
/// symbols lexicographically, characters by scalar.
pub fn compare_values<W: OpalWorld + ?Sized>(
    world: &mut W,
    a: Oop,
    b: Oop,
) -> GemResult<Option<Ordering>> {
    if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
        return Ok(x.partial_cmp(&y));
    }
    if let (Some(x), Some(y)) = (a.as_char(), b.as_char()) {
        return Ok(Some(x.cmp(&y)));
    }
    match (world.string_value(a), world.string_value(b)) {
        (Some(x), Some(y)) => Ok(Some(x.cmp(&y))),
        _ => Ok(None),
    }
}

/// Primitive numbers. The interpreter dispatches on these; classes bind
/// selectors to them at bootstrap.
pub mod prims {
    pub const IDENTICAL: u32 = 1;
    pub const NOT_IDENTICAL: u32 = 2;
    pub const CLASS: u32 = 3;
    pub const IS_NIL: u32 = 4;
    pub const NOT_NIL: u32 = 5;
    pub const PRINT_STRING: u32 = 6;
    pub const EQUAL: u32 = 7;
    pub const NOT_EQUAL: u32 = 8;
    pub const ERROR: u32 = 9;
    pub const YOURSELF: u32 = 10;
    pub const IS_KIND_OF: u32 = 12;
    pub const AT: u32 = 14;
    pub const AT_PUT: u32 = 15;
    pub const SIZE: u32 = 16;
    pub const INCLUDES: u32 = 17;
    pub const ELEMENTS: u32 = 18;
    pub const NAMES: u32 = 19;

    pub const ADD_NUM: u32 = 30;
    pub const SUB: u32 = 31;
    pub const MUL: u32 = 32;
    pub const DIV: u32 = 33;
    pub const LT: u32 = 34;
    pub const LE: u32 = 35;
    pub const GT: u32 = 36;
    pub const GE: u32 = 37;
    pub const MOD: u32 = 38;
    pub const IDIV: u32 = 39;
    pub const NEGATED: u32 = 40;
    pub const ABS: u32 = 41;
    pub const MIN: u32 = 42;
    pub const MAX: u32 = 43;
    pub const AS_FLOAT: u32 = 44;
    pub const AS_INTEGER: u32 = 45;

    pub const NOT: u32 = 50;
    pub const BOOL_AND: u32 = 51;
    pub const BOOL_OR: u32 = 52;

    pub const CONCAT: u32 = 60;
    pub const AS_SYMBOL: u32 = 63;
    pub const AS_STRING: u32 = 64;

    pub const ADD_INDEXED: u32 = 70;
    pub const ADD_SET: u32 = 71;
    pub const ADD_BAG: u32 = 72;
    pub const REMOVE: u32 = 74;
    pub const REMOVE_KEY: u32 = 75;
    pub const KEYS: u32 = 76;
    pub const VALUES: u32 = 77;
    pub const FIRST: u32 = 78;
    pub const LAST: u32 = 79;

    pub const NEW: u32 = 90;
    pub const SUBCLASS: u32 = 91;
    pub const CLASS_NAME: u32 = 92;
    pub const COMPILE: u32 = 93;
    pub const COMPILE_CLASS_METHOD: u32 = 94;
    pub const ADD_INSTVAR: u32 = 96;

    pub const CHAR_VALUE: u32 = 100;
    pub const AS_CHARACTER: u32 = 101;
}

/// Install primitive bindings and the OPAL-source kernel methods on the
/// bootstrapped classes. Idempotent per world (call once at construction).
pub fn install_kernel_methods<W: OpalWorld>(world: &mut W) -> GemResult<()> {
    use prims::*;
    let k = world.kernel();

    let prim = |world: &mut W, class: ClassId, sel: &str, n: u32, class_side: bool| {
        let sym = world.intern(sel);
        world.install_method(class, sym, MethodRef::Primitive(n), class_side);
    };

    // Object protocol.
    for (sel, n) in [
        ("==", IDENTICAL),
        ("~~", NOT_IDENTICAL),
        ("class", CLASS),
        ("isNil", IS_NIL),
        ("notNil", NOT_NIL),
        ("printString", PRINT_STRING),
        ("=", EQUAL),
        ("~=", NOT_EQUAL),
        ("error:", ERROR),
        ("yourself", YOURSELF),
        ("isKindOf:", IS_KIND_OF),
        ("at:", AT),
        ("at:put:", AT_PUT),
        ("size", SIZE),
        ("includes:", INCLUDES),
        ("__elements", ELEMENTS),
        ("__names", NAMES),
    ] {
        prim(world, k.object, sel, n, false);
    }

    // Numbers.
    for (sel, n) in [
        ("+", ADD_NUM),
        ("-", SUB),
        ("*", MUL),
        ("/", DIV),
        ("<", LT),
        ("<=", LE),
        (">", GT),
        (">=", GE),
        ("\\\\", MOD),
        ("//", IDIV),
        ("negated", NEGATED),
        ("abs", ABS),
        ("min:", MIN),
        ("max:", MAX),
        ("asFloat", AS_FLOAT),
        ("asInteger", AS_INTEGER),
        ("asCharacter", AS_CHARACTER),
    ] {
        prim(world, k.number, sel, n, false);
    }
    // Magnitude comparisons also apply to characters and strings.
    for (sel, n) in [("<", LT), ("<=", LE), (">", GT), (">=", GE)] {
        prim(world, k.magnitude, sel, n, false);
        prim(world, k.string, sel, n, false);
    }

    // Booleans.
    prim(world, k.boolean, "not", NOT, false);
    prim(world, k.boolean, "&", BOOL_AND, false);
    prim(world, k.boolean, "|", BOOL_OR, false);

    // Strings & symbols.
    prim(world, k.string, ",", CONCAT, false);
    prim(world, k.string, "asSymbol", AS_SYMBOL, false);
    prim(world, k.string, "asString", AS_STRING, false);
    prim(world, k.symbol, "asString", AS_STRING, false);
    prim(world, k.object, "asString", AS_STRING, false);
    prim(world, k.character, "value", CHAR_VALUE, false);

    // Collections.
    prim(world, k.ordered_collection, "add:", ADD_INDEXED, false);
    prim(world, k.array, "add:", ADD_INDEXED, false);
    prim(world, k.set, "add:", ADD_SET, false);
    prim(world, k.bag, "add:", ADD_BAG, false);
    prim(world, k.collection, "remove:", REMOVE, false);
    prim(world, k.dictionary, "removeKey:", REMOVE_KEY, false);
    prim(world, k.dictionary, "keys", KEYS, false);
    prim(world, k.dictionary, "values", VALUES, false);
    prim(world, k.collection, "first", FIRST, false);
    prim(world, k.collection, "last", LAST, false);

    // Class-side protocol (installed on Object's class side: every class
    // inherits it).
    prim(world, k.object, "new", NEW, true);
    prim(world, k.object, "subclass:instVarNames:", SUBCLASS, true);
    prim(world, k.object, "name", CLASS_NAME, true);
    prim(world, k.object, "compile:", COMPILE, true);
    prim(world, k.object, "compileClassMethod:", COMPILE_CLASS_METHOD, true);
    prim(world, k.object, "addInstVarName:", ADD_INSTVAR, true);

    // Kernel methods written in OPAL itself (iteration protocols — they
    // exercise blocks, inlined control flow and non-local return).
    let collection_methods = [
        "do: aBlock | elems i n | elems := self __elements. i := 1. n := elems size. \
         [i <= n] whileTrue: [aBlock value: (elems at: i). i := i + 1]. ^self",
        "select: aBlock | out | out := OrderedCollection new. \
         self do: [:e | (aBlock value: e) ifTrue: [out add: e]]. ^out",
        "reject: aBlock ^self select: [:e | (aBlock value: e) not]",
        "collect: aBlock | out | out := OrderedCollection new. \
         self do: [:e | out add: (aBlock value: e)]. ^out",
        "detect: aBlock ifNone: noneBlock \
         self do: [:e | (aBlock value: e) ifTrue: [^e]]. ^noneBlock value",
        "detect: aBlock ^self detect: aBlock ifNone: [self error: 'no element satisfies detect:']",
        "inject: start into: aBlock | acc | acc := start. \
         self do: [:e | acc := aBlock value: acc value: e]. ^acc",
        "anySatisfy: aBlock self do: [:e | (aBlock value: e) ifTrue: [^true]]. ^false",
        "allSatisfy: aBlock self do: [:e | (aBlock value: e) ifFalse: [^false]]. ^true",
        "isEmpty ^self size = 0",
        "notEmpty ^self isEmpty not",
        "addAll: aColl aColl do: [:e | self add: e]. ^aColl",
        "asOrderedCollection | out | out := OrderedCollection new. \
         self do: [:e | out add: e]. ^out",
        "includesAll: aColl ^aColl allSatisfy: [:e | self includes: e]",
        "occurrencesOf: anObj | n | n := 0. \
         self do: [:e | e = anObj ifTrue: [n := n + 1]]. ^n",
        "sum ^self inject: 0 into: [:a :e | a + e]",
        "max ^self inject: self first into: [:a :e | a max: e]",
        "min ^self inject: self first into: [:a :e | a min: e]",
        "average ^self sum / self size",
        "count: aBlock | n | n := 0. \
         self do: [:e | (aBlock value: e) ifTrue: [n := n + 1]]. ^n",
        "asSet | out | out := Set new. self do: [:e | out add: e]. ^out",
        "asBag | out | out := Bag new. self do: [:e | out add: e]. ^out",
        "indexOf: x | i found | i := 0. found := 0.          self do: [:e | i := i + 1. ((found = 0) and: [e = x]) ifTrue: [found := i]]. ^found",
        "asSortedArray | arr n | arr := Array new. self do: [:e | arr add: e]. n := arr size.          1 to: n do: [:i | | minI tmp | minI := i.              (i + 1) to: n do: [:j | ((arr at: j) < (arr at: minI)) ifTrue: [minI := j]].              tmp := arr at: i. arr at: i put: (arr at: minI). arr at: minI put: tmp].          ^arr",
    ];
    for src in collection_methods {
        let m = compiler::compile_method(world, k.collection, src)?;
        let sel = m.selector;
        let id = world.add_method_code(m)?;
        world.install_method(k.collection, sel, MethodRef::Compiled(id), false);
    }

    let number_methods =
        ["between: lo and: hi ^(self >= lo) & (self <= hi)", "squared ^self * self"];
    for src in number_methods {
        let m = compiler::compile_method(world, k.number, src)?;
        let sel = m.selector;
        let id = world.add_method_code(m)?;
        world.install_method(k.number, sel, MethodRef::Compiled(id), false);
    }

    let dictionary_methods = [
        "at: key ifAbsent: aBlock | v | v := self at: key. v isNil ifTrue: [^aBlock value]. ^v",
        "includesKey: key ^(self at: key) notNil",
    ];
    for src in dictionary_methods {
        let m = compiler::compile_method(world, k.dictionary, src)?;
        let sel = m.selector;
        let id = world.add_method_code(m)?;
        world.install_method(k.dictionary, sel, MethodRef::Compiled(id), false);
    }

    let object_methods = [
        "ifNil: aBlock self isNil ifTrue: [^aBlock value]. ^self",
        "-> aValue | a | a := Association new. a at: #key put: self. a at: #value put: aValue. ^a",
    ];
    for src in object_methods {
        let m = compiler::compile_method(world, k.object, src)?;
        let sel = m.selector;
        let id = world.add_method_code(m)?;
        world.install_method(k.object, sel, MethodRef::Compiled(id), false);
    }

    let association_methods = ["key ^self at: #key", "value ^self at: #value"];
    for src in association_methods {
        let m = compiler::compile_method(world, k.association, src)?;
        let sel = m.selector;
        let id = world.add_method_code(m)?;
        world.install_method(k.association, sel, MethodRef::Compiled(id), false);
    }

    Ok(())
}
