//! Verifier corpus tests: every method the compiler produces — across the
//! whole surface of the language — must pass [`gemstone_opal::verify`]
//! (zero false rejections), and each defect class a hand-built method can
//! exhibit must be rejected with a stable, position-carrying error.

use gemstone_object::GemError;
use gemstone_opal::verify::{self, CodeLoc, VerifyErrorKind};
use gemstone_opal::{
    compile_doit, run_block, BasicWorld, Bc, CompiledBlock, CompiledMethod, Literal,
};

/// Representative programs over the full language surface: literals,
/// arithmetic, messages, blocks and closures, control flow, loops, paths,
/// class and method definition. Each is a complete doIt.
const CORPUS: &[&str] = &[
    "3 + 4 * 2",
    "| x y | x := 3. y := x * x. y + 1",
    "true ifTrue: [1] ifFalse: [2]",
    "3 < 4 ifTrue: ['yes'] ifFalse: ['no']",
    "| s | s := 0. 1 to: 10 do: [:i | s := s + i]. s",
    "| s i | s := 0. i := 0. [i < 5] whileTrue: [i := i + 1. s := s + i]. s",
    "| n | n := 0. 3 timesRepeat: [n := n + 2]. n",
    "| b | b := [:a :c | a + c]. b value: 3 value: 4",
    "| make | make := [:n | [:m | n + m]]. (make value: 10) value: 5",
    "| t | 3 < 4 ifTrue: [| u | u := 1. u] ifFalse: [0]",
    "| c | c := OrderedCollection new. c add: 1; add: 2; add: 3. c size",
    "| c | c := OrderedCollection new. c add: 9. (c includes: 9)",
    "#(1 2 3) size",
    "'abc' size",
    "$a value",
    "(1 = 2) not",
    "nil isNil",
    "-7 abs max: 3",
    "| x | x := 2. [x := x * x] value. x",
    "[:e | e * 2] value: 21",
    "| agg | agg := 0. #(1 2 3) do: [:e | agg := agg + e]. agg",
    "| p | Object subclass: 'VPoint' instVarNames: #('x' 'y').
     VPoint compile: 'getX ^x'.
     VPoint compile: 'setX: ax x := ax. ^self'.
     p := VPoint new. p setX: 4. p getX",
    "| c | Object subclass: 'VCounter' instVarNames: #('n').
     VCounter compile: 'bump n isNil ifTrue: [n := 0]. n := n + 1. ^n'.
     c := VCounter new. c bump. c bump",
    "Object subclass: 'VFind' instVarNames: #().
     VFind compile: 'findIn: coll coll do: [:e | e > 2 ifTrue: [^e]]. ^0'.
     VFind new findIn: #(1 2 5 7)",
    "Object subclass: 'VRec' instVarNames: #('depth').
     VRec compile: 'count: n n <= 0 ifTrue: [^0]. ^1 + (self count: n - 1)'.
     VRec new count: 7",
    "| p | Object subclass: 'VBox' instVarNames: #('v').
     p := VBox new. p v: 9. p ! v",
    "| sum | sum := 0.
     1 to: 3 do: [:i | 1 to: 3 do: [:j | sum := sum + (i * j)]]. sum",
    "| r | r := OrderedCollection new.
     1 to: 5 do: [:i | | sq | sq := i * i. r add: sq]. r size",
    "| acc | acc := 0.
     1 to: 400 do: [:i | acc := acc + ([:x | x * 2] value: i)]. acc",
];

/// The compiler's output is verifiable: no program in the corpus produces a
/// method or doIt the verifier rejects (zero false rejections). `run_block`
/// and the `compile:` primitive both feed `add_method_code`, which verifies,
/// so a false rejection surfaces as a `CorruptMethod` execution error here.
#[test]
fn corpus_runs_and_verifies() {
    for src in CORPUS {
        let mut w = BasicWorld::new();
        match run_block(&mut w, src) {
            Ok(_) => {}
            Err(GemError::CorruptMethod(e)) => {
                panic!("verifier falsely rejected compiler output for {src:?}: {e}")
            }
            Err(e) => panic!("corpus program failed {src:?}: {e}"),
        }
    }
}

/// Every method registered in a world that ran the corpus — kernel methods
/// included — passes an after-the-fact re-verification, and the lint pass
/// runs to completion on all of them.
#[test]
fn installed_corpus_reverifies_clean() {
    let mut w = BasicWorld::new();
    for src in CORPUS {
        let _ = run_block(&mut w, src);
    }
    let mut seen = 0;
    for m in w.installed_methods() {
        verify::check(m).unwrap_or_else(|e| {
            panic!("installed method {:?} failed re-verification: {e}", m.selector)
        });
        let _ = verify::code_lints(m);
        seen += 1;
    }
    assert!(seen > 40, "expected kernel + corpus methods, saw {seen}");
}

/// Compiling alone (without running) also yields verifiable methods.
#[test]
fn compile_only_output_verifies() {
    for src in CORPUS {
        let mut w = BasicWorld::new();
        if let Ok(m) = compile_doit(&mut w, src) {
            verify::check(&m)
                .unwrap_or_else(|e| panic!("compiler output for {src:?} rejected: {e}"));
        }
    }
}

fn method(code: Vec<Bc>) -> CompiledMethod {
    CompiledMethod {
        selector: gemstone_object::SymbolId(0),
        n_params: 0,
        n_temps: 0,
        literals: Vec::new(),
        code,
        blocks: Vec::new(),
    }
}

/// Each defect class is rejected deterministically, with the error pointing
/// at the offending instruction. Running the verifier twice must produce
/// byte-identical diagnostics (stable positions).
#[test]
fn defect_classes_reject_with_positions() {
    let cases: Vec<(&str, CompiledMethod, VerifyErrorKind, CodeLoc)> = vec![
        (
            "stack underflow",
            method(vec![Bc::Pop, Bc::PushNil, Bc::ReturnTop]),
            VerifyErrorKind::StackUnderflow,
            CodeLoc { block: None, pc: 0 },
        ),
        (
            "bad jump target",
            method(vec![Bc::Jump(7), Bc::PushNil, Bc::ReturnTop]),
            VerifyErrorKind::BadJumpTarget { target: 8, len: 3 },
            CodeLoc { block: None, pc: 0 },
        ),
        (
            "temp out of bounds",
            method(vec![Bc::PushTemp(3), Bc::ReturnTop]),
            VerifyErrorKind::TempOutOfBounds { idx: 3, frame: 0 },
            CodeLoc { block: None, pc: 0 },
        ),
        (
            "literal out of bounds",
            method(vec![Bc::PushLit(2), Bc::ReturnTop]),
            VerifyErrorKind::LiteralOutOfBounds { idx: 2, len: 0 },
            CodeLoc { block: None, pc: 0 },
        ),
        (
            "block out of bounds",
            method(vec![Bc::PushBlock(0), Bc::ReturnTop]),
            VerifyErrorKind::BlockOutOfBounds { idx: 0, len: 0 },
            CodeLoc { block: None, pc: 0 },
        ),
        (
            "missing return",
            method(vec![Bc::PushNil, Bc::Pop]),
            VerifyErrorKind::MissingReturn,
            CodeLoc { block: None, pc: 2 },
        ),
    ];
    for (label, m, kind, loc) in cases {
        let first = verify::check(&m).expect_err(label);
        let second = verify::check(&m).expect_err(label);
        assert_eq!(first, second, "{label}: diagnostics must be deterministic");
        assert_eq!(first.kind, kind, "{label}");
        assert_eq!(first.loc, loc, "{label}: position must be stable");
        assert!(!first.to_string().is_empty());
    }
}

/// The remaining acceptance defect classes, where the payload depends on
/// internal ordering: unbalanced merge, out-of-bounds outer slot, query
/// capture arity.
#[test]
fn merge_outer_and_query_defects_reject() {
    use gemstone_calculus::{Pred, Query, Range, Term, VarId};
    use gemstone_opal::QueryTemplate;
    // True branch reaches pc 3 with depth 0, fall-through with depth 1.
    let m = method(vec![Bc::PushTrue, Bc::JumpIfTrue(1), Bc::PushNil, Bc::ReturnSelf]);
    let e = verify::check(&m).expect_err("unbalanced merge");
    assert!(matches!(e.kind, VerifyErrorKind::UnbalancedMerge { .. }), "{e:?}");

    // A block reading slot 9 of the enclosing method frame (size 0).
    let mut m = method(vec![Bc::PushBlock(0), Bc::ReturnTop]);
    m.blocks = vec![CompiledBlock {
        n_params: 0,
        n_temps: 0,
        code: vec![Bc::PushOuter { up: 1, idx: 9 }],
    }];
    let e = verify::check(&m).expect_err("outer out of bounds");
    assert!(matches!(e.kind, VerifyErrorKind::OuterOutOfBounds { up: 1, idx: 9, .. }), "{e:?}");
    assert_eq!(e.loc, CodeLoc { block: Some(0), pc: 0 });

    // SelectQuery pushing fewer captures than the template declares.
    let template = QueryTemplate {
        query: Query {
            result: vec![(gemstone_object::SymbolId(0), Term::Var(VarId(0)))],
            ranges: vec![Range { var: VarId(0), domain: Term::Const(gemstone_object::Oop::NIL) }],
            pred: Pred::True,
        },
        n_captured: 2,
    };
    let mut m = method(vec![Bc::PushNil, Bc::SelectQuery { lit: 0, argc: 0 }, Bc::ReturnTop]);
    m.literals = vec![Literal::Query(template)];
    let e = verify::check(&m).expect_err("bad query arity");
    assert_eq!(e.kind, VerifyErrorKind::BadQueryArity { declared: 2, argc: 0 });
    assert_eq!(e.loc, CodeLoc { block: None, pc: 1 });
}

/// Definite assignment: reading a temp that no store reaches is rejected;
/// the compiler's nil-initialisation means its own output never trips this.
#[test]
fn use_before_store_rejected() {
    let mut m = method(vec![Bc::PushTemp(0), Bc::ReturnTop]);
    m.n_temps = 1;
    let e = verify::check(&m).expect_err("uninitialised read");
    assert_eq!(e.kind, VerifyErrorKind::UseBeforeStore { idx: 0 });
}

/// Defects inside block bodies carry the block index in their location.
#[test]
fn block_defects_carry_block_position() {
    let mut m = method(vec![Bc::PushBlock(0), Bc::ReturnTop]);
    m.blocks = vec![CompiledBlock { n_params: 0, n_temps: 0, code: vec![Bc::Pop] }];
    let e = verify::check(&m).expect_err("block underflow");
    assert_eq!(e.kind, VerifyErrorKind::StackUnderflow);
    assert_eq!(e.loc, CodeLoc { block: Some(0), pc: 0 });
}

/// A rejected method surfaces as `GemError::CorruptMethod` at install time
/// rather than a panic at run time.
#[test]
fn rejection_becomes_structured_error() {
    use gemstone_opal::OpalWorld;
    let mut w = BasicWorld::new();
    let bad = method(vec![Bc::Pop, Bc::PushNil, Bc::ReturnTop]);
    match w.add_method_code(bad) {
        Err(GemError::CorruptMethod(msg)) => {
            assert!(msg.contains("underflow"), "got {msg:?}");
            assert!(msg.contains("pc 0"), "position missing from {msg:?}");
        }
        other => panic!("expected CorruptMethod, got {other:?}"),
    }
}

/// The interpreter's bytecode path must hold no panicking escape hatches:
/// structured `CorruptMethod` errors replaced them all. (`.unwrap_or` /
/// `unwrap_or_else` defaults and `debug_assert` remain legitimate.)
#[test]
fn interpreter_has_no_panic_sites() {
    let src = include_str!("../src/interp.rs");
    for banned in [".expect(", "panic!(", "unreachable!(", "todo!(", ".unwrap()"] {
        let hits: Vec<usize> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(banned) && !l.trim_start().starts_with("//"))
            .map(|(i, _)| i + 1)
            .collect();
        assert!(hits.is_empty(), "interp.rs contains {banned} at lines {hits:?}");
    }
}
