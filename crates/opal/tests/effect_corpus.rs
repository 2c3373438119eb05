//! Effect analysis over the verification corpus, plus the lint-vs-analysis
//! audit of PR 2's syntactic select-block impurity lint.
//!
//! The corpus below mirrors `verify_corpus.rs` — every program the
//! verifier/interpreter corpus exercises must classify without falling to
//! `Unknown`, except where a block escapes into a variable and is invoked
//! dynamically (the one construct the analysis deliberately gives up on;
//! those programs are allowlisted by source text so a regression that
//! *adds* Unknowns is caught, not papered over).

use gemstone_opal::effects::{self, Effect, EffectCache};
use gemstone_opal::{compile_doit, compile_doit_with_lints, run_block, BasicWorld, LintKind};

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

/// Programs where a send cannot be resolved statically at doIt-analysis
/// time, so `Unknown` is the correct (sound) answer:
/// - a block escapes through a variable and is invoked as the *result of
///   another send* (genuinely dynamic invocation);
/// - a doIt installs a method and then calls it — at analysis time the
///   selector resolves only to an unrelated kernel method that invokes a
///   block parameter, and the argument here is a scalar.
const DYNAMIC_SEND: &[&str] = &[
    "| make | make := [:n | [:m | n + m]]. (make value: 10) value: 5",
    "Object subclass: 'VRec' instVarNames: #('depth').
     VRec compile: 'count: n n <= 0 ifTrue: [^0]. ^1 + (self count: n - 1)'.
     VRec new count: 7",
];

/// The acceptance bar: zero `Unknown` on the static-send corpus subset.
/// Classes are not pinned per program (that would freeze precision), only
/// the sound/precise boundary is.
#[test]
fn corpus_has_zero_unknown_outside_dynamic_sends() {
    for src in CORPUS {
        let mut w = BasicWorld::new();
        let m = compile_doit(&mut w, src).expect("corpus compiles");
        let mut cache = EffectCache::new();
        let s = effects::summarize_body(&w, &mut cache, &m);
        if DYNAMIC_SEND.contains(src) {
            assert_eq!(
                s.effect,
                Effect::Unknown,
                "allowlisted dynamic program now classifies as {} — \
                 if precision improved, move it out of DYNAMIC_SEND: {src}",
                s.effect
            );
        } else {
            assert_ne!(
                s.effect,
                Effect::Unknown,
                "static-send corpus program fell to Unknown: {src}"
            );
        }
    }
}

/// Spot-check the precise end of the lattice on corpus programs whose
/// classification is forced by the model (allocation = write).
#[test]
fn corpus_spot_classifications() {
    let cases: &[(&str, Effect)] = &[
        ("3 + 4 * 2", Effect::Pure),
        ("| x y | x := 3. y := x * x. y + 1", Effect::Pure),
        ("nil isNil", Effect::Pure),
        // `=` routes through the world's structural `equals`, which may
        // fault objects in — ReadOnly, never Pure.
        ("(1 = 2) not", Effect::ReadOnly),
        // `to:do:` with a literal block is compiled inline: no closure
        // allocation, so a pure loop body stays Pure.
        ("| s | s := 0. 1 to: 10 do: [:i | s := s + i]. s", Effect::Pure),
        // Array/string literals materialize fresh objects at runtime:
        // born-dirty ⇒ WritesLocal, never higher.
        ("#(1 2 3) size", Effect::WritesLocal),
        ("'abc' size", Effect::WritesLocal),
    ];
    for (src, want) in cases {
        let mut w = BasicWorld::new();
        let m = compile_doit(&mut w, src).expect("compiles");
        let mut cache = EffectCache::new();
        let s = effects::summarize_body(&w, &mut cache, &m);
        assert_eq!(&s.effect, want, "classification drifted for: {src}");
    }
}

/// Every corpus program still runs under a world whose compile path now
/// performs the effect refinement (guards against the analysis perturbing
/// compilation itself).
#[test]
fn corpus_still_executes_after_effect_refinement() {
    for src in CORPUS {
        let mut w = BasicWorld::new();
        run_block(&mut w, src).unwrap_or_else(|e| panic!("corpus program failed: {src}\n{e}"));
    }
}

/// The audit (satellite): PR 2's syntactic select-block lint and the
/// effect analysis must agree on the whole corpus — a surviving
/// `SelectBlockImpure` lint implies the analysis proved a fallback block
/// impure (and cites its effect class), and a proven-impure fallback block
/// implies a lint. The corpus itself contains no `select:`; the audit
/// extends it with select-bearing programs covering both verdicts.
#[test]
fn select_lint_agrees_with_effect_analysis_on_corpus() {
    let audit: Vec<&str> = CORPUS
        .iter()
        .copied()
        .chain([
            // Pure predicate — translatable; no lint must survive.
            "| c | c := OrderedCollection new. c add: 3.
             (c select: [:e | e > 2]) size",
            // Untranslatable but pure (message send on the parameter).
            "| c | c := OrderedCollection new. c add: 3.
             (c select: [:e | e isNil not]) size",
            // Syntactically suspicious capture, hoisted at translation:
            // the analysis proves the block itself writes nothing.
            "| c box | c := OrderedCollection new. box := OrderedCollection new.
             box add: 1. (c select: [:e | e > (box removeFirst)]) size",
            // Genuinely impure predicate: mutates during the scan.
            "| c | c := OrderedCollection new. c add: 3.
             (c select: [:e | c add: e. e > 2]) size",
            // Impure through a global.
            "| c | G := 0. c := OrderedCollection new.
             (c select: [:e | G := e. e > 1]) size",
        ])
        .collect();

    for src in audit {
        let mut w = BasicWorld::new();
        let (m, lints) = compile_doit_with_lints(&mut w, src).expect("audit programs compile");
        let mut cache = EffectCache::new();
        let impure: Vec<Effect> = effects::select_fallback_blocks(&w, &mut cache, &m)
            .into_iter()
            .filter(|(_, s)| !s.effect.is_read_only())
            .map(|(_, s)| s.effect)
            .collect();
        let linted: Vec<&LintKind> = lints
            .iter()
            .filter(|l| matches!(l.kind, LintKind::SelectBlockImpure { .. }))
            .map(|l| &l.kind)
            .collect();

        assert_eq!(
            linted.is_empty(),
            impure.is_empty(),
            "lint and analysis diverge on: {src}\nlints: {linted:?}\nimpure: {impure:?}"
        );
        // Surviving lints must cite the proven effect class, not a guess.
        for kind in linted {
            let LintKind::SelectBlockImpure { effect, .. } = kind else { unreachable!() };
            assert!(
                impure.iter().any(|e| e.as_str() == effect),
                "lint cites {effect:?} but analysis proved {impure:?}: {src}"
            );
        }
    }
}
