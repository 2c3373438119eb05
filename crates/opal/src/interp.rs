//! The OPAL Interpreter: "an abstract stack machine that executes
//! compiledMethods consisting of sequences of bytecodes, much the same as
//! the ST80 interpreter. It dispatches bytecodes, performs stack
//! manipulations and some primitive methods, and makes calls to the Object
//! Manager" (§6) — here, through the [`OpalWorld`] trait.

use crate::bytecode::{Bc, CompiledMethod, Literal};
use crate::compiler;
use crate::effects;
use crate::world::{compare_values, prims, print_oop, OpalWorld, PrintDepth};
use gemstone_object::{ElemName, GemError, GemResult, MethodId, MethodRef, Oop, OopKind, SymbolId};
use gemstone_temporal::TxnTime;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;

const DEFAULT_STEP_LIMIT: u64 = 200_000_000;
const MAX_FRAMES: usize = 4_000;

/// A bytecode-level inconsistency. Methods that pass [`crate::verify`] can
/// never raise one of these; they replace the panics the interpreter had
/// before verification existed, so the session survives even hand-built or
/// hostile bytecode.
fn corrupt(msg: &str) -> GemError {
    GemError::CorruptMethod(msg.into())
}

fn underflow() -> GemError {
    corrupt("operand stack underflow")
}

fn read_slot(env: &Rc<EnvNode>, i: u8) -> GemResult<Oop> {
    env.slots.borrow().get(i as usize).copied().ok_or_else(|| corrupt("temp slot out of range"))
}

fn write_slot(env: &Rc<EnvNode>, i: u8, v: Oop) -> GemResult<()> {
    *env.slots
        .borrow_mut()
        .get_mut(i as usize)
        .ok_or_else(|| corrupt("temp slot out of range"))? = v;
    Ok(())
}

fn jump_target(ip: usize, off: i32) -> GemResult<usize> {
    let t = ip as i64 + off as i64;
    if t < 0 {
        return Err(corrupt("jump before code start"));
    }
    Ok(t as usize)
}

/// One lexical environment: an activation's temp slots plus a link to the
/// activation it was created in (for nested closures over block variables).
struct EnvNode {
    slots: RefCell<Vec<Oop>>,
    parent: Option<Rc<EnvNode>>,
}

impl EnvNode {
    fn up(self: &Rc<EnvNode>, n: u8) -> GemResult<Rc<EnvNode>> {
        let mut cur = self.clone();
        for _ in 0..n {
            let Some(parent) = cur.parent.clone() else {
                return Err(corrupt("outer scope chain exhausted"));
            };
            cur = parent;
        }
        Ok(cur)
    }
}

struct Frame {
    method: Arc<CompiledMethod>,
    /// `Some(i)`: executing block `i` of `method`.
    block: Option<u16>,
    ip: usize,
    env: Rc<EnvNode>,
    home_temps: Rc<EnvNode>,
    receiver: Oop,
    stack: Vec<Oop>,
    token: u64,
    home_token: u64,
}

impl Frame {
    fn code(&self) -> &[Bc] {
        match self.block {
            None => &self.method.code,
            // A bad block index cannot occur in a verified method; degrade
            // to empty code (immediate fall-off) rather than panic.
            Some(i) => self.method.blocks.get(i as usize).map(|b| b.code.as_slice()).unwrap_or(&[]),
        }
    }
}

#[derive(Clone)]
struct ClosureData {
    method: Arc<CompiledMethod>,
    block: u16,
    /// The environment the block literal was evaluated in.
    captured_env: Rc<EnvNode>,
    home_temps: Rc<EnvNode>,
    receiver: Oop,
    home_token: u64,
}

/// The stack machine. Create one per execution; block closures are
/// transient to an execution.
pub struct Interpreter<'w, W: OpalWorld> {
    world: &'w mut W,
    frames: Vec<Frame>,
    closures: Vec<ClosureData>,
    next_token: u64,
    steps: u64,
    sends: u64,
    step_limit: u64,
    closure_elem: ElemName,
}

impl<'w, W: OpalWorld> Interpreter<'w, W> {
    /// A fresh machine over `world`.
    pub fn new(world: &'w mut W) -> Interpreter<'w, W> {
        let closure_elem = ElemName::Sym(world.intern("__closure"));
        Interpreter {
            world,
            frames: Vec::new(),
            closures: Vec::new(),
            next_token: 0,
            steps: 0,
            sends: 0,
            step_limit: DEFAULT_STEP_LIMIT,
            closure_elem,
        }
    }

    /// Override the runaway guard.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Execute a compiled doIt, returning its value.
    pub fn run_doit(mut self, id: MethodId) -> GemResult<Oop> {
        let method = self.world.method(id);
        self.push_method_frame(method, Oop::NIL, &[])?;
        self.run()
    }

    /// Send a message programmatically (used by the Executor API): builds a
    /// synthetic carrier activation `recv selector: args…` and runs it.
    pub fn send_message(mut self, recv: Oop, selector: SymbolId, args: &[Oop]) -> GemResult<Oop> {
        let n = args.len();
        let mut code = Vec::with_capacity(n + 3);
        for i in 0..=n {
            code.push(Bc::PushTemp(i as u8));
        }
        code.push(Bc::Send { sel: 0, argc: n as u8 });
        code.push(Bc::ReturnTop);
        let method = CompiledMethod {
            selector,
            n_params: (n + 1) as u8,
            n_temps: 0,
            literals: vec![Literal::Sym(selector)],
            code,
            blocks: Vec::new(),
        };
        debug_assert!(
            crate::verify::check(&method).is_ok(),
            "synthetic send carrier must pass verification"
        );
        let mut all_args = Vec::with_capacity(n + 1);
        all_args.push(recv);
        all_args.extend_from_slice(args);
        self.push_method_frame(Arc::new(method), Oop::NIL, &all_args)?;
        self.run()
    }

    fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn push_method_frame(
        &mut self,
        method: Arc<CompiledMethod>,
        receiver: Oop,
        args: &[Oop],
    ) -> GemResult<()> {
        if self.frames.len() >= MAX_FRAMES {
            return Err(GemError::ResourceExhausted("call stack depth"));
        }
        if args.len() != method.n_params as usize {
            return Err(GemError::RuntimeError(format!(
                "wrong number of arguments: expected {}, got {}",
                method.n_params,
                args.len()
            )));
        }
        let mut temps = vec![Oop::NIL; method.frame_size()];
        temps[..args.len()].copy_from_slice(args);
        let env = Rc::new(EnvNode { slots: RefCell::new(temps), parent: None });
        let token = self.fresh_token();
        self.frames.push(Frame {
            method,
            block: None,
            ip: 0,
            home_temps: env.clone(),
            env,
            receiver,
            stack: Vec::with_capacity(8),
            token,
            home_token: token,
        });
        Ok(())
    }

    fn push_block_frame(&mut self, closure: &ClosureData, args: &[Oop]) -> GemResult<()> {
        if self.frames.len() >= MAX_FRAMES {
            return Err(GemError::ResourceExhausted("call stack depth"));
        }
        let Some(block) = closure.method.blocks.get(closure.block as usize) else {
            return Err(corrupt("block index out of range"));
        };
        if args.len() != block.n_params as usize {
            return Err(GemError::RuntimeError(format!(
                "block expects {} arguments, got {}",
                block.n_params,
                args.len()
            )));
        }
        let mut temps = vec![Oop::NIL; block.n_params as usize + block.n_temps as usize];
        temps[..args.len()].copy_from_slice(args);
        let env = Rc::new(EnvNode {
            slots: RefCell::new(temps),
            parent: Some(closure.captured_env.clone()),
        });
        let token = self.fresh_token();
        self.frames.push(Frame {
            method: closure.method.clone(),
            block: Some(closure.block),
            ip: 0,
            env,
            home_temps: closure.home_temps.clone(),
            receiver: closure.receiver,
            stack: Vec::with_capacity(8),
            token,
            home_token: closure.home_token,
        });
        Ok(())
    }

    // ------------------------------------------------------- main loop

    /// Drive the bytecode loop to completion, then flush the dispatch and
    /// send counts to the world exactly once (success or failure) — so
    /// telemetry costs nothing per bytecode, only per run.
    fn run(mut self) -> GemResult<Oop> {
        let result = self.run_loop();
        self.world.note_interp_stats(self.steps, self.sends);
        result
    }

    fn run_loop(&mut self) -> GemResult<Oop> {
        loop {
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(GemError::ResourceExhausted("interpreter step budget"));
            }
            let Some(frame) = self.frames.last_mut() else {
                return Err(corrupt("running without a frame"));
            };
            if frame.ip >= frame.code().len() {
                // Falling off the end: blocks answer their last value;
                // methods always end in an explicit return.
                debug_assert!(frame.block.is_some(), "method fell off its code");
                let value = frame.stack.pop().unwrap_or(Oop::NIL);
                if let Some(v) = self.do_return(value)? {
                    return Ok(v);
                }
                continue;
            }
            let bc = frame.code()[frame.ip];
            frame.ip += 1;
            match bc {
                Bc::PushLit(i) => {
                    let lit = frame
                        .method
                        .literals
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| corrupt("literal index out of range"))?;
                    let v = self.literal_to_oop(&lit)?;
                    self.top()?.stack.push(v);
                }
                Bc::PushNil => frame.stack.push(Oop::NIL),
                Bc::PushTrue => frame.stack.push(Oop::TRUE),
                Bc::PushFalse => frame.stack.push(Oop::FALSE),
                Bc::PushSelf => {
                    let r = frame.receiver;
                    frame.stack.push(r);
                }
                Bc::PushSystem => frame.stack.push(Oop::SYSTEM),
                Bc::PushTemp(i) => {
                    let v = read_slot(&frame.env, i)?;
                    frame.stack.push(v);
                }
                Bc::StoreTemp(i) => {
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    write_slot(&frame.env, i, v)?;
                }
                Bc::PushHome(i) => {
                    let v = read_slot(&frame.home_temps, i)?;
                    frame.stack.push(v);
                }
                Bc::StoreHome(i) => {
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    write_slot(&frame.home_temps, i, v)?;
                }
                Bc::PushOuter { up, idx } => {
                    let env = frame.env.up(up)?;
                    let v = read_slot(&env, idx)?;
                    frame.stack.push(v);
                }
                Bc::StoreOuter { up, idx } => {
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    let env = frame.env.up(up)?;
                    write_slot(&env, idx, v)?;
                }
                Bc::PushInstVar(i) => {
                    let Some(Literal::Sym(sym)) = frame.method.literals.get(i as usize) else {
                        return Err(corrupt("instvar literal is not a symbol"));
                    };
                    let sym = *sym;
                    let recv = frame.receiver;
                    let v = self.world.get_elem(recv, ElemName::Sym(sym))?;
                    self.top()?.stack.push(v);
                }
                Bc::StoreInstVar(i) => {
                    let Some(Literal::Sym(sym)) = frame.method.literals.get(i as usize) else {
                        return Err(corrupt("instvar literal is not a symbol"));
                    };
                    let sym = *sym;
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    let recv = frame.receiver;
                    self.world.set_elem(recv, ElemName::Sym(sym), v)?;
                }
                Bc::PushGlobal(i) => {
                    let Some(Literal::Sym(sym)) = frame.method.literals.get(i as usize) else {
                        return Err(corrupt("global literal is not a symbol"));
                    };
                    let sym = *sym;
                    let v = match self.world.get_global(sym) {
                        Some(v) => v,
                        None => match self.world.class_named(sym) {
                            Some(c) => Oop::class(c),
                            None => {
                                return Err(GemError::RuntimeError(format!(
                                    "undefined variable {}",
                                    self.world.sym_name(sym)
                                )))
                            }
                        },
                    };
                    self.top()?.stack.push(v);
                }
                Bc::StoreGlobal(i) => {
                    let Some(Literal::Sym(sym)) = frame.method.literals.get(i as usize) else {
                        return Err(corrupt("global literal is not a symbol"));
                    };
                    let sym = *sym;
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    self.world.set_global(sym, v)?;
                }
                Bc::Pop => {
                    frame.stack.pop();
                }
                Bc::Dup => {
                    let v = *frame.stack.last().ok_or_else(underflow)?;
                    frame.stack.push(v);
                }
                Bc::Jump(off) => {
                    frame.ip = jump_target(frame.ip, off)?;
                }
                Bc::JumpIfFalse(off) => {
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    match v.as_bool() {
                        Some(false) => frame.ip = jump_target(frame.ip, off)?,
                        Some(true) => {}
                        None => {
                            return Err(GemError::TypeMismatch {
                                expected: "Boolean",
                                got: format!("{v:?}"),
                            })
                        }
                    }
                }
                Bc::JumpIfTrue(off) => {
                    let v = frame.stack.pop().ok_or_else(underflow)?;
                    match v.as_bool() {
                        Some(true) => frame.ip = jump_target(frame.ip, off)?,
                        Some(false) => {}
                        None => {
                            return Err(GemError::TypeMismatch {
                                expected: "Boolean",
                                got: format!("{v:?}"),
                            })
                        }
                    }
                }
                Bc::PushBlock(idx) => {
                    let data = ClosureData {
                        method: frame.method.clone(),
                        block: idx,
                        captured_env: frame.env.clone(),
                        home_temps: frame.home_temps.clone(),
                        receiver: frame.receiver,
                        home_token: frame.home_token,
                    };
                    self.closures.push(data);
                    let cidx = self.closures.len() - 1;
                    let class = self.world.block_class();
                    let obj = self.world.new_object(class)?;
                    self.world.set_elem(obj, self.closure_elem, Oop::int(cidx as i64))?;
                    self.top()?.stack.push(obj);
                }
                Bc::PathStep { has_time } => {
                    let time = if has_time {
                        let t = frame.stack.pop().ok_or_else(underflow)?;
                        Some(t)
                    } else {
                        None
                    };
                    let name = frame.stack.pop().ok_or_else(underflow)?;
                    let recv = frame.stack.pop().ok_or_else(underflow)?;
                    if recv.is_nil() {
                        return Err(GemError::PathThroughNil(self.describe_name(name)));
                    }
                    let elem = self.oop_to_elem_name(name)?;
                    let v = match time {
                        None => self.world.get_elem(recv, elem)?,
                        Some(t) => {
                            let ticks = t.as_int().ok_or_else(|| GemError::TypeMismatch {
                                expected: "integer transaction time after @",
                                got: format!("{t:?}"),
                            })?;
                            if ticks < 0 {
                                return Err(GemError::TypeMismatch {
                                    expected: "non-negative time",
                                    got: ticks.to_string(),
                                });
                            }
                            self.world.get_elem_at(recv, elem, TxnTime::from_ticks(ticks as u64))?
                        }
                    };
                    self.top()?.stack.push(v);
                }
                Bc::PathStore => {
                    let value = frame.stack.pop().ok_or_else(underflow)?;
                    let name = frame.stack.pop().ok_or_else(underflow)?;
                    let recv = frame.stack.pop().ok_or_else(underflow)?;
                    if recv.is_nil() {
                        return Err(GemError::PathThroughNil(self.describe_name(name)));
                    }
                    let elem = self.oop_to_elem_name(name)?;
                    self.world.set_elem(recv, elem, value)?;
                    self.top()?.stack.push(value);
                }
                Bc::ReturnTop => {
                    let value = frame.stack.pop().unwrap_or(Oop::NIL);
                    if frame.block.is_some() {
                        // Non-local return from the home method.
                        let home = frame.home_token;
                        if let Some(v) = self.do_nonlocal_return(home, value)? {
                            return Ok(v);
                        }
                    } else if let Some(v) = self.do_return(value)? {
                        return Ok(v);
                    }
                }
                Bc::ReturnSelf => {
                    let value = frame.receiver;
                    if let Some(v) = self.do_return(value)? {
                        return Ok(v);
                    }
                }
                Bc::Send { sel, argc } => {
                    let Some(Literal::Sym(selector)) = frame.method.literals.get(sel as usize)
                    else {
                        return Err(corrupt("selector literal is not a symbol"));
                    };
                    let selector = *selector;
                    let n = argc as usize;
                    let len = frame.stack.len();
                    if len < n + 1 {
                        return Err(underflow());
                    }
                    let args: Vec<Oop> = frame.stack.split_off(len - n);
                    let recv = frame.stack.pop().ok_or_else(underflow)?;
                    self.dispatch_send(recv, selector, &args)?;
                }
                Bc::SelectQuery { lit, argc } => {
                    let Some(Literal::Query(template)) =
                        frame.method.literals.get(lit as usize).cloned()
                    else {
                        return Err(corrupt("query literal index is not a query"));
                    };
                    let n = argc as usize;
                    let len = frame.stack.len();
                    if len < n + 1 {
                        return Err(underflow());
                    }
                    let captured: Vec<Oop> = frame.stack.split_off(len - n);
                    let coll = frame.stack.pop().ok_or_else(underflow)?;
                    let members = self.world.run_select(coll, &template, &captured)?;
                    let k = self.world.kernel();
                    let out = self.world.new_object(k.ordered_collection)?;
                    for m in members {
                        self.world.push_indexed(out, m)?;
                    }
                    self.top()?.stack.push(out);
                }
            }
        }
    }

    fn top(&mut self) -> GemResult<&mut Frame> {
        self.frames.last_mut().ok_or_else(|| corrupt("no active frame"))
    }

    /// Pop the current frame, pushing `value` on the caller. `Some(v)` means
    /// execution finished with v.
    fn do_return(&mut self, value: Oop) -> GemResult<Option<Oop>> {
        self.frames.pop();
        match self.frames.last_mut() {
            Some(caller) => {
                caller.stack.push(value);
                Ok(None)
            }
            None => Ok(Some(value)),
        }
    }

    /// Unwind to the frame whose token is `home`, return from it.
    fn do_nonlocal_return(&mut self, home: u64, value: Oop) -> GemResult<Option<Oop>> {
        let Some(pos) = self.frames.iter().rposition(|f| f.token == home) else {
            return Err(GemError::RuntimeError(
                "non-local return from a block whose method already returned".into(),
            ));
        };
        self.frames.truncate(pos); // drop home and everything above it
        match self.frames.last_mut() {
            Some(caller) => {
                caller.stack.push(value);
                Ok(None)
            }
            None => Ok(Some(value)),
        }
    }

    fn literal_to_oop(&mut self, lit: &Literal) -> GemResult<Oop> {
        Ok(match lit {
            Literal::Int(i) => Oop::int(*i),
            Literal::Float(x) => Oop::float(*x),
            Literal::Sym(s) => Oop::sym(*s),
            Literal::Char(c) => Oop::char(*c),
            Literal::Str(s) => self.world.new_string(s)?,
            Literal::Array(items) => {
                let k = self.world.kernel();
                let arr = self.world.new_object(k.array)?;
                for item in items {
                    let v = self.literal_to_oop(item)?;
                    self.world.push_indexed(arr, v)?;
                }
                arr
            }
            Literal::Query(_) => return Err(corrupt("query literal pushed as value")),
        })
    }

    fn oop_to_elem_name(&mut self, name: Oop) -> GemResult<ElemName> {
        match name.kind() {
            OopKind::Sym(s) => Ok(ElemName::Sym(s)),
            OopKind::Int(i) => Ok(ElemName::Int(i)),
            OopKind::Heap(_) => match self.world.string_value(name) {
                Some(s) => Ok(ElemName::Sym(self.world.intern(&s))),
                None => Err(GemError::TypeMismatch {
                    expected: "element name (symbol, string or integer)",
                    got: format!("{name:?}"),
                }),
            },
            _ => Err(GemError::TypeMismatch {
                expected: "element name (symbol, string or integer)",
                got: format!("{name:?}"),
            }),
        }
    }

    fn describe_name(&mut self, name: Oop) -> String {
        print_oop(self.world, name, PrintDepth(1)).unwrap_or_else(|_| format!("{name:?}"))
    }

    // ---------------------------------------------------------- sends

    fn dispatch_send(&mut self, recv: Oop, selector: SymbolId, args: &[Oop]) -> GemResult<()> {
        self.sends += 1;
        // Block invocation.
        if recv.is_heap() {
            let class = self.world.class_of(recv);
            if class == self.world.block_class() {
                let name = self.world.sym_name(selector);
                let expected = match name.as_str() {
                    "value" => Some(0),
                    "value:" => Some(1),
                    "value:value:" => Some(2),
                    "value:value:value:" => Some(3),
                    _ => None,
                };
                if let Some(n) = expected {
                    if args.len() != n {
                        return Err(GemError::RuntimeError("bad block arity".into()));
                    }
                    let idx = self.world.get_elem(recv, self.closure_elem)?;
                    let idx = idx
                        .as_int()
                        .ok_or_else(|| GemError::RuntimeError("stale block closure".into()))?
                        as usize;
                    let closure = self
                        .closures
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| GemError::RuntimeError("stale block closure".into()))?;
                    return self.push_block_frame(&closure, args);
                }
            }
        }
        // Class receivers: class-side protocol, falling back to Metaclass
        // instance protocol (printString, == …).
        if let OopKind::Class(c) = recv.kind() {
            if let Some(m) = self.world.lookup_class_method(c, selector) {
                return self.invoke(recv, m, selector, args);
            }
            let meta = self.world.kernel().metaclass;
            if let Some(m) = self.world.lookup_method(meta, selector) {
                return self.invoke(recv, m, selector, args);
            }
            return self.does_not_understand(recv, selector, args);
        }
        // System pseudo-object.
        if recv.kind() == OopKind::System {
            let v = self.world.system_message(selector, args)?;
            self.top()?.stack.push(v);
            return Ok(());
        }
        let class = self.world.class_of(recv);
        match self.world.lookup_method(class, selector) {
            Some(m) => self.invoke(recv, m, selector, args),
            None => self.does_not_understand(recv, selector, args),
        }
    }

    fn invoke(
        &mut self,
        recv: Oop,
        m: MethodRef,
        selector: SymbolId,
        args: &[Oop],
    ) -> GemResult<()> {
        match m {
            MethodRef::Primitive(p) => {
                let v = self.primitive(p, recv, args, selector)?;
                self.top()?.stack.push(v);
                Ok(())
            }
            MethodRef::Compiled(id) => {
                let method = self.world.method(id);
                self.push_method_frame(method, recv, args)
            }
        }
    }

    /// Element access as message fallback: a unary selector reads a declared
    /// or present element; `name:` writes a declared instance variable. This
    /// is the path-flavoured access of §4.3 ("sometimes it is the most
    /// natural way"), without requiring accessor boilerplate.
    fn does_not_understand(
        &mut self,
        recv: Oop,
        selector: SymbolId,
        args: &[Oop],
    ) -> GemResult<()> {
        let name = self.world.sym_name(selector);
        if recv.is_heap() {
            let class = self.world.class_of(recv);
            if args.is_empty() {
                let sym = selector;
                let declared = self.world.declares_instvar(class, sym);
                let present = !self.world.get_elem(recv, ElemName::Sym(sym))?.is_nil();
                if declared || present {
                    let v = self.world.get_elem(recv, ElemName::Sym(sym))?;
                    self.top()?.stack.push(v);
                    return Ok(());
                }
            } else if args.len() == 1
                && name.ends_with(':')
                && !name[..name.len() - 1].contains(':')
            {
                let base = self.world.intern(&name[..name.len() - 1]);
                if self.world.declares_instvar(class, base) {
                    self.world.set_elem(
                        recv,
                        ElemName::Sym(base),
                        args.first().copied().unwrap_or(Oop::NIL),
                    )?;
                    self.top()?.stack.push(recv);
                    return Ok(());
                }
            }
        }
        let class = self.world.class_of(recv);
        Err(GemError::DoesNotUnderstand {
            class: self.world.sym_name(self.world.class_name_of(class)),
            selector: name,
        })
    }

    // ------------------------------------------------------ primitives

    fn primitive(&mut self, p: u32, recv: Oop, args: &[Oop], selector: SymbolId) -> GemResult<Oop> {
        use prims::*;
        // A primitive reached with fewer arguments than its selector implies
        // (possible only from unverified hand-built bytecode) sees nil and
        // fails with its ordinary type error instead of an index panic.
        let arg0 = args.first().copied().unwrap_or(Oop::NIL);
        let arg1 = args.get(1).copied().unwrap_or(Oop::NIL);
        Ok(match p {
            IDENTICAL => Oop::bool(recv == arg0),
            NOT_IDENTICAL => Oop::bool(recv != arg0),
            CLASS => Oop::class(self.world.class_of(recv)),
            IS_NIL => Oop::bool(recv.is_nil()),
            NOT_NIL => Oop::bool(!recv.is_nil()),
            PRINT_STRING => {
                let s = print_oop(self.world, recv, PrintDepth::default())?;
                self.world.new_string(&s)?
            }
            EQUAL => Oop::bool(self.world.equals(recv, arg0)?),
            NOT_EQUAL => Oop::bool(!self.world.equals(recv, arg0)?),
            ERROR => {
                let msg = self.world.string_value(arg0).unwrap_or_else(|| format!("{:?}", arg0));
                return Err(GemError::RuntimeError(msg));
            }
            YOURSELF => recv,
            IS_KIND_OF => {
                let target = arg0.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{:?}", arg0),
                })?;
                Oop::bool(self.world.is_kind_of(self.world.class_of(recv), target))
            }
            AT => self.prim_at(recv, arg0)?,
            AT_PUT => {
                let name = self.oop_to_elem_name(arg0)?;
                self.world.set_elem(recv, name, arg1)?;
                arg1
            }
            SIZE => Oop::int(self.world.obj_size(recv)? as i64),
            INCLUDES => {
                let mut found = false;
                for m in self.world.elements(recv)? {
                    if self.world.equals(m, arg0)? {
                        found = true;
                        break;
                    }
                }
                Oop::bool(found)
            }
            ELEMENTS | VALUES => {
                let vals = self.world.elements(recv)?;
                let k = self.world.kernel();
                let arr = self.world.new_object(k.array)?;
                for v in vals {
                    self.world.push_indexed(arr, v)?;
                }
                arr
            }
            NAMES | KEYS => {
                let names = self.world.element_names(recv)?;
                let k = self.world.kernel();
                let arr = self.world.new_object(k.array)?;
                for n in names {
                    let v = match n {
                        ElemName::Sym(s) => Oop::sym(s),
                        ElemName::Int(i) => Oop::int(i),
                        ElemName::Alias(_) => continue,
                    };
                    self.world.push_indexed(arr, v)?;
                }
                arr
            }
            ADD_NUM | SUB | MUL | DIV | MOD | IDIV => self.prim_arith(p, recv, arg0)?,
            LT | LE | GT | GE => {
                let ord = compare_values(self.world, recv, arg0)?.ok_or_else(|| {
                    GemError::TypeMismatch {
                        expected: "comparable values",
                        got: format!("{recv:?} vs {:?}", arg0),
                    }
                })?;
                Oop::bool(match p {
                    LT => ord == Ordering::Less,
                    LE => ord != Ordering::Greater,
                    GT => ord == Ordering::Greater,
                    _ => ord != Ordering::Less,
                })
            }
            NEGATED => match recv.kind() {
                OopKind::Int(i) => Oop::int(-i),
                OopKind::Float(f) => Oop::float(-f),
                _ => return Err(self.num_mismatch(recv)),
            },
            ABS => match recv.kind() {
                OopKind::Int(i) => Oop::int(i.abs()),
                OopKind::Float(f) => Oop::float(f.abs()),
                _ => return Err(self.num_mismatch(recv)),
            },
            MIN | MAX => {
                let ord = compare_values(self.world, recv, arg0)?
                    .ok_or_else(|| self.num_mismatch(recv))?;
                if (p == MIN) == (ord == Ordering::Less) {
                    recv
                } else {
                    arg0
                }
            }
            AS_FLOAT => Oop::float(recv.as_number().ok_or_else(|| self.num_mismatch(recv))?),
            AS_INTEGER => {
                let x = recv.as_number().ok_or_else(|| self.num_mismatch(recv))?;
                Oop::try_int(x.trunc() as i64).ok_or(GemError::IntOverflow)?
            }
            NOT => Oop::bool(!recv.as_bool().ok_or_else(|| GemError::TypeMismatch {
                expected: "Boolean",
                got: format!("{recv:?}"),
            })?),
            BOOL_AND | BOOL_OR => {
                let a = recv.as_bool().ok_or_else(|| GemError::TypeMismatch {
                    expected: "Boolean",
                    got: format!("{recv:?}"),
                })?;
                let b = arg0.as_bool().ok_or_else(|| GemError::TypeMismatch {
                    expected: "Boolean",
                    got: format!("{:?}", arg0),
                })?;
                Oop::bool(if p == BOOL_AND { a && b } else { a || b })
            }
            CONCAT => {
                let a = self.world.string_value(recv).ok_or_else(|| GemError::TypeMismatch {
                    expected: "string",
                    got: format!("{recv:?}"),
                })?;
                let b = self
                    .world
                    .string_value(arg0)
                    .map(Ok)
                    .unwrap_or_else(|| print_oop(self.world, arg0, PrintDepth::default()))?;
                self.world.new_string(&format!("{a}{b}"))?
            }
            AS_SYMBOL => {
                let s = self.world.string_value(recv).ok_or_else(|| GemError::TypeMismatch {
                    expected: "string",
                    got: format!("{recv:?}"),
                })?;
                Oop::sym(self.world.intern(&s))
            }
            AS_STRING => match self.world.string_value(recv) {
                Some(s) => {
                    if recv.as_sym().is_some() {
                        self.world.new_string(&s)?
                    } else {
                        recv
                    }
                }
                None => {
                    let s = print_oop(self.world, recv, PrintDepth::default())?;
                    self.world.new_string(&s)?
                }
            },
            ADD_INDEXED => {
                self.world.push_indexed(recv, arg0)?;
                arg0
            }
            ADD_SET => {
                let mut present = false;
                for m in self.world.elements(recv)? {
                    if self.world.equals(m, arg0)? {
                        present = true;
                        break;
                    }
                }
                if !present {
                    self.world.add_aliased(recv, arg0)?;
                }
                arg0
            }
            ADD_BAG => {
                self.world.add_aliased(recv, arg0)?;
                arg0
            }
            REMOVE => {
                let names = self.world.element_names(recv)?;
                let mut removed = false;
                for n in names {
                    let v = self.world.get_elem(recv, n)?;
                    if self.world.equals(v, arg0)? {
                        self.world.set_elem(recv, n, Oop::NIL)?;
                        removed = true;
                        break;
                    }
                }
                if !removed {
                    return Err(GemError::NoSuchElement(self.describe_name(arg0)));
                }
                arg0
            }
            REMOVE_KEY => {
                let name = self.oop_to_elem_name(arg0)?;
                let old = self.world.get_elem(recv, name)?;
                if old.is_nil() {
                    return Err(GemError::NoSuchElement(self.describe_name(arg0)));
                }
                self.world.set_elem(recv, name, Oop::NIL)?;
                old
            }
            FIRST | LAST => {
                let vals = self.world.elements(recv)?;
                let v = if p == FIRST { vals.first() } else { vals.last() };
                *v.ok_or(GemError::IndexOutOfRange { index: 1, size: 0 })?
            }
            NEW => {
                let class = recv.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{recv:?}"),
                })?;
                self.world.new_object(class)?
            }
            SUBCLASS => {
                let class = recv.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{recv:?}"),
                })?;
                let name = self.name_arg(arg0)?;
                let mut instvars = Vec::new();
                for v in self.world.elements(arg1)? {
                    instvars.push(self.name_arg(v)?);
                }
                let sub = self.world.define_subclass(class, name, instvars)?;
                Oop::class(sub)
            }
            CLASS_NAME => {
                let class = recv.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{recv:?}"),
                })?;
                let n = self.world.sym_name(self.world.class_name_of(class));
                self.world.new_string(&n)?
            }
            COMPILE | COMPILE_CLASS_METHOD => {
                let class = recv.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{recv:?}"),
                })?;
                let src = self.world.string_value(arg0).ok_or_else(|| GemError::TypeMismatch {
                    expected: "method source string",
                    got: "?".into(),
                })?;
                let m = compiler::compile_method(self.world, class, &src)?;
                // Install-time purity gate: once installed, any caller's
                // `select:` may be planned declaratively, which is only
                // sound when the fallback predicate block cannot write.
                // Blocks that merely invoke a parameter block are judged
                // at their own call sites via `invoking_params`.
                let mut ecache = effects::EffectCache::new();
                for (_, s) in effects::select_fallback_blocks(&*self.world, &mut ecache, &m) {
                    if !s.effect.is_read_only() {
                        return Err(GemError::ImpureSelectBlock {
                            selector: self.world.sym_name(m.selector),
                            effect: s.effect.as_str().into(),
                        });
                    }
                }
                let sel = m.selector;
                let id = self.world.add_method_code(m)?;
                self.world.install_method(
                    class,
                    sel,
                    MethodRef::Compiled(id),
                    p == COMPILE_CLASS_METHOD,
                );
                self.world.note_method_source(class, &src, p == COMPILE_CLASS_METHOD);
                Oop::sym(sel)
            }
            ADD_INSTVAR => {
                let class = recv.as_class().ok_or_else(|| GemError::TypeMismatch {
                    expected: "class",
                    got: format!("{recv:?}"),
                })?;
                let name = self.name_arg(arg0)?;
                self.world.add_instvar(class, name)?;
                recv
            }
            CHAR_VALUE => Oop::int(recv.as_char().map(|c| c as i64).ok_or_else(|| {
                GemError::TypeMismatch { expected: "character", got: format!("{recv:?}") }
            })?),
            AS_CHARACTER => {
                let i = recv.as_int().ok_or_else(|| self.num_mismatch(recv))?;
                let c = u32::try_from(i).ok().and_then(char::from_u32).ok_or_else(|| {
                    GemError::TypeMismatch { expected: "code point", got: i.to_string() }
                })?;
                Oop::char(c)
            }
            other => {
                return Err(GemError::RuntimeError(format!(
                    "unknown primitive {other} for #{}",
                    self.world.sym_name(selector)
                )))
            }
        })
    }

    fn prim_at(&mut self, recv: Oop, key: Oop) -> GemResult<Oop> {
        // Strings answer characters at integer indexes (1-based).
        if let Some(s) = self.world.string_value(recv) {
            if let Some(i) = key.as_int() {
                let chars: Vec<char> = s.chars().collect();
                if i < 1 || i as usize > chars.len() {
                    return Err(GemError::IndexOutOfRange { index: i, size: chars.len() });
                }
                return Ok(Oop::char(chars[i as usize - 1]));
            }
        }
        let name = self.oop_to_elem_name(key)?;
        self.world.get_elem(recv, name)
    }

    fn prim_arith(&mut self, p: u32, a: Oop, b: Oop) -> GemResult<Oop> {
        use prims::*;
        match (a.kind(), b.kind()) {
            (OopKind::Int(x), OopKind::Int(y)) => {
                let r = match p {
                    ADD_NUM => x.checked_add(y),
                    SUB => x.checked_sub(y),
                    MUL => x.checked_mul(y),
                    DIV => {
                        if y == 0 {
                            return Err(GemError::ZeroDivide);
                        }
                        if x % y == 0 {
                            x.checked_div(y)
                        } else {
                            return Ok(Oop::float(x as f64 / y as f64));
                        }
                    }
                    MOD => {
                        if y == 0 {
                            return Err(GemError::ZeroDivide);
                        }
                        Some(x.rem_euclid(y))
                    }
                    IDIV => {
                        if y == 0 {
                            return Err(GemError::ZeroDivide);
                        }
                        Some(x.div_euclid(y))
                    }
                    _ => return Err(corrupt("bad arithmetic primitive")),
                };
                let r = r.ok_or(GemError::IntOverflow)?;
                Oop::try_int(r).ok_or(GemError::IntOverflow)
            }
            _ => {
                let x = a.as_number().ok_or_else(|| self.num_mismatch(a))?;
                let y = b.as_number().ok_or_else(|| self.num_mismatch(b))?;
                match p {
                    ADD_NUM => Ok(Oop::float(x + y)),
                    SUB => Ok(Oop::float(x - y)),
                    MUL => Ok(Oop::float(x * y)),
                    DIV => {
                        if y == 0.0 {
                            Err(GemError::ZeroDivide)
                        } else {
                            Ok(Oop::float(x / y))
                        }
                    }
                    MOD | IDIV => Err(GemError::TypeMismatch {
                        expected: "integers for // and \\\\",
                        got: format!("{a:?}, {b:?}"),
                    }),
                    _ => Err(corrupt("bad arithmetic primitive")),
                }
            }
        }
    }

    fn num_mismatch(&self, v: Oop) -> GemError {
        GemError::TypeMismatch { expected: "number", got: format!("{v:?}") }
    }

    fn name_arg(&mut self, v: Oop) -> GemResult<SymbolId> {
        match v.as_sym() {
            Some(s) => Ok(s),
            None => {
                let s = self.world.string_value(v).ok_or_else(|| GemError::TypeMismatch {
                    expected: "name (string or symbol)",
                    got: format!("{v:?}"),
                })?;
                Ok(self.world.intern(&s))
            }
        }
    }
}
