//! The wave interpreter: one bytecode engine for host code and for
//! simulated GPU threads.
//!
//! A [`Wave`] is a set of *lanes*, each a private activation of one entry
//! function: its own operand stack, locals and call frames. Host `main`,
//! the `__seq_*` sequential references and the verifier's CPU reference
//! run as a one-lane wave; a device launch runs `LaunchConfig::wave` lanes
//! at a time, lane `i` being thread `first_tid + i`.
//!
//! A wave advances in **rounds**: in each round every live lane executes
//! exactly one instruction, in thread-id order. This lockstep
//! interleaving is what makes data races from missed privatization
//! manifest deterministically — every lane's write to a shared scalar
//! lands before any lane's read — which is the behaviour the paper's
//! kernel verification has to detect.
//!
//! A round is *converged* when every live lane sits at the same chunk,
//! frame depth and pc. The instruction is then fetched and decoded once
//! and applied to the live lanes in thread-id order. Otherwise each live
//! lane fetches its own instruction and steps once, again in thread-id
//! order. Either way each lane executes one instruction per round in the
//! same order, so both reproduce plain round-robin stepping exactly; one
//! `match` (`exec`) serves both.
//!
//! Memory and globals are reached through the [`Env`] trait, so the same
//! bytecode runs against host memory, the instrumented host environment
//! or simulated device memory. The engine is generic over the
//! environment, so each environment's memory operations are monomorphized
//! and inlined into the dispatch loop.

use crate::bytecode::{Chunk, Instr, Intrinsic, Module};
use crate::error::VmError;
use crate::mem::MemSpace;
use crate::value::{Handle, Value};
use openarc_minic::ast::{BinOp, UnOp};
use openarc_minic::{ScalarTy, Ty};

/// Environment a lane executes against: global slots + buffer memory.
pub trait Env {
    /// Read global slot `slot`.
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError>;
    /// Write global slot `slot`.
    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError>;
    /// Read one buffer element on behalf of thread `tid`.
    fn load_elem(&mut self, tid: u64, h: Handle, idx: u64) -> Result<Value, VmError>;
    /// Write one buffer element on behalf of thread `tid`.
    fn store_elem(&mut self, tid: u64, h: Handle, idx: u64, v: Value) -> Result<(), VmError>;
    /// Allocate a buffer of `len` elements, labelled `label` for reports.
    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError>;
    /// Free a buffer.
    fn free(&mut self, h: Handle) -> Result<(), VmError>;

    /// Execute an opaque runtime operation (directive lowering). The
    /// default environment has no runtime attached.
    fn host_op(&mut self, id: u16) -> Result<(), VmError> {
        Err(VmError::Internal(format!(
            "host op {id} with no runtime attached"
        )))
    }
}

/// One activation record: the chunk, the pc of its next instruction and
/// where its locals start in the lane's local array.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    chunk: u16,
    pc: usize,
    base: usize,
}

/// One lane's private state.
#[derive(Debug, Clone, Default)]
struct Lane {
    stack: Vec<Value>,
    /// Locals of every active frame, innermost last.
    locals: Vec<Value>,
    /// The executing frame.
    frame: Frame,
    /// Suspended callers, innermost last.
    calls: Vec<Frame>,
    /// Executed instruction count (feeds the cost model).
    steps: u64,
    done: bool,
    ret: Option<Value>,
}

/// A set of lanes executing one entry function in lockstep rounds.
#[derive(Debug, Clone)]
pub struct Wave {
    entry: u16,
    /// Entry locals: arguments coerced to their parameter types, every
    /// other slot zero. Copied into each lane when it is (re)armed.
    init: Vec<Value>,
    /// Kernel waves pass each lane its thread id as the first argument,
    /// of this parameter type.
    tid_param: Option<Ty>,
    first_tid: u64,
    /// Lane buffers; the first `armed` belong to the current wave and the
    /// rest are kept for reuse.
    lanes: Vec<Lane>,
    armed: usize,
    /// Indices of lanes that have not returned, ascending (thread-id
    /// order).
    live: Vec<u32>,
    /// Every live lane sits at the same chunk, frame depth and pc.
    converged: bool,
}

impl Wave {
    /// A one-lane wave entering `func` with `args`: a host call.
    pub fn call(module: &Module, func: &str, args: &[Value]) -> Result<Wave, VmError> {
        let mut w = Wave::enter(module, func, args, false)?;
        w.reset(0, 1);
        Ok(w)
    }

    /// A kernel wave: lane `i` of a wave armed by [`Wave::reset`] at
    /// `first_tid` enters `func` with `[Int(first_tid + i), args...]`.
    /// `func` is resolved and its arity checked once, here.
    pub fn kernel(module: &Module, func: &str, args: &[Value]) -> Result<Wave, VmError> {
        Wave::enter(module, func, args, true)
    }

    fn enter(module: &Module, func: &str, args: &[Value], tid: bool) -> Result<Wave, VmError> {
        let entry = *module
            .func_index
            .get(func)
            .ok_or_else(|| VmError::UnknownFunction(func.to_string()))?;
        let chunk = &module.chunks[entry as usize];
        let skip = tid as usize;
        if args.len() + skip != chunk.n_params as usize {
            return Err(VmError::Internal(format!(
                "function `{func}` expects {} args, got {}",
                chunk.n_params,
                args.len() + skip
            )));
        }
        let mut init = vec![Value::Int(0); chunk.n_locals as usize];
        for (i, a) in args.iter().enumerate() {
            init[i + skip] = coerce_local(*a, &chunk.local_tys[i + skip]);
        }
        let tid_param = tid.then(|| chunk.local_tys[0].clone());
        Ok(Wave {
            entry,
            init,
            tid_param,
            first_tid: 0,
            lanes: Vec::new(),
            armed: 0,
            live: Vec::new(),
            converged: true,
        })
    }

    /// Arm `n` lanes as threads `first_tid..first_tid + n`, all at the
    /// entry of the wave's function. Lane buffers are reused.
    pub fn reset(&mut self, first_tid: u64, n: usize) {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, Lane::default);
        }
        for (i, lane) in self.lanes[..n].iter_mut().enumerate() {
            lane.stack.clear();
            lane.locals.clear();
            lane.locals.extend_from_slice(&self.init);
            if let Some(ty) = &self.tid_param {
                let tid = Value::Int((first_tid + i as u64) as i64);
                lane.locals[0] = coerce_local(tid, ty);
            }
            lane.frame = Frame {
                chunk: self.entry,
                pc: 0,
                base: 0,
            };
            lane.calls.clear();
            lane.steps = 0;
            lane.done = false;
            lane.ret = None;
        }
        self.first_tid = first_tid;
        self.armed = n;
        self.live.clear();
        self.live.extend(0..n as u32);
        self.converged = true;
    }

    /// True once every lane has returned.
    pub fn is_done(&self) -> bool {
        self.live.is_empty()
    }

    /// Lane 0's return value (the result of a host call).
    pub fn result(&self) -> Option<Value> {
        self.lanes.first().and_then(|l| l.ret)
    }

    /// Executed instruction count of each armed lane, in lane order.
    pub fn lane_steps(&self) -> impl Iterator<Item = u64> + '_ {
        self.lanes[..self.armed].iter().map(|l| l.steps)
    }

    /// Run one round: every live lane executes one instruction, in
    /// thread-id order. `spent` counts lane-steps across calls; the step
    /// that takes it past `budget` fails with [`VmError::StepLimit`]
    /// after it executed, and the lanes behind it in the round do not
    /// run.
    pub fn round<E: Env + ?Sized>(
        &mut self,
        module: &Module,
        env: &mut E,
        spent: &mut u64,
        budget: u64,
    ) -> Result<(), VmError> {
        let n = self.live.len() as u64;
        let Some(&first) = self.live.first() else {
            return Ok(());
        };
        // A converged round that the budget covers in full decodes once;
        // one that the budget cuts short steps lane by lane so the limit
        // fires after the same lane as in any other round.
        let split = if self.converged && budget.saturating_sub(*spent) >= n {
            let frame = self.lanes[first as usize].frame;
            let chunk = &module.chunks[frame.chunk as usize];
            let instr = fetch(chunk, frame.pc)?;
            let split = exec(
                module,
                env,
                chunk,
                instr,
                &mut self.lanes,
                &self.live[..],
                self.first_tid,
            )?;
            *spent += n;
            split
        } else {
            for i in 0..self.live.len() {
                self.step_lane(module, env, self.live[i], spent, budget)?;
            }
            true
        };
        if split {
            let lanes = &self.lanes;
            self.live.retain(|&l| !lanes[l as usize].done);
            self.converged = self.live.windows(2).all(|w| {
                let (a, b) = (&lanes[w[0] as usize], &lanes[w[1] as usize]);
                a.frame.chunk == b.frame.chunk
                    && a.frame.pc == b.frame.pc
                    && a.calls.len() == b.calls.len()
            });
        }
        Ok(())
    }

    /// Run rounds until every lane has returned (see [`Wave::round`] for
    /// `spent` and `budget`).
    pub fn run<E: Env + ?Sized>(
        &mut self,
        module: &Module,
        env: &mut E,
        spent: &mut u64,
        budget: u64,
    ) -> Result<(), VmError> {
        while self.live.len() > 1 {
            self.round(module, env, spent, budget)?;
        }
        // One live lane (a host call, or the last straggler of a wave):
        // its rounds are plain steps.
        if let Some(&l) = self.live.first() {
            while !self.lanes[l as usize].done {
                self.step_lane(module, env, l, spent, budget)?;
            }
            self.live.clear();
        }
        Ok(())
    }

    /// Lane `l` fetches its own instruction and executes it.
    #[inline]
    fn step_lane<E: Env + ?Sized>(
        &mut self,
        module: &Module,
        env: &mut E,
        l: u32,
        spent: &mut u64,
        budget: u64,
    ) -> Result<(), VmError> {
        let frame = self.lanes[l as usize].frame;
        let chunk = &module.chunks[frame.chunk as usize];
        let instr = fetch(chunk, frame.pc)?;
        exec(
            module,
            env,
            chunk,
            instr,
            &mut self.lanes,
            l,
            self.first_tid,
        )?;
        *spent += 1;
        if *spent > budget {
            return Err(VmError::StepLimit(budget));
        }
        Ok(())
    }
}

/// The lanes one [`exec`] call applies its instruction to: a single lane
/// (a per-lane step) or the live lanes of a converged round.
trait LaneIds: Copy {
    fn each(self) -> impl Iterator<Item = u32>;
}

impl LaneIds for u32 {
    #[inline]
    fn each(self) -> impl Iterator<Item = u32> {
        std::iter::once(self)
    }
}

impl LaneIds for &[u32] {
    #[inline]
    fn each(self) -> impl Iterator<Item = u32> {
        self.iter().copied()
    }
}

#[inline]
fn fetch(chunk: &Chunk, pc: usize) -> Result<Instr, VmError> {
    match chunk.code.get(pc) {
        Some(i) => Ok(*i),
        None => Err(VmError::Internal(format!(
            "pc {pc} out of range in `{}`",
            chunk.name
        ))),
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    match stack.pop() {
        Some(v) => Ok(v),
        None => Err(VmError::Internal("stack underflow".into())),
    }
}

/// Return from the lane's executing frame.
#[inline]
fn ret(lane: &mut Lane, v: Option<Value>) {
    lane.locals.truncate(lane.frame.base);
    match lane.calls.pop() {
        Some(caller) => {
            lane.frame = caller;
            if let Some(v) = v {
                lane.stack.push(v);
            }
        }
        None => {
            lane.done = true;
            lane.ret = v;
        }
    }
}

/// Apply `instr`, decoded from `chunk`, to the lanes `ids` in order: each
/// counts one step, advances its pc and executes the instruction against
/// its own stack and locals. The first error stops the round there, with
/// the lanes before it having executed. Returns true when the lanes may
/// no longer share one pc (a conditional branch or a return ran).
#[inline]
fn exec<E: Env + ?Sized, L: LaneIds>(
    module: &Module,
    env: &mut E,
    chunk: &Chunk,
    instr: Instr,
    lanes: &mut [Lane],
    ids: L,
    first_tid: u64,
) -> Result<bool, VmError> {
    // `each!(lane => body)` / `each!(lane, tid => body)`: run `body` once
    // per lane of `ids`, after the per-step bookkeeping.
    macro_rules! each {
        ($lane:ident => $body:expr) => {
            each!($lane, _tid => $body)
        };
        ($lane:ident, $tid:ident => $body:expr) => {
            for l in ids.each() {
                let $lane = &mut lanes[l as usize];
                let $tid = first_tid + l as u64;
                $lane.steps += 1;
                $lane.frame.pc += 1;
                $body;
            }
        };
    }
    match instr {
        Instr::Const(i) => {
            let v = chunk.consts[i as usize];
            each!(lane => lane.stack.push(v));
        }
        Instr::LoadLocal(s) => each!(lane => {
            let v = lane.locals[lane.frame.base + s as usize];
            lane.stack.push(v);
        }),
        Instr::StoreLocal(s) => each!(lane => {
            let v = pop(&mut lane.stack)?;
            lane.locals[lane.frame.base + s as usize] = v;
        }),
        Instr::LoadGlobal(s) => each!(lane => {
            let v = env.load_global(s)?;
            lane.stack.push(v);
        }),
        Instr::StoreGlobal(s) => each!(lane => {
            let v = pop(&mut lane.stack)?;
            env.store_global(s, v)?;
        }),
        Instr::LoadElem => each!(lane, tid => {
            let idx = pop(&mut lane.stack)?;
            let h = as_handle(pop(&mut lane.stack)?)?;
            let v = env.load_elem(tid, h, index_of(idx)?)?;
            lane.stack.push(v);
        }),
        Instr::StoreElem => each!(lane, tid => {
            let v = pop(&mut lane.stack)?;
            let idx = pop(&mut lane.stack)?;
            let h = as_handle(pop(&mut lane.stack)?)?;
            env.store_elem(tid, h, index_of(idx)?, v)?;
        }),
        Instr::Bin(op) => each!(lane => {
            let b = pop(&mut lane.stack)?;
            let a = pop(&mut lane.stack)?;
            lane.stack.push(eval_bin(op, a, b)?);
        }),
        Instr::Un(op) => each!(lane => {
            let a = pop(&mut lane.stack)?;
            lane.stack.push(eval_un(op, a)?);
        }),
        Instr::Cast(ty) => each!(lane => {
            let a = pop(&mut lane.stack)?;
            lane.stack.push(match a {
                Value::Ptr(_) => a,
                other => other.cast(ty),
            });
        }),
        Instr::Jump(t) => each!(lane => lane.frame.pc = t as usize),
        Instr::JumpIfFalse(t) => {
            each!(lane => {
                if !pop(&mut lane.stack)?.truthy() {
                    lane.frame.pc = t as usize;
                }
            });
            return Ok(true);
        }
        Instr::JumpIfTrue(t) => {
            each!(lane => {
                if pop(&mut lane.stack)?.truthy() {
                    lane.frame.pc = t as usize;
                }
            });
            return Ok(true);
        }
        Instr::Call(fidx) => {
            let callee = &module.chunks[fidx as usize];
            let n = callee.n_params as usize;
            each!(lane => {
                if lane.stack.len() < n {
                    return Err(VmError::Internal("stack underflow in call".into()));
                }
                let base = lane.locals.len();
                lane.locals
                    .resize(base + callee.n_locals as usize, Value::Int(0));
                for i in (0..n).rev() {
                    let v = pop(&mut lane.stack)?;
                    lane.locals[base + i] = coerce_local(v, &callee.local_tys[i]);
                }
                lane.calls.push(lane.frame);
                lane.frame = Frame { chunk: fidx, pc: 0, base };
            });
        }
        Instr::CallIntrinsic(intr) => each!(lane => {
            let v = if intr.arity() == 2 {
                let b = pop(&mut lane.stack)?;
                let a = pop(&mut lane.stack)?;
                eval_intrinsic2(intr, a, b)?
            } else {
                let a = pop(&mut lane.stack)?;
                eval_intrinsic1(intr, a)?
            };
            lane.stack.push(v);
        }),
        Instr::Malloc(elem, label) => {
            let name = chunk
                .labels
                .get(label as usize)
                .map(|s| s.as_str())
                .unwrap_or("malloc");
            each!(lane => {
                let len = pop(&mut lane.stack)?.as_i64();
                if len <= 0 {
                    return Err(VmError::BadAlloc(len));
                }
                // Size arrives in *bytes* (C idiom `n * sizeof(double)`).
                let elems = (len as u64).div_ceil(elem.size_bytes());
                let h = env.malloc(elem, elems, name)?;
                lane.stack.push(Value::Ptr(h));
            });
        }
        Instr::Free => each!(lane => {
            let h = as_handle(pop(&mut lane.stack)?)?;
            env.free(h)?;
        }),
        Instr::Return => {
            each!(lane => {
                let v = pop(&mut lane.stack)?;
                ret(lane, Some(v));
            });
            return Ok(true);
        }
        Instr::ReturnVoid => {
            each!(lane => ret(lane, None));
            return Ok(true);
        }
        Instr::HostOp(id) => each!(lane => env.host_op(id)?),
        Instr::Pop => each!(lane => {
            pop(&mut lane.stack)?;
        }),
        Instr::Dup => each!(lane => {
            let v = *lane
                .stack
                .last()
                .ok_or_else(|| VmError::Internal("stack underflow".into()))?;
            lane.stack.push(v);
        }),
    }
    Ok(false)
}

#[inline]
fn as_handle(v: Value) -> Result<Handle, VmError> {
    match v {
        Value::Ptr(h) if !h.is_null() => Ok(h),
        Value::Ptr(h) => Err(VmError::BadHandle(h)),
        other => Err(VmError::TypeError(format!(
            "expected pointer, found {other}"
        ))),
    }
}

#[inline]
fn index_of(v: Value) -> Result<u64, VmError> {
    let i = v.as_i64();
    if i < 0 {
        Err(VmError::TypeError(format!("negative index {i}")))
    } else {
        Ok(i as u64)
    }
}

#[inline]
fn coerce_local(v: Value, ty: &Ty) -> Value {
    match ty {
        Ty::Scalar(s) => match v {
            Value::Ptr(_) => v,
            other => other.cast(*s),
        },
        _ => v,
    }
}

/// Evaluate a binary operator with C-style promotion. `float ⊕ float` stays
/// in `f32` — the single-precision rounding divergence between CPU and GPU
/// paths that motivates the paper's configurable comparison margins.
#[inline]
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, VmError> {
    use BinOp::*;
    // Pointer comparisons.
    if let (Value::Ptr(x), Value::Ptr(y)) = (a, b) {
        return match op {
            Eq => Ok(Value::Int((x == y) as i64)),
            Ne => Ok(Value::Int((x != y) as i64)),
            _ => Err(VmError::TypeError(format!("operator `{op}` on pointers"))),
        };
    }
    if matches!(a, Value::Ptr(_)) || matches!(b, Value::Ptr(_)) {
        return Err(VmError::TypeError(format!(
            "operator `{op}` mixes pointer and number"
        )));
    }
    let int_only = matches!(op, Rem | BitAnd | BitOr | BitXor | Shl | Shr);
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            Add => Ok(Value::Int(x.wrapping_add(y))),
            Sub => Ok(Value::Int(x.wrapping_sub(y))),
            Mul => Ok(Value::Int(x.wrapping_mul(y))),
            Div => {
                if y == 0 {
                    Err(VmError::DivByZero)
                } else {
                    Ok(Value::Int(x.wrapping_div(y)))
                }
            }
            Rem => {
                if y == 0 {
                    Err(VmError::DivByZero)
                } else {
                    Ok(Value::Int(x.wrapping_rem(y)))
                }
            }
            Lt => Ok(Value::Int((x < y) as i64)),
            Gt => Ok(Value::Int((x > y) as i64)),
            Le => Ok(Value::Int((x <= y) as i64)),
            Ge => Ok(Value::Int((x >= y) as i64)),
            Eq => Ok(Value::Int((x == y) as i64)),
            Ne => Ok(Value::Int((x != y) as i64)),
            BitAnd => Ok(Value::Int(x & y)),
            BitOr => Ok(Value::Int(x | y)),
            BitXor => Ok(Value::Int(x ^ y)),
            Shl => Ok(Value::Int(x.wrapping_shl(y as u32))),
            Shr => Ok(Value::Int(x.wrapping_shr(y as u32))),
            And => Ok(Value::Int(((x != 0) && (y != 0)) as i64)),
            Or => Ok(Value::Int(((x != 0) || (y != 0)) as i64)),
        },
        _ if int_only => Err(VmError::TypeError(format!(
            "operator `{op}` requires integers"
        ))),
        // Single precision when no f64 operand is involved.
        (x, y) if !matches!(x, Value::F64(_)) && !matches!(y, Value::F64(_)) => {
            let xf = x.as_f64() as f32;
            let yf = y.as_f64() as f32;
            eval_float_op(op, xf as f64, yf as f64, true)
        }
        (x, y) => eval_float_op(op, x.as_f64(), y.as_f64(), false),
    }
}

#[inline]
fn eval_float_op(op: BinOp, x: f64, y: f64, single: bool) -> Result<Value, VmError> {
    use BinOp::*;
    let num = |v: f64| {
        if single {
            Value::F32(v as f32)
        } else {
            Value::F64(v)
        }
    };
    Ok(match op {
        Add => num(if single {
            (x as f32 + y as f32) as f64
        } else {
            x + y
        }),
        Sub => num(if single {
            (x as f32 - y as f32) as f64
        } else {
            x - y
        }),
        Mul => num(if single {
            (x as f32 * y as f32) as f64
        } else {
            x * y
        }),
        Div => num(if single {
            (x as f32 / y as f32) as f64
        } else {
            x / y
        }),
        Lt => Value::Int((x < y) as i64),
        Gt => Value::Int((x > y) as i64),
        Le => Value::Int((x <= y) as i64),
        Ge => Value::Int((x >= y) as i64),
        Eq => Value::Int((x == y) as i64),
        Ne => Value::Int((x != y) as i64),
        And => Value::Int(((x != 0.0) && (y != 0.0)) as i64),
        Or => Value::Int(((x != 0.0) || (y != 0.0)) as i64),
        _ => return Err(VmError::TypeError(format!("operator `{op}` on floats"))),
    })
}

/// Evaluate a unary operator.
#[inline]
pub fn eval_un(op: UnOp, a: Value) -> Result<Value, VmError> {
    match (op, a) {
        (UnOp::Neg, Value::Int(v)) => Ok(Value::Int(v.wrapping_neg())),
        (UnOp::Neg, Value::F32(v)) => Ok(Value::F32(-v)),
        (UnOp::Neg, Value::F64(v)) => Ok(Value::F64(-v)),
        (UnOp::Not, v) => Ok(Value::Int(!v.truthy() as i64)),
        (UnOp::BitNot, Value::Int(v)) => Ok(Value::Int(!v)),
        (op, v) => Err(VmError::TypeError(format!("unary `{op}` on {v}"))),
    }
}

fn eval_intrinsic1(intr: Intrinsic, a: Value) -> Result<Value, VmError> {
    if matches!(a, Value::Ptr(_)) {
        return Err(VmError::TypeError("intrinsic on pointer".into()));
    }
    let x = a.as_f64();
    Ok(match intr {
        Intrinsic::Sqrt => Value::F64(x.sqrt()),
        Intrinsic::Fabs => Value::F64(x.abs()),
        Intrinsic::Exp => Value::F64(x.exp()),
        Intrinsic::Log => Value::F64(x.ln()),
        Intrinsic::Sin => Value::F64(x.sin()),
        Intrinsic::Cos => Value::F64(x.cos()),
        Intrinsic::Floor => Value::F64(x.floor()),
        Intrinsic::Ceil => Value::F64(x.ceil()),
        Intrinsic::Abs => Value::Int(a.as_i64().wrapping_abs()),
        Intrinsic::SqrtF => Value::F32((x as f32).sqrt()),
        Intrinsic::ExpF => Value::F32((x as f32).exp()),
        Intrinsic::FabsF => Value::F32((x as f32).abs()),
        Intrinsic::LogF => Value::F32((x as f32).ln()),
        other => return Err(VmError::Internal(format!("{other:?} is not unary"))),
    })
}

fn eval_intrinsic2(intr: Intrinsic, a: Value, b: Value) -> Result<Value, VmError> {
    if matches!(a, Value::Ptr(_)) || matches!(b, Value::Ptr(_)) {
        return Err(VmError::TypeError("intrinsic on pointer".into()));
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    Ok(match intr {
        Intrinsic::Pow => Value::F64(x.powf(y)),
        Intrinsic::PowF => Value::F32((x as f32).powf(y as f32)),
        Intrinsic::Fmin => Value::F64(x.min(y)),
        Intrinsic::Fmax => Value::F64(x.max(y)),
        Intrinsic::Min | Intrinsic::Max => {
            let int_mode = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
            let take_min = intr == Intrinsic::Min;
            if int_mode {
                let (ai, bi) = (a.as_i64(), b.as_i64());
                Value::Int(if take_min { ai.min(bi) } else { ai.max(bi) })
            } else {
                Value::F64(if take_min { x.min(y) } else { x.max(y) })
            }
        }
        other => return Err(VmError::Internal(format!("{other:?} is not binary"))),
    })
}

/// A plain environment over a single [`MemSpace`] — used for host execution
/// in tests and by the runtime crate as the host half of the machine.
#[derive(Debug, Clone, Default)]
pub struct BasicEnv {
    /// Global slot values.
    pub globals: Vec<Value>,
    /// Backing memory.
    pub mem: MemSpace,
}

impl BasicEnv {
    /// Prepare globals for `module`: arrays are allocated, scalars zeroed.
    pub fn for_module(module: &Module) -> BasicEnv {
        let mut mem = MemSpace::new();
        let mut globals = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let v = match &g.ty {
                Ty::Array(s, dims) => {
                    let len: u64 = dims.iter().product();
                    Value::Ptr(mem.alloc(*s, len as usize, g.name.clone()))
                }
                Ty::Ptr(_) => Value::Ptr(Handle::NULL),
                Ty::Scalar(s) => Value::zero(*s),
                Ty::Void => Value::Int(0),
            };
            globals.push(v);
        }
        BasicEnv { globals, mem }
    }
}

impl Env for BasicEnv {
    #[inline]
    fn load_global(&mut self, slot: u16) -> Result<Value, VmError> {
        self.globals
            .get(slot as usize)
            .copied()
            .ok_or_else(|| VmError::Internal(format!("global slot {slot} out of range")))
    }

    #[inline]
    fn store_global(&mut self, slot: u16, v: Value) -> Result<(), VmError> {
        let g = self
            .globals
            .get_mut(slot as usize)
            .ok_or_else(|| VmError::Internal(format!("global slot {slot} out of range")))?;
        *g = v;
        Ok(())
    }

    #[inline]
    fn load_elem(&mut self, _tid: u64, h: Handle, idx: u64) -> Result<Value, VmError> {
        self.mem.load(h, idx)
    }

    #[inline]
    fn store_elem(&mut self, _tid: u64, h: Handle, idx: u64, v: Value) -> Result<(), VmError> {
        self.mem.store(h, idx, v)
    }

    fn malloc(&mut self, elem: ScalarTy, len: u64, label: &str) -> Result<Handle, VmError> {
        Ok(self.mem.alloc(elem, len as usize, label))
    }

    fn free(&mut self, h: Handle) -> Result<(), VmError> {
        self.mem.free(h)
    }
}

/// Run `func` of `module` in `env` to completion as a one-lane wave.
/// Returns the function's return value and the instructions it executed;
/// more than `budget` instructions fail with [`VmError::StepLimit`].
pub fn call_function<E: Env + ?Sized>(
    module: &Module,
    env: &mut E,
    func: &str,
    args: &[Value],
    budget: u64,
) -> Result<(Option<Value>, u64), VmError> {
    let mut wave = Wave::call(module, func, args)?;
    let mut steps = 0;
    wave.run(module, env, &mut steps, budget)?;
    Ok((wave.result(), steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, GLOBALS_INIT};
    use openarc_minic::frontend;

    const BUDGET: u64 = 10_000_000;

    fn run_main(src: &str) -> (Module, BasicEnv) {
        let (p, s) = frontend(src).expect("frontend");
        let m = compile(&p, &s).expect("compile");
        let mut env = BasicEnv::for_module(&m);
        call_function(&m, &mut env, GLOBALS_INIT, &[], BUDGET).unwrap();
        call_function(&m, &mut env, "main", &[], BUDGET).unwrap();
        (m, env)
    }

    fn global_val(m: &Module, env: &BasicEnv, name: &str) -> Value {
        env.globals[m.global_slot(name).unwrap() as usize]
    }

    #[test]
    fn arithmetic_and_assignment() {
        let (m, env) = run_main("int n;\ndouble d;\nvoid main() { n = 2 + 3 * 4; d = 1.5 * 2.0; }");
        assert_eq!(global_val(&m, &env, "n"), Value::Int(14));
        assert_eq!(global_val(&m, &env, "d"), Value::F64(3.0));
    }

    #[test]
    fn loops_and_array_sum() {
        let (m, env) = run_main(
            "double a[10];\ndouble s;\nvoid main() { int i; for (i = 0; i < 10; i++) { a[i] = (double) i; } s = 0.0; for (i = 0; i < 10; i++) { s += a[i]; } }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(45.0));
    }

    #[test]
    fn two_dimensional_arrays() {
        let (m, env) = run_main(
            "double g[3][4];\ndouble s;\nvoid main() { int i; int j; for (i=0;i<3;i++) for (j=0;j<4;j++) g[i][j] = (double)(i*10+j); s = g[2][3]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(23.0));
    }

    #[test]
    fn user_function_calls() {
        let (m, env) = run_main(
            "double sq(double x) { return x * x; }\nint fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\ndouble d;\nint k;\nvoid main() { d = sq(3.0); k = fib(10); }",
        );
        assert_eq!(global_val(&m, &env, "d"), Value::F64(9.0));
        assert_eq!(global_val(&m, &env, "k"), Value::Int(55));
    }

    #[test]
    fn malloc_free_and_pointer_indexing() {
        let (m, env) = run_main(
            "double *p;\ndouble s;\nvoid main() { int i; p = (double *) malloc(8 * sizeof(double)); for (i=0;i<8;i++) p[i] = 2.0; s = p[7]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(2.0));
        // p still allocated
        assert_eq!(env.mem.live_buffers(), 1);
    }

    #[test]
    fn pointer_swap() {
        let (m, env) = run_main(
            "double *p;\ndouble *q;\ndouble *t;\ndouble s;\nvoid main() { p = (double *) malloc(sizeof(double)); q = (double *) malloc(sizeof(double)); p[0] = 1.0; q[0] = 2.0; t = p; p = q; q = t; s = p[0]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(2.0));
    }

    #[test]
    fn float_single_precision_rounding() {
        // 0.1f + 0.2f in f32 differs from the f64 sum.
        let (m, env) =
            run_main("float f;\ndouble d;\nvoid main() { f = 0.1f + 0.2f; d = 0.1 + 0.2; }");
        let f = match global_val(&m, &env, "f") {
            Value::F32(v) => v,
            other => panic!("{other:?}"),
        };
        let d = match global_val(&m, &env, "d") {
            Value::F64(v) => v,
            other => panic!("{other:?}"),
        };
        assert_ne!(f as f64, d);
        assert!((f as f64 - d).abs() < 1e-7);
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the RHS must not run when LHS decides.
        let (m, env) = run_main(
            "int n;\nint ok;\nvoid main() { n = 0; if (n != 0 && 10 / n > 1) { ok = 1; } else { ok = 2; } }",
        );
        assert_eq!(global_val(&m, &env, "ok"), Value::Int(2));
    }

    #[test]
    fn ternary_and_intrinsics() {
        let (m, env) = run_main(
            "double d;\nint k;\nvoid main() { d = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0); k = max(3, 9) + min(2, 5) + abs(-4); d = d + (k > 10 ? 0.5 : 0.25); }",
        );
        assert_eq!(global_val(&m, &env, "k"), Value::Int(15));
        assert_eq!(global_val(&m, &env, "d"), Value::F64(14.5));
    }

    #[test]
    fn break_and_continue() {
        let (m, env) = run_main(
            "int s;\nvoid main() { int i; s = 0; for (i = 0; i < 100; i++) { if (i % 2 == 0) continue; if (i > 8) break; s += i; } }",
        );
        // 1 + 3 + 5 + 7 = 16
        assert_eq!(global_val(&m, &env, "s"), Value::Int(16));
    }

    #[test]
    fn while_loop() {
        let (m, env) = run_main("int n;\nvoid main() { n = 1; while (n < 100) { n = n * 2; } }");
        assert_eq!(global_val(&m, &env, "n"), Value::Int(128));
    }

    #[test]
    fn global_initializers_applied() {
        let (m, env) =
            run_main("int n = 5;\ndouble e = 2.5;\nint m2;\nvoid main() { m2 = n * 2; }");
        assert_eq!(global_val(&m, &env, "m2"), Value::Int(10));
        assert_eq!(global_val(&m, &env, "e"), Value::F64(2.5));
    }

    #[test]
    fn div_by_zero_reported() {
        let (p, s) = frontend("int n;\nvoid main() { n = 1 / 0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert_eq!(r, Err(VmError::DivByZero));
    }

    #[test]
    fn out_of_bounds_reported() {
        let (p, s) = frontend("double a[4];\nvoid main() { a[9] = 1.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert!(matches!(r, Err(VmError::OutOfBounds { .. })));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let (p, s) = frontend("void main() { while (1) { } }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], 1000);
        assert!(matches!(r, Err(VmError::StepLimit(_))));
    }

    #[test]
    fn null_pointer_use_reported() {
        let (p, s) = frontend("double *p;\nvoid main() { p[0] = 1.0; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let r = call_function(&m, &mut env, "main", &[], BUDGET);
        assert!(matches!(r, Err(VmError::BadHandle(_))));
    }

    #[test]
    fn function_args_coerced_to_param_types() {
        let (m, env) = run_main(
            "double half(double x) { return x / 2.0; }\ndouble d;\nvoid main() { d = half(5); }",
        );
        assert_eq!(global_val(&m, &env, "d"), Value::F64(2.5));
    }

    #[test]
    fn one_lane_wave_steps_round_by_round() {
        let (p, s) = frontend("int n;\nvoid main() { n = 1; n = n + 1; n = n + 1; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = BasicEnv::for_module(&m);
        let mut w = Wave::call(&m, "main", &[]).unwrap();
        let mut spent = 0;
        while !w.is_done() {
            w.round(&m, &mut env, &mut spent, BUDGET).unwrap();
            assert!(spent < 100);
        }
        assert_eq!(env.globals[0], Value::Int(3));
        assert_eq!(w.lane_steps().collect::<Vec<_>>(), vec![spent]);
    }

    /// An [`Env`] over one int buffer that logs every element access.
    #[derive(Default)]
    struct LogEnv {
        mem: Vec<i64>,
        log: Vec<(u64, u64, bool)>,
    }

    impl Env for LogEnv {
        fn load_global(&mut self, _: u16) -> Result<Value, VmError> {
            unreachable!()
        }
        fn store_global(&mut self, _: u16, _: Value) -> Result<(), VmError> {
            unreachable!()
        }
        fn load_elem(&mut self, tid: u64, _: Handle, idx: u64) -> Result<Value, VmError> {
            self.log.push((tid, idx, false));
            Ok(Value::Int(self.mem[idx as usize]))
        }
        fn store_elem(&mut self, tid: u64, _: Handle, idx: u64, v: Value) -> Result<(), VmError> {
            self.log.push((tid, idx, true));
            self.mem[idx as usize] = v.as_i64();
            Ok(())
        }
        fn malloc(&mut self, _: ScalarTy, _: u64, _: &str) -> Result<Handle, VmError> {
            unreachable!()
        }
        fn free(&mut self, _: Handle) -> Result<(), VmError> {
            unreachable!()
        }
    }

    /// Plain round-robin over one-lane waves: the definition a wave's
    /// rounds must reproduce.
    fn round_robin(m: &Module, tids: std::ops::Range<u64>, env: &mut LogEnv) -> Vec<u64> {
        let mut lanes: Vec<Wave> = tids
            .map(|t| Wave::call(m, "k", &[Value::Int(t as i64), Value::Ptr(Handle(1))]).unwrap())
            .collect();
        let mut spent = 0;
        while lanes.iter().any(|w| !w.is_done()) {
            for (i, w) in lanes.iter_mut().enumerate() {
                // A one-lane wave reports tid 0; shift the log to the lane.
                let at = env.log.len();
                w.round(m, env, &mut spent, BUDGET).unwrap();
                for e in &mut env.log[at..] {
                    e.0 = i as u64;
                }
            }
        }
        lanes
            .iter()
            .map(|w| w.lane_steps().next().unwrap())
            .collect()
    }

    #[test]
    fn wave_rounds_reproduce_round_robin() {
        // Diverges on a tid-dependent branch, runs tid-dependent trip
        // counts, calls a function and returns early on some lanes.
        let src = "int inc(int *a, int i) { a[i] = a[i] + 1; return a[i]; }\nvoid k(int gid, int *a) { int i; if (gid % 3 == 1) { return; } for (i = 0; i < gid % 4; i++) { a[0] = inc(a, gid) + a[0]; } a[8] = gid; }";
        let (p, s) = frontend(src).unwrap();
        let m = compile(&p, &s).unwrap();
        let mut want = LogEnv {
            mem: vec![0; 9],
            ..Default::default()
        };
        let want_steps = round_robin(&m, 0..8, &mut want);
        let mut got = LogEnv {
            mem: vec![0; 9],
            ..Default::default()
        };
        let mut w = Wave::kernel(&m, "k", &[Value::Ptr(Handle(1))]).unwrap();
        w.reset(0, 8);
        let mut spent = 0;
        w.run(&m, &mut got, &mut spent, BUDGET).unwrap();
        assert_eq!(got.log, want.log);
        assert_eq!(got.mem, want.mem);
        assert_eq!(w.lane_steps().collect::<Vec<_>>(), want_steps);
        assert_eq!(spent, want_steps.iter().sum::<u64>());
    }

    #[test]
    fn balanced_branches_reconverge() {
        // Both arms take six instructions, so the lanes split at the
        // branch and share one pc again right after it.
        let src = "void k(int gid, int *a) { int x; if (gid % 2 == 0) { x = gid * 3; } else { x = -gid + 1; } a[gid] = x; }";
        let (p, s) = frontend(src).unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = LogEnv {
            mem: vec![0; 4],
            ..Default::default()
        };
        let mut w = Wave::kernel(&m, "k", &[Value::Ptr(Handle(1))]).unwrap();
        w.reset(0, 4);
        let mut spent = 0;
        let mut converged = Vec::new();
        while !w.is_done() {
            w.round(&m, &mut env, &mut spent, BUDGET).unwrap();
            converged.push(w.converged);
        }
        assert!(converged.contains(&false), "the branch splits the lanes");
        let split = converged.iter().position(|c| !c).unwrap();
        assert!(converged[split..].contains(&true), "and they reconverge");
        assert_eq!(env.mem, vec![0, 0, 6, -2]);
    }

    #[test]
    fn budget_cut_mid_round_stops_after_that_lane() {
        let (p, s) = frontend("void k(int gid, int *a) { a[gid] = gid + 1; }").unwrap();
        let m = compile(&p, &s).unwrap();
        let mut env = LogEnv {
            mem: vec![0; 4],
            ..Default::default()
        };
        let mut w = Wave::kernel(&m, "k", &[Value::Ptr(Handle(1))]).unwrap();
        w.reset(0, 4);
        // Rounds before the store round run in full; in the store round
        // lanes 0 and 1 fit the budget and lane 2's store is the step
        // past it, so it lands and lane 3's does not.
        let k = m
            .chunk("k")
            .unwrap()
            .code
            .iter()
            .position(|i| *i == Instr::StoreElem);
        let budget = 4 * k.unwrap() as u64 + 2;
        let mut spent = 0;
        let r = w.run(&m, &mut env, &mut spent, budget);
        assert_eq!(r, Err(VmError::StepLimit(budget)));
        assert_eq!(spent, budget + 1);
        assert_eq!(env.mem, vec![1, 2, 3, 0]);
    }

    #[test]
    fn compound_elementwise_assign() {
        let (m, env) = run_main(
            "double a[4];\ndouble s;\nvoid main() { int i; for (i=0;i<4;i++) a[i] = 1.0; for (i=0;i<4;i++) a[i] += 0.5; s = a[0] + a[3]; }",
        );
        assert_eq!(global_val(&m, &env, "s"), Value::F64(3.0));
    }

    #[test]
    fn modulo_and_bitops() {
        let (m, env) = run_main("int a;\nint b;\nvoid main() { a = 17 % 5; b = (3 << 2) | 1; }");
        assert_eq!(global_val(&m, &env, "a"), Value::Int(2));
        assert_eq!(global_val(&m, &env, "b"), Value::Int(13));
    }
}
