//! Symbol interning and lowering: resolve every name a kernel body
//! mentions to a dense slot index, and every expression to flat register
//! code, once, before execution.
//!
//! This module lowers a [`Kernel`] to an [`InternedKernel`] whose body is
//! an [`IStmt`] skeleton (`If` / `For` / `SyncThreads` keep their shape)
//! holding [`Op`] sequences instead of expression trees:
//!
//! * each expression becomes post-order [`Op`]s; op `i` of a sequence
//!   writes temp `i`, and every operand is a [`Src`] read by reference —
//!   a register slot, an earlier temp, a block-uniform constant (immediate,
//!   bound scalar parameter, or block/grid special) or a `threadIdx`
//!   component;
//! * array references are pre-resolved [`ArrayRef`]s (shared / local /
//!   parameter), following the interpreter's lookup order
//!   (shared, then local, then parameter arrays);
//! * `If` / `For` statements carry a precomputed `has_sync` flag so the
//!   block-level dispatcher does not re-walk subtrees per block.
//!
//! Post-order keeps the tree's evaluation order, so every trace emission
//! and fault happens at the same point as a recursive walk would reach it.
//! Operands are read when their consuming op runs; where the tree would
//! have read a register *before* a later sibling's ops ran, a [`Op::Def`]
//! check sits at that earlier point, so an unset register still faults
//! before the sibling emits or faults.
//!
//! Names that resolve to nothing are kept (interned into `unknown_names`)
//! so runtime faults report the same messages as before: interning must
//! not change a single observable byte, only the cost of reaching it.
//!
//! Slot invariants:
//! * register slots are dense, in first-assignment/first-use order over a
//!   pre-order walk of the body;
//! * shared and local declaration slots appear in the same pre-order walk
//!   the interpreter used for its byte-offset pre-scan, with first-decl-wins
//!   deduplication, so trace addresses are bit-identical;
//! * parameter slots number scalar and array parameters separately, each in
//!   declaration order, which is exactly the order `GlobalState::bind`
//!   pushes them.

use crate::expr::{BinOp, Expr, ShflMode, Special, UnOp};
use crate::kernel::{Kernel, ParamKind};
use crate::stmt::{visit_stmts, Stmt};
use crate::types::{Dim3, MemSpace, Scalar};
use std::collections::HashMap;

/// A pre-resolved array reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayRef {
    /// Index into [`InternedKernel::shared`].
    Shared(u32),
    /// Index into [`InternedKernel::local`].
    Local(u32),
    /// Index into [`InternedKernel::array_params`] (same slot order as the
    /// bound buffer/binding vectors).
    Param(u32),
    /// Index into [`InternedKernel::unknown_names`]: the name resolves to
    /// no array; the access faults at runtime with the original message.
    Unknown(u32),
}

/// A pre-resolved scalar-parameter reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamRef {
    /// Index into the bound scalar vector (scalar parameters in
    /// declaration order).
    Scalar(u32),
    /// Index into [`InternedKernel::unknown_names`]: not a bound scalar
    /// parameter (missing, or actually an array parameter).
    Unknown(u32),
}

/// A shared-memory array declaration, with its stable byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedDecl {
    pub name: String,
    pub ty: Scalar,
    pub len: u32,
    pub byte_offset: u32,
}

/// A local-memory (or register-file) array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    pub name: String,
    pub ty: Scalar,
    pub len: u32,
    pub byte_offset: u32,
    /// Register-file array: functionally per-thread local storage whose
    /// accesses cost only ALU work.
    pub in_registers: bool,
}

/// One array parameter, with usage flags collected during lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayParamInfo {
    pub name: String,
    /// The body contains at least one `Load` resolving to this parameter.
    pub loaded: bool,
    /// The body contains at least one `Store` resolving to this parameter.
    pub stored: bool,
}

/// Where an op reads one operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Register slot; reading one that was never written faults.
    Reg(u32),
    /// The result of op `n` of the same sequence.
    Temp(u32),
    /// Index into [`InternedKernel::consts`].
    Const(u32),
    /// `threadIdx` component: 0 = x, 1 = y, 2 = z.
    Tid(u8),
}

/// A block-uniform operand value, materialized once per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstSrc {
    /// An immediate: its type and raw bits.
    Imm(Scalar, u32),
    /// Index into the bound scalar vector.
    Param(u32),
    /// A block- or grid-level special register (never `threadIdx`).
    Special(Special),
}

/// One lowered operation. Op `i` of a sequence writes temp `i`; `Def` and
/// `UnknownParam` write nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Unary(UnOp, Src),
    Binary(BinOp, Src, Src),
    /// Condition, then-value, else-value.
    Select(Src, Src, Src),
    Cast(Scalar, Src),
    Load(ArrayRef, Src),
    Shfl { mode: ShflMode, value: Src, lane: Src, width: u32 },
    /// Fault unless the register has been written: the point where the
    /// tree read it, when a later sibling's ops run before its consumer.
    Def(u32),
    /// Read of a name that is not a bound scalar parameter; always faults
    /// (index into [`InternedKernel::unknown_names`]).
    UnknownParam(u32),
}

/// One expression lowered to ops plus the operand holding its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    pub ops: Vec<Op>,
    pub out: Src,
}

/// Interned statement: the control skeleton of the body, holding lowered
/// code. `If` / `For` carry a precomputed barrier flag.
#[derive(Debug, Clone, PartialEq)]
pub enum IStmt {
    DeclScalar { slot: u32, ty: Scalar, init: Option<Lowered> },
    /// Storage is pre-created per block; execution still charges one step.
    DeclArray,
    Assign { slot: u32, value: Lowered },
    /// Index and value share one op sequence, index first.
    Store { array: ArrayRef, ops: Vec<Op>, index: Src, value: Src },
    If { cond: Lowered, then_body: Vec<IStmt>, else_body: Vec<IStmt>, has_sync: bool },
    For {
        var: u32,
        init: Lowered,
        bound: Lowered,
        step: Lowered,
        body: Vec<IStmt>,
        has_sync: bool,
    },
    SyncThreads,
}

impl IStmt {
    /// Whether executing this statement can reach a `__syncthreads`.
    /// Precomputed at interning time; O(1) at dispatch.
    pub fn has_sync(&self) -> bool {
        match self {
            IStmt::SyncThreads => true,
            IStmt::If { has_sync, .. } | IStmt::For { has_sync, .. } => *has_sync,
            _ => false,
        }
    }
}

/// A kernel lowered to slot-indexed form. Built once per launch by
/// [`InternedKernel::from_kernel`]; the original [`Kernel`] stays the
/// public surface.
#[derive(Debug, Clone, PartialEq)]
pub struct InternedKernel {
    pub name: String,
    pub block_dim: Dim3,
    pub body: Vec<IStmt>,
    /// Register slot → name (for fault messages).
    pub reg_names: Vec<String>,
    /// Shared-array declarations in pre-scan order (byte offsets match the
    /// interpreter's original per-block scan exactly).
    pub shared: Vec<SharedDecl>,
    /// Local / register-file array declarations in pre-scan order.
    pub local: Vec<LocalDecl>,
    /// Local-memory bytes consumed by declared local arrays (the cursor
    /// after the pre-scan; register-file arrays do not advance it).
    pub local_decl_bytes: u32,
    /// Scalar parameters in declaration order (slot = position here).
    pub scalar_param_names: Vec<String>,
    /// Array parameters in declaration order (slot = position here), with
    /// load/store usage flags for read-write hazard analysis.
    pub array_params: Vec<ArrayParamInfo>,
    /// Names that resolved to nothing, kept verbatim for fault messages.
    pub unknown_names: Vec<String>,
    /// Block-uniform operands ([`Src::Const`]), deduplicated.
    pub consts: Vec<ConstSrc>,
    /// Temps the longest op sequence writes (the temp file's size).
    pub max_temps: u32,
    /// First `DeclArray` in an invalid space, in pre-order: the block
    /// faults before executing anything, exactly as before.
    pub bad_decl: Option<(String, MemSpace)>,
}

struct Interner {
    regs: HashMap<String, u32>,
    reg_names: Vec<String>,
    shared_idx: HashMap<String, u32>,
    local_idx: HashMap<String, u32>,
    scalar_idx: HashMap<String, u32>,
    array_idx: HashMap<String, u32>,
    array_params: Vec<ArrayParamInfo>,
    unknown_idx: HashMap<String, u32>,
    unknown_names: Vec<String>,
    const_idx: HashMap<ConstSrc, u32>,
    consts: Vec<ConstSrc>,
    max_temps: usize,
}

/// Whether lowering `e` appends at least one op.
fn emits(e: &Expr, scalar_idx: &HashMap<String, u32>) -> bool {
    match e {
        Expr::ImmF32(_) | Expr::ImmI32(_) | Expr::ImmU32(_) | Expr::ImmBool(_) => false,
        Expr::Var(_) | Expr::Special(_) => false,
        Expr::Param(n) => !scalar_idx.contains_key(n),
        _ => true,
    }
}

/// Append `op` and return the temp it writes.
fn push(ops: &mut Vec<Op>, op: Op) -> Src {
    ops.push(op);
    Src::Temp(ops.len() as u32 - 1)
}

impl Interner {
    fn reg(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.regs.get(name) {
            return s;
        }
        let s = self.reg_names.len() as u32;
        self.regs.insert(name.to_string(), s);
        self.reg_names.push(name.to_string());
        s
    }

    fn unknown(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.unknown_idx.get(name) {
            return s;
        }
        let s = self.unknown_names.len() as u32;
        self.unknown_idx.insert(name.to_string(), s);
        self.unknown_names.push(name.to_string());
        s
    }

    /// Resolve an array name in the interpreter's order: shared, local,
    /// then parameter arrays.
    fn array(&mut self, name: &str, write: bool) -> ArrayRef {
        if let Some(&s) = self.shared_idx.get(name) {
            return ArrayRef::Shared(s);
        }
        if let Some(&s) = self.local_idx.get(name) {
            return ArrayRef::Local(s);
        }
        if let Some(&s) = self.array_idx.get(name) {
            let info = &mut self.array_params[s as usize];
            if write {
                info.stored = true;
            } else {
                info.loaded = true;
            }
            return ArrayRef::Param(s);
        }
        ArrayRef::Unknown(self.unknown(name))
    }

    fn param(&mut self, name: &str) -> ParamRef {
        match self.scalar_idx.get(name) {
            Some(&s) => ParamRef::Scalar(s),
            None => ParamRef::Unknown(self.unknown(name)),
        }
    }

    fn konst(&mut self, c: ConstSrc) -> Src {
        let next = self.consts.len() as u32;
        let k = *self.const_idx.entry(c).or_insert(next);
        if k == next {
            self.consts.push(c);
        }
        Src::Const(k)
    }

    /// Lower `e` in post-order onto `ops`; returns where its value is read.
    fn lower(&mut self, e: &Expr, ops: &mut Vec<Op>) -> Src {
        match e {
            Expr::ImmF32(x) => self.konst(ConstSrc::Imm(Scalar::F32, x.to_bits())),
            Expr::ImmI32(x) => self.konst(ConstSrc::Imm(Scalar::I32, *x as u32)),
            Expr::ImmU32(x) => self.konst(ConstSrc::Imm(Scalar::U32, *x)),
            Expr::ImmBool(x) => self.konst(ConstSrc::Imm(Scalar::Bool, *x as u32)),
            Expr::Var(n) => Src::Reg(self.reg(n)),
            Expr::Param(n) => match self.param(n) {
                ParamRef::Scalar(s) => self.konst(ConstSrc::Param(s)),
                ParamRef::Unknown(u) => push(ops, Op::UnknownParam(u)),
            },
            Expr::Special(Special::ThreadIdxX) => Src::Tid(0),
            Expr::Special(Special::ThreadIdxY) => Src::Tid(1),
            Expr::Special(Special::ThreadIdxZ) => Src::Tid(2),
            Expr::Special(s) => self.konst(ConstSrc::Special(*s)),
            Expr::Unary(op, a) => {
                let [a] = self.operands([a], ops);
                push(ops, Op::Unary(*op, a))
            }
            Expr::Binary(op, a, b) => {
                let [a, b] = self.operands([a, b], ops);
                push(ops, Op::Binary(*op, a, b))
            }
            Expr::Select(c, a, b) => {
                let [c, a, b] = self.operands([c, a, b], ops);
                push(ops, Op::Select(c, a, b))
            }
            Expr::Load { array, index } => {
                let array = self.array(array, false);
                let [index] = self.operands([index], ops);
                push(ops, Op::Load(array, index))
            }
            Expr::Shfl { mode, value, lane, width } => {
                let [value, lane] = self.operands([value, lane], ops);
                push(ops, Op::Shfl { mode: *mode, value, lane, width: *width })
            }
            Expr::Cast(ty, a) => {
                let [a] = self.operands([a], ops);
                push(ops, Op::Cast(*ty, a))
            }
        }
    }

    /// Lower sibling operands left to right. A register operand followed by
    /// a sibling that appends ops gets a `Def` check at its own position.
    fn operands<const N: usize>(&mut self, es: [&Expr; N], ops: &mut Vec<Op>) -> [Src; N] {
        let mut out = [Src::Temp(0); N];
        for (i, e) in es.iter().enumerate() {
            out[i] = self.lower(e, ops);
            if let Src::Reg(r) = out[i] {
                if es[i + 1..].iter().any(|e| emits(e, &self.scalar_idx)) {
                    ops.push(Op::Def(r));
                }
            }
        }
        self.max_temps = self.max_temps.max(ops.len());
        out
    }

    fn expr(&mut self, e: &Expr) -> Lowered {
        let mut ops = Vec::new();
        let [out] = self.operands([e], &mut ops);
        Lowered { ops, out }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<IStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> IStmt {
        match s {
            Stmt::DeclScalar { name, ty, init } => IStmt::DeclScalar {
                slot: self.reg(name),
                ty: *ty,
                init: init.as_ref().map(|e| self.expr(e)),
            },
            Stmt::DeclArray { .. } => IStmt::DeclArray,
            Stmt::Assign { name, value } => {
                let value = self.expr(value);
                IStmt::Assign { slot: self.reg(name), value }
            }
            Stmt::Store { array, index, value } => {
                let array = self.array(array, true);
                let mut ops = Vec::new();
                let [index, value] = self.operands([index, value], &mut ops);
                IStmt::Store { array, ops, index, value }
            }
            Stmt::If { cond, then_body, else_body } => IStmt::If {
                cond: self.expr(cond),
                then_body: self.stmts(then_body),
                else_body: self.stmts(else_body),
                has_sync: s.contains_sync(),
            },
            Stmt::For { var, init, bound, step, body, .. } => IStmt::For {
                var: self.reg(var),
                init: self.expr(init),
                bound: self.expr(bound),
                step: self.expr(step),
                body: self.stmts(body),
                has_sync: s.contains_sync(),
            },
            Stmt::SyncThreads => IStmt::SyncThreads,
        }
    }
}

impl InternedKernel {
    /// Lower `kernel` to slot-indexed form. Infallible: unresolvable names
    /// and invalid declarations are preserved as data and fault at runtime
    /// with the original messages.
    pub fn from_kernel(kernel: &Kernel) -> InternedKernel {
        // Parameter slots: scalars and arrays numbered separately, each in
        // declaration order (matches the launch-time binding order).
        let mut scalar_idx = HashMap::new();
        let mut scalar_param_names = Vec::new();
        let mut array_idx = HashMap::new();
        let mut array_params = Vec::new();
        for p in &kernel.params {
            match p.kind {
                ParamKind::Scalar(_) => {
                    scalar_idx.entry(p.name.clone()).or_insert_with(|| {
                        scalar_param_names.push(p.name.clone());
                        scalar_param_names.len() as u32 - 1
                    });
                }
                ParamKind::GlobalArray(_) | ParamKind::TexArray(_) | ParamKind::ConstArray(_) => {
                    array_idx.entry(p.name.clone()).or_insert_with(|| {
                        array_params.push(ArrayParamInfo {
                            name: p.name.clone(),
                            loaded: false,
                            stored: false,
                        });
                        array_params.len() as u32 - 1
                    });
                }
            }
        }

        // Declared-array pre-scan: identical walk, cursors, and dedupe rules
        // as the interpreter's original per-block scan, so byte offsets (and
        // hence every trace address) stay bit-identical.
        let mut shared: Vec<SharedDecl> = Vec::new();
        let mut shared_idx = HashMap::new();
        let mut shared_cursor = 0u32;
        let mut local: Vec<LocalDecl> = Vec::new();
        let mut local_idx = HashMap::new();
        let mut local_cursor = 0u32;
        let mut bad_decl: Option<(String, MemSpace)> = None;
        visit_stmts(&kernel.body, &mut |s| {
            if let Stmt::DeclArray { name, ty, space, len } = s {
                match space {
                    MemSpace::Shared => {
                        if !shared_idx.contains_key(name) {
                            shared_idx.insert(name.clone(), shared.len() as u32);
                            shared.push(SharedDecl {
                                name: name.clone(),
                                ty: *ty,
                                len: *len,
                                byte_offset: shared_cursor,
                            });
                            shared_cursor += len * 4;
                        }
                    }
                    MemSpace::Local => {
                        if !local_idx.contains_key(name) {
                            local_idx.insert(name.clone(), local.len() as u32);
                            local.push(LocalDecl {
                                name: name.clone(),
                                ty: *ty,
                                len: *len,
                                byte_offset: local_cursor,
                                in_registers: false,
                            });
                            local_cursor += len * 4;
                        }
                    }
                    MemSpace::Register => {
                        if !local_idx.contains_key(name) {
                            local_idx.insert(name.clone(), local.len() as u32);
                            local.push(LocalDecl {
                                name: name.clone(),
                                ty: *ty,
                                len: *len,
                                byte_offset: 0,
                                in_registers: true,
                            });
                        }
                    }
                    other => {
                        if bad_decl.is_none() {
                            bad_decl = Some((name.clone(), *other));
                        }
                    }
                }
            }
        });

        let mut it = Interner {
            regs: HashMap::new(),
            reg_names: Vec::new(),
            shared_idx,
            local_idx,
            scalar_idx,
            array_idx,
            array_params,
            unknown_idx: HashMap::new(),
            unknown_names: Vec::new(),
            const_idx: HashMap::new(),
            consts: Vec::new(),
            max_temps: 0,
        };
        let body = it.stmts(&kernel.body);

        InternedKernel {
            name: kernel.name.clone(),
            block_dim: kernel.block_dim,
            body,
            reg_names: it.reg_names,
            shared,
            local,
            local_decl_bytes: local_cursor,
            scalar_param_names,
            array_params: it.array_params,
            unknown_names: it.unknown_names,
            consts: it.consts,
            max_temps: it.max_temps as u32,
            bad_decl,
        }
    }

    /// Shared-memory bytes consumed by the declared arrays (pre-scan
    /// cursor value).
    pub fn shared_decl_bytes(&self) -> u32 {
        self.shared.iter().map(|d| d.len * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;
    use crate::KernelBuilder;

    fn sample() -> Kernel {
        let mut b = KernelBuilder::new("k", 64);
        b.param_global_f32("a");
        b.param_scalar_i32("n");
        b.param_global_f32("out");
        b.shared_array("tile", Scalar::F32, 64);
        b.local_array("buf", Scalar::F32, 8);
        b.decl_i32("t", tidx());
        b.store("tile", v("t"), load("a", v("t")));
        b.sync();
        b.store("buf", i(0), load("tile", v("t")));
        b.store("out", v("t"), load("buf", i(0)) + p("n"));
        b.finish()
    }

    #[test]
    fn params_number_scalars_and_arrays_separately() {
        let ik = InternedKernel::from_kernel(&sample());
        assert_eq!(ik.scalar_param_names, vec!["n"]);
        let names: Vec<_> = ik.array_params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["a", "out"]);
    }

    #[test]
    fn usage_flags_distinguish_read_only_from_read_write() {
        let ik = InternedKernel::from_kernel(&sample());
        assert!(ik.array_params[0].loaded && !ik.array_params[0].stored, "a is read-only");
        assert!(!ik.array_params[1].loaded && ik.array_params[1].stored, "out is write-only");
    }

    #[test]
    fn shared_and_local_offsets_follow_prescan_order() {
        let mut b = KernelBuilder::new("k", 32);
        b.shared_array("s1", Scalar::F32, 16);
        b.shared_array("s2", Scalar::F32, 8);
        b.local_array("l1", Scalar::F32, 4);
        b.local_array("l2", Scalar::F32, 2);
        let ik = InternedKernel::from_kernel(&b.finish());
        assert_eq!(ik.shared[0].byte_offset, 0);
        assert_eq!(ik.shared[1].byte_offset, 64);
        assert_eq!(ik.local[0].byte_offset, 0);
        assert_eq!(ik.local[1].byte_offset, 16);
        assert_eq!(ik.local_decl_bytes, 24);
        assert_eq!(ik.shared_decl_bytes(), 96);
    }

    #[test]
    fn sync_flags_are_precomputed() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.for_loop("i", i(0), i(4), |b| {
            b.sync();
        });
        b.if_else(
            lt(tidx(), i(64)),
            |b| {
                b.store("out", tidx(), f(1.0));
            },
            |_| {},
        );
        let ik = InternedKernel::from_kernel(&b.finish());
        assert!(ik.body[0].has_sync(), "loop containing a barrier");
        assert!(!ik.body[1].has_sync(), "barrier-free conditional");
    }

    #[test]
    fn unresolved_names_are_preserved_for_fault_messages() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.store("out", tidx(), load("ghost", i(0)) + p("phantom"));
        let ik = InternedKernel::from_kernel(&b.finish());
        assert_eq!(ik.unknown_names, vec!["ghost", "phantom"]);
    }

    #[test]
    fn expressions_lower_to_post_order_register_code() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("a");
        b.decl_i32("t", tidx());
        b.decl_f32("x", load("a", v("t") + i(1)) * f(2.0));
        let ik = InternedKernel::from_kernel(&b.finish());
        let IStmt::DeclScalar { init: Some(x), .. } = &ik.body[1] else { panic!() };
        assert_eq!(
            x.ops,
            vec![
                Op::Binary(BinOp::Add, Src::Reg(0), Src::Const(0)),
                Op::Load(ArrayRef::Param(0), Src::Temp(0)),
                Op::Binary(BinOp::Mul, Src::Temp(1), Src::Const(1)),
            ]
        );
        assert_eq!(x.out, Src::Temp(2));
        assert_eq!(
            ik.consts,
            vec![ConstSrc::Imm(Scalar::I32, 1), ConstSrc::Imm(Scalar::F32, 2.0f32.to_bits())]
        );
        assert_eq!(ik.max_temps, 3);
    }

    #[test]
    fn register_read_before_a_sibling_with_ops_is_checked_in_place() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("a");
        b.param_global_f32("out");
        b.store("out", tidx(), v("x") + load("a", i(0)));
        b.store("out", v("y"), f(1.0));
        let ik = InternedKernel::from_kernel(&b.finish());
        let IStmt::Store { ops, .. } = &ik.body[0] else { panic!() };
        assert_eq!(
            ops,
            &vec![
                Op::Def(0),
                Op::Load(ArrayRef::Param(0), Src::Const(0)),
                Op::Binary(BinOp::Add, Src::Reg(0), Src::Temp(1)),
            ]
        );
        // No sibling appends ops: the register is read where it is consumed.
        let IStmt::Store { ops, index, .. } = &ik.body[1] else { panic!() };
        assert!(ops.is_empty());
        assert_eq!(*index, Src::Reg(1));
    }

    #[test]
    fn bad_decl_space_is_captured_not_panicked() {
        let mut k = Kernel::new("k", 32);
        k.body.push(Stmt::DeclArray {
            name: "g".into(),
            ty: Scalar::F32,
            space: MemSpace::Global,
            len: 4,
        });
        let ik = InternedKernel::from_kernel(&k);
        assert_eq!(ik.bad_decl, Some(("g".to_string(), MemSpace::Global)));
    }
}
