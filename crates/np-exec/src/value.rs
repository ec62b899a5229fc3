//! Per-warp lane-vector values.
//!
//! Every scalar the interpreter manipulates is a vector of 32 lane values
//! plus a type tag. Operations are applied only to lanes in the active mask
//! so that, e.g., an integer division in a branch not taken by some lanes
//! cannot fault.

use np_kernel_ir::expr::{BinOp, UnOp};
use np_kernel_ir::types::Scalar;

/// Number of lanes.
pub const LANES: usize = 32;

/// Lane mask; bit `i` = lane `i` active.
pub type Mask = u32;

/// Full mask.
pub const FULL_MASK: Mask = u32::MAX;

/// A lane operation the kernel had no right to perform. Carried up to the
/// interpreter, which wraps it into a typed `SimFault` with warp context.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueError {
    /// True for type errors (operator on wrong types, non-Bool condition);
    /// false for dynamically invalid operations (division by zero).
    pub ill_typed: bool,
    /// Faulting lane, when attributable to one lane.
    pub lane: Option<usize>,
    pub msg: String,
}

impl ValueError {
    fn ill_typed(msg: impl Into<String>) -> ValueError {
        ValueError { ill_typed: true, lane: None, msg: msg.into() }
    }

    fn invalid(lane: usize, msg: impl Into<String>) -> ValueError {
        ValueError { ill_typed: false, lane: Some(lane), msg: msg.into() }
    }
}

/// A warp-wide value.
#[derive(Debug, Clone, PartialEq)]
pub enum WVal {
    F32([f32; LANES]),
    I32([i32; LANES]),
    U32([u32; LANES]),
    Bool([bool; LANES]),
}

/// Iterate over the set lanes of a mask, in ascending order.
pub fn lanes(mask: Mask) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            l
        })
    })
}

/// Write `f(l)` into every active lane of `r` and the type's zero into
/// every other lane — exactly what a freshly built result holds.
#[inline(always)]
fn lanewise<T: Copy + Default>(r: &mut [T; LANES], mask: Mask, f: impl Fn(usize) -> T) {
    if mask == FULL_MASK {
        for (l, x) in r.iter_mut().enumerate() {
            *x = f(l);
        }
    } else {
        for (l, x) in r.iter_mut().enumerate() {
            *x = if mask & (1 << l) != 0 { f(l) } else { T::default() };
        }
    }
}

macro_rules! slot_fn {
    ($name:ident, $variant:ident, $t:ty, $zero:expr) => {
        /// `out` as a lane array of this type, re-tagging it if needed.
        #[inline(always)]
        fn $name(out: &mut WVal) -> &mut [$t; LANES] {
            if !matches!(out, WVal::$variant(_)) {
                *out = WVal::$variant([$zero; LANES]);
            }
            match out {
                WVal::$variant(r) => r,
                _ => unreachable!(),
            }
        }
    };
}
slot_fn!(f32_slot, F32, f32, 0.0);
slot_fn!(i32_slot, I32, i32, 0);
slot_fn!(u32_slot, U32, u32, 0);
slot_fn!(bool_slot, Bool, bool, false);

/// The first active lane dividing by zero.
fn zero_divisor<T: Copy + PartialEq + Default>(y: &[T; LANES], mask: Mask) -> Option<usize> {
    lanes(mask).find(|&l| y[l] == T::default())
}

impl WVal {
    /// Zero value of a type.
    pub fn zero(ty: Scalar) -> WVal {
        match ty {
            Scalar::F32 => WVal::F32([0.0; LANES]),
            Scalar::I32 => WVal::I32([0; LANES]),
            Scalar::U32 => WVal::U32([0; LANES]),
            Scalar::Bool => WVal::Bool([false; LANES]),
        }
    }

    /// Same value in every lane.
    pub fn splat_f32(x: f32) -> WVal {
        WVal::F32([x; LANES])
    }
    pub fn splat_i32(x: i32) -> WVal {
        WVal::I32([x; LANES])
    }
    pub fn splat_u32(x: u32) -> WVal {
        WVal::U32([x; LANES])
    }
    pub fn splat_bool(x: bool) -> WVal {
        WVal::Bool([x; LANES])
    }

    /// The IR type of this value.
    pub fn ty(&self) -> Scalar {
        match self {
            WVal::F32(_) => Scalar::F32,
            WVal::I32(_) => Scalar::I32,
            WVal::U32(_) => Scalar::U32,
            WVal::Bool(_) => Scalar::Bool,
        }
    }

    /// Lane value as f32 bits pattern (for typed raw storage).
    pub fn lane_bits(&self, lane: usize) -> u32 {
        match self {
            WVal::F32(v) => v[lane].to_bits(),
            WVal::I32(v) => v[lane] as u32,
            WVal::U32(v) => v[lane],
            WVal::Bool(v) => v[lane] as u32,
        }
    }

    /// Build a value of type `ty` from raw bit patterns.
    pub fn from_bits(ty: Scalar, bits: [u32; LANES]) -> WVal {
        match ty {
            Scalar::F32 => WVal::F32(bits.map(f32::from_bits)),
            Scalar::I32 => WVal::I32(bits.map(|b| b as i32)),
            Scalar::U32 => WVal::U32(bits),
            Scalar::Bool => WVal::Bool(bits.map(|b| b != 0)),
        }
    }

    /// Lane value as i64 (integers only) — used for indices.
    pub fn lane_index(&self, lane: usize) -> Option<i64> {
        match self {
            WVal::I32(v) => Some(v[lane] as i64),
            WVal::U32(v) => Some(v[lane] as i64),
            _ => None,
        }
    }

    /// Lane value as bool (Bool only).
    pub fn lane_bool(&self, lane: usize) -> Option<bool> {
        match self {
            WVal::Bool(v) => Some(v[lane]),
            _ => None,
        }
    }

    /// Merge `new` into `self` on the active lanes of `mask`.
    pub fn merge_from(&mut self, new: &WVal, mask: Mask) -> Result<(), ValueError> {
        if self.ty() != new.ty() {
            return Err(ValueError::ill_typed(format!(
                "type mismatch in assignment: {:?} = {:?}",
                self.ty(),
                new.ty()
            )));
        }
        // Every lane active (the common case): a whole-value copy replaces
        // the per-lane masked loop, lane-for-lane identical.
        if mask == FULL_MASK {
            self.clone_from(new);
            return Ok(());
        }
        match (self, new) {
            (WVal::F32(a), WVal::F32(b)) => {
                for l in lanes(mask) {
                    a[l] = b[l];
                }
            }
            (WVal::I32(a), WVal::I32(b)) => {
                for l in lanes(mask) {
                    a[l] = b[l];
                }
            }
            (WVal::U32(a), WVal::U32(b)) => {
                for l in lanes(mask) {
                    a[l] = b[l];
                }
            }
            (WVal::Bool(a), WVal::Bool(b)) => {
                for l in lanes(mask) {
                    a[l] = b[l];
                }
            }
            // Internal invariant: types were checked equal above.
            _ => unreachable!(),
        }
        Ok(())
    }

    /// Apply a binary operator lane-wise under `mask`.
    pub fn binary(op: BinOp, a: &WVal, b: &WVal, mask: Mask) -> Result<WVal, ValueError> {
        let mut out = WVal::Bool([false; LANES]);
        WVal::binary_into(op, a, b, mask, &mut out)?;
        Ok(out)
    }

    /// [`WVal::binary`] written into `out`; inactive lanes get the result
    /// type's zero. `mask` is never empty: an operator not defined on the
    /// operand types is an error.
    pub fn binary_into(
        op: BinOp,
        a: &WVal,
        b: &WVal,
        mask: Mask,
        out: &mut WVal,
    ) -> Result<(), ValueError> {
        use BinOp::*;
        let undefined =
            |ty: &str| ValueError::ill_typed(format!("operator {op:?} not defined on {ty}"));
        let by_zero = |l: usize| {
            ValueError::invalid(
                l,
                if op == Div { "integer division by zero" } else { "integer remainder by zero" },
            )
        };
        match (a, b) {
            (WVal::F32(x), WVal::F32(y)) => match op {
                Add => lanewise(f32_slot(out), mask, |l| x[l] + y[l]),
                Sub => lanewise(f32_slot(out), mask, |l| x[l] - y[l]),
                Mul => lanewise(f32_slot(out), mask, |l| x[l] * y[l]),
                Div => lanewise(f32_slot(out), mask, |l| x[l] / y[l]),
                Rem => lanewise(f32_slot(out), mask, |l| x[l] % y[l]),
                Min => lanewise(f32_slot(out), mask, |l| x[l].min(y[l])),
                Max => lanewise(f32_slot(out), mask, |l| x[l].max(y[l])),
                Lt => lanewise(bool_slot(out), mask, |l| x[l] < y[l]),
                Le => lanewise(bool_slot(out), mask, |l| x[l] <= y[l]),
                Gt => lanewise(bool_slot(out), mask, |l| x[l] > y[l]),
                Ge => lanewise(bool_slot(out), mask, |l| x[l] >= y[l]),
                Eq => lanewise(bool_slot(out), mask, |l| x[l] == y[l]),
                Ne => lanewise(bool_slot(out), mask, |l| x[l] != y[l]),
                _ => return Err(undefined("f32")),
            },
            (WVal::I32(x), WVal::I32(y)) => match op {
                Lt => lanewise(bool_slot(out), mask, |l| x[l] < y[l]),
                Le => lanewise(bool_slot(out), mask, |l| x[l] <= y[l]),
                Gt => lanewise(bool_slot(out), mask, |l| x[l] > y[l]),
                Ge => lanewise(bool_slot(out), mask, |l| x[l] >= y[l]),
                Eq => lanewise(bool_slot(out), mask, |l| x[l] == y[l]),
                Ne => lanewise(bool_slot(out), mask, |l| x[l] != y[l]),
                Add => lanewise(i32_slot(out), mask, |l| x[l].wrapping_add(y[l])),
                Sub => lanewise(i32_slot(out), mask, |l| x[l].wrapping_sub(y[l])),
                Mul => lanewise(i32_slot(out), mask, |l| x[l].wrapping_mul(y[l])),
                Div | Rem => {
                    if let Some(l) = zero_divisor(y, mask) {
                        return Err(by_zero(l));
                    }
                    let r = i32_slot(out);
                    if op == Div {
                        lanewise(r, mask, |l| if y[l] == 0 { 0 } else { x[l].wrapping_div(y[l]) })
                    } else {
                        lanewise(r, mask, |l| if y[l] == 0 { 0 } else { x[l].wrapping_rem(y[l]) })
                    }
                }
                Min => lanewise(i32_slot(out), mask, |l| x[l].min(y[l])),
                Max => lanewise(i32_slot(out), mask, |l| x[l].max(y[l])),
                And => lanewise(i32_slot(out), mask, |l| x[l] & y[l]),
                Or => lanewise(i32_slot(out), mask, |l| x[l] | y[l]),
                Xor => lanewise(i32_slot(out), mask, |l| x[l] ^ y[l]),
                Shl => lanewise(i32_slot(out), mask, |l| x[l].wrapping_shl(y[l] as u32)),
                Shr => lanewise(i32_slot(out), mask, |l| x[l].wrapping_shr(y[l] as u32)),
                _ => return Err(undefined("i32")),
            },
            (WVal::U32(x), WVal::U32(y)) => match op {
                Lt => lanewise(bool_slot(out), mask, |l| x[l] < y[l]),
                Le => lanewise(bool_slot(out), mask, |l| x[l] <= y[l]),
                Gt => lanewise(bool_slot(out), mask, |l| x[l] > y[l]),
                Ge => lanewise(bool_slot(out), mask, |l| x[l] >= y[l]),
                Eq => lanewise(bool_slot(out), mask, |l| x[l] == y[l]),
                Ne => lanewise(bool_slot(out), mask, |l| x[l] != y[l]),
                Add => lanewise(u32_slot(out), mask, |l| x[l].wrapping_add(y[l])),
                Sub => lanewise(u32_slot(out), mask, |l| x[l].wrapping_sub(y[l])),
                Mul => lanewise(u32_slot(out), mask, |l| x[l].wrapping_mul(y[l])),
                Div | Rem => {
                    if let Some(l) = zero_divisor(y, mask) {
                        return Err(by_zero(l));
                    }
                    let r = u32_slot(out);
                    if op == Div {
                        lanewise(r, mask, |l| x[l].checked_div(y[l]).unwrap_or(0))
                    } else {
                        lanewise(r, mask, |l| x[l].checked_rem(y[l]).unwrap_or(0))
                    }
                }
                Min => lanewise(u32_slot(out), mask, |l| x[l].min(y[l])),
                Max => lanewise(u32_slot(out), mask, |l| x[l].max(y[l])),
                And => lanewise(u32_slot(out), mask, |l| x[l] & y[l]),
                Or => lanewise(u32_slot(out), mask, |l| x[l] | y[l]),
                Xor => lanewise(u32_slot(out), mask, |l| x[l] ^ y[l]),
                Shl => lanewise(u32_slot(out), mask, |l| x[l].wrapping_shl(y[l])),
                Shr => lanewise(u32_slot(out), mask, |l| x[l].wrapping_shr(y[l])),
                _ => return Err(undefined("u32")),
            },
            (WVal::Bool(x), WVal::Bool(y)) => match op {
                LAnd | And => lanewise(bool_slot(out), mask, |l| x[l] && y[l]),
                LOr | Or => lanewise(bool_slot(out), mask, |l| x[l] || y[l]),
                Eq => lanewise(bool_slot(out), mask, |l| x[l] == y[l]),
                Ne | Xor => lanewise(bool_slot(out), mask, |l| x[l] != y[l]),
                _ => return Err(undefined("bool")),
            },
            (a, b) => {
                return Err(ValueError::ill_typed(format!(
                    "type mismatch in binary {op:?}: {:?} vs {:?} (insert an explicit Cast)",
                    a.ty(),
                    b.ty()
                )))
            }
        }
        Ok(())
    }

    /// Apply a unary operator lane-wise under `mask`.
    pub fn unary(op: UnOp, a: &WVal, mask: Mask) -> Result<WVal, ValueError> {
        use UnOp::*;
        let out = match a {
            WVal::F32(x) => {
                let mut r = [0.0f32; LANES];
                for l in lanes(mask) {
                    r[l] = match op {
                        Neg => -x[l],
                        Sqrt => x[l].sqrt(),
                        Exp => x[l].exp(),
                        Log => x[l].ln(),
                        Sin => x[l].sin(),
                        Cos => x[l].cos(),
                        Abs => x[l].abs(),
                        Floor => x[l].floor(),
                        Not => return Err(ValueError::ill_typed("logical not on f32")),
                    };
                }
                WVal::F32(r)
            }
            WVal::I32(x) => {
                let mut r = [0i32; LANES];
                for l in lanes(mask) {
                    r[l] = match op {
                        Neg => x[l].wrapping_neg(),
                        Abs => x[l].wrapping_abs(),
                        _ => {
                            return Err(ValueError::ill_typed(format!(
                                "operator {op:?} not defined on i32"
                            )))
                        }
                    };
                }
                WVal::I32(r)
            }
            WVal::Bool(x) => {
                let mut r = [false; LANES];
                for l in lanes(mask) {
                    r[l] = match op {
                        Not => !x[l],
                        _ => {
                            return Err(ValueError::ill_typed(format!(
                                "operator {op:?} not defined on bool"
                            )))
                        }
                    };
                }
                WVal::Bool(r)
            }
            WVal::U32(_) => {
                return Err(ValueError::ill_typed(format!("operator {op:?} not defined on u32")))
            }
        };
        Ok(out)
    }

    /// Lane-wise cast under `mask`.
    pub fn cast(&self, to: Scalar, mask: Mask) -> WVal {
        let mut out = WVal::zero(to);
        for l in lanes(mask) {
            let bits = match (self, to) {
                (WVal::F32(v), Scalar::I32) => (v[l] as i32) as u32,
                (WVal::F32(v), Scalar::U32) => v[l] as u32,
                (WVal::F32(v), Scalar::F32) => v[l].to_bits(),
                (WVal::I32(v), Scalar::F32) => (v[l] as f32).to_bits(),
                (WVal::I32(v), Scalar::U32) => v[l] as u32,
                (WVal::I32(v), Scalar::I32) => v[l] as u32,
                (WVal::U32(v), Scalar::F32) => (v[l] as f32).to_bits(),
                (WVal::U32(v), Scalar::I32) => v[l],
                (WVal::U32(v), Scalar::U32) => v[l],
                (WVal::Bool(v), Scalar::I32) | (WVal::Bool(v), Scalar::U32) => v[l] as u32,
                (WVal::Bool(v), Scalar::F32) => (v[l] as u32 as f32).to_bits(),
                (_, Scalar::Bool) => (self.lane_bits(l) != 0) as u32,
            };
            match &mut out {
                WVal::F32(o) => o[l] = f32::from_bits(bits),
                WVal::I32(o) => o[l] = bits as i32,
                WVal::U32(o) => o[l] = bits,
                WVal::Bool(o) => o[l] = bits != 0,
            }
        }
        out
    }

    /// Bitmask of lanes whose Bool value is true, intersected with `mask`.
    pub fn true_mask(&self, mask: Mask) -> Result<Mask, ValueError> {
        let WVal::Bool(v) = self else {
            return Err(ValueError::ill_typed(format!(
                "condition must be Bool, found {:?}",
                self.ty()
            )));
        };
        let mut m = 0;
        for l in lanes(mask) {
            if v[l] {
                m |= 1 << l;
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_division_does_not_fault() {
        let a = WVal::splat_i32(10);
        let mut b = WVal::splat_i32(2);
        if let WVal::I32(v) = &mut b {
            v[5] = 0; // lane 5 would divide by zero
        }
        let mask = FULL_MASK & !(1 << 5);
        let r = WVal::binary(BinOp::Div, &a, &b, mask).unwrap();
        if let WVal::I32(v) = r {
            assert_eq!(v[0], 5);
            assert_eq!(v[5], 0, "inactive lane stays default");
        } else {
            panic!()
        }
    }

    #[test]
    fn active_division_by_zero_faults() {
        let a = WVal::splat_i32(1);
        let b = WVal::splat_i32(0);
        let err = WVal::binary(BinOp::Div, &a, &b, FULL_MASK).unwrap_err();
        assert!(!err.ill_typed);
        assert_eq!(err.lane, Some(0));
        assert!(err.msg.contains("division by zero"), "{:?}", err.msg);
    }

    #[test]
    fn merge_respects_mask() {
        let mut a = WVal::splat_f32(1.0);
        let b = WVal::splat_f32(2.0);
        a.merge_from(&b, 0b1010).unwrap();
        if let WVal::F32(v) = a {
            assert_eq!(v[0], 1.0);
            assert_eq!(v[1], 2.0);
            assert_eq!(v[2], 1.0);
            assert_eq!(v[3], 2.0);
        } else {
            panic!()
        }
    }

    #[test]
    fn comparisons_yield_bool() {
        let a = WVal::splat_i32(3);
        let b = WVal::splat_i32(4);
        let r = WVal::binary(BinOp::Lt, &a, &b, FULL_MASK).unwrap();
        assert_eq!(r.true_mask(FULL_MASK).unwrap(), FULL_MASK);
    }

    #[test]
    fn mixed_types_are_ill_typed() {
        let a = WVal::splat_i32(3);
        let b = WVal::splat_f32(4.0);
        let err = WVal::binary(BinOp::Add, &a, &b, FULL_MASK).unwrap_err();
        assert!(err.ill_typed);
        assert!(err.msg.contains("type mismatch"), "{:?}", err.msg);
    }

    #[test]
    fn casts_round_trip_bits() {
        let a = WVal::splat_f32(3.75);
        let i = a.cast(Scalar::I32, FULL_MASK);
        if let WVal::I32(v) = &i {
            assert_eq!(v[0], 3);
        }
        let f = WVal::splat_i32(-2).cast(Scalar::F32, FULL_MASK);
        if let WVal::F32(v) = f {
            assert_eq!(v[0], -2.0);
        }
    }

    #[test]
    fn bits_round_trip() {
        let v = WVal::splat_f32(1.5);
        let bits: [u32; LANES] = std::array::from_fn(|l| v.lane_bits(l));
        assert_eq!(WVal::from_bits(Scalar::F32, bits), v);
    }

    #[test]
    fn true_mask_filters() {
        let mut c = WVal::splat_bool(true);
        if let WVal::Bool(v) = &mut c {
            v[1] = false;
        }
        assert_eq!(c.true_mask(0b111).unwrap(), 0b101);
    }

    #[test]
    fn non_bool_condition_is_ill_typed() {
        let err = WVal::splat_i32(1).true_mask(FULL_MASK).unwrap_err();
        assert!(err.ill_typed);
    }
}
