//! Word-level to bit-level lowering ("bit blasting").
//!
//! Every word-level RTL expression is lowered to a vector of AIG literals
//! (LSB first).  The lowering happens inside a [`BlastContext`], which caches
//! already-lowered signals and sub-expressions so shared logic is only built
//! once and structural hashing in the [`Aig`] can take full effect.

use crate::fxhash::FxHashMap;

use htd_rtl::{BinaryOp, Design, Expr, ExprId, SignalId, SignalKind, UnaryOp};

use crate::aig::{Aig, AigLit};

/// A word value as a vector of AIG literals, least-significant bit first.
pub type BitVec = Vec<AigLit>;

/// Converts a constant into a bit vector.
#[must_use]
pub fn const_bits(value: u128, width: u32) -> BitVec {
    (0..width)
        .map(|i| {
            if (value >> i) & 1 == 1 {
                AigLit::TRUE
            } else {
                AigLit::FALSE
            }
        })
        .collect()
}

/// Recovers the numeric value of a bit vector if every bit is constant.
#[must_use]
pub fn bits_to_const(bits: &[AigLit]) -> Option<u128> {
    let mut value = 0u128;
    for (i, &b) in bits.iter().enumerate() {
        if b == AigLit::TRUE {
            value |= 1 << i;
        } else if b != AigLit::FALSE {
            return None;
        }
    }
    Some(value)
}

/// One lowering context: an environment binding signals to bit vectors plus
/// memoisation tables.
///
/// A context corresponds to one (instance, time-point) pair in the property
/// encodings: the checker binds the registers and inputs of that instance at
/// that time and then lowers the expressions it needs.
///
/// # Example
///
/// ```
/// use htd_ipc::aig::Aig;
/// use htd_ipc::bitblast::{BlastContext, const_bits, bits_to_const};
/// use htd_rtl::Design;
///
/// # fn main() -> Result<(), htd_rtl::DesignError> {
/// let mut d = Design::new("adder");
/// let a = d.add_input("a", 4)?;
/// let b = d.add_input("b", 4)?;
/// let sum = d.add(d.signal(a), d.signal(b))?;
/// d.add_output("sum", sum)?;
/// let design = d.validated()?;
///
/// let mut aig = Aig::new();
/// let mut ctx = BlastContext::new();
/// // Bind both inputs to constants and fold the adder away.
/// ctx.bind(a, const_bits(3, 4));
/// ctx.bind(b, const_bits(4, 4));
/// let bits = ctx.expr(design.design(), &mut aig, sum);
/// assert_eq!(bits_to_const(&bits), Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlastContext {
    signal_values: FxHashMap<SignalId, BitVec>,
    expr_cache: FxHashMap<ExprId, BitVec>,
}

impl BlastContext {
    /// Creates an empty context with no signals bound.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a signal (an input or register) to a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the signal was already bound to a *different* value; a
    /// context represents a single consistent valuation.
    pub fn bind(&mut self, signal: SignalId, bits: BitVec) {
        if let Some(existing) = self.signal_values.get(&signal) {
            assert_eq!(existing, &bits, "signal bound twice with different values");
            return;
        }
        self.signal_values.insert(signal, bits);
    }

    /// Binds each register of `regs` this context has not bound yet to its
    /// next-state word, lowered in `current`, the previous frame's context.
    ///
    /// This is demand-driven frame binding: a frame-`t+1` context fed only
    /// the register support of the signals lowered in it holds exactly the
    /// next-state cones those signals read, and a register outside every
    /// such cone is never lowered.
    pub(crate) fn bind_next_states(
        &mut self,
        current: &mut BlastContext,
        design: &Design,
        aig: &mut Aig,
        regs: &[SignalId],
    ) {
        for &r in regs {
            if self.signal_values.contains_key(&r) {
                continue;
            }
            let next = design.signal_info(r).driver().expect("validated design");
            let bits = current.expr(design, aig, next);
            self.signal_values.insert(r, bits);
        }
    }

    /// The binding of a signal, if any.
    #[must_use]
    pub fn binding(&self, signal: SignalId) -> Option<&BitVec> {
        self.signal_values.get(&signal)
    }

    /// Lowers a signal: bound signals return their binding, wires and outputs
    /// are lowered through their driving expression (and memoised).
    ///
    /// # Panics
    ///
    /// Panics if an unbound input or register is referenced — the checker
    /// must bind the full state before lowering.
    pub fn signal(&mut self, design: &Design, aig: &mut Aig, signal: SignalId) -> BitVec {
        if let Some(bits) = self.signal_values.get(&signal) {
            return bits.clone();
        }
        let info = design.signal_info(signal);
        match info.kind() {
            SignalKind::Input | SignalKind::Register { .. } => {
                panic!(
                    "signal `{}` must be bound before lowering (inputs and registers are free \
                     variables of the property encoding)",
                    info.name()
                );
            }
            SignalKind::Wire | SignalKind::Output => {
                let driver = info.driver().expect("validated design");
                let bits = self.expr(design, aig, driver);
                self.signal_values.insert(signal, bits.clone());
                bits
            }
        }
    }

    /// Lowers an expression to a bit vector.
    pub fn expr(&mut self, design: &Design, aig: &mut Aig, expr: ExprId) -> BitVec {
        if let Some(bits) = self.expr_cache.get(&expr) {
            return bits.clone();
        }
        let bits = match design.expr(expr).clone() {
            Expr::Const { value, width } => const_bits(value, width),
            Expr::Signal(s) => self.signal(design, aig, s),
            Expr::Unary { op, a } => {
                let va = self.expr(design, aig, a);
                lower_unary(aig, op, &va)
            }
            Expr::Binary { op, a, b } => {
                let va = self.expr(design, aig, a);
                let vb = self.expr(design, aig, b);
                lower_binary(aig, op, &va, &vb)
            }
            Expr::Mux {
                cond,
                then_e,
                else_e,
            } => {
                let vc = self.expr(design, aig, cond);
                let vt = self.expr(design, aig, then_e);
                let ve = self.expr(design, aig, else_e);
                lower_mux(aig, vc[0], &vt, &ve)
            }
            Expr::Slice { a, hi, lo } => {
                let va = self.expr(design, aig, a);
                va[lo as usize..=hi as usize].to_vec()
            }
            Expr::Concat { hi, lo } => {
                let vhi = self.expr(design, aig, hi);
                let mut bits = self.expr(design, aig, lo);
                bits.extend(vhi);
                bits
            }
            Expr::Rom {
                table,
                index,
                width,
            } => {
                let vi = self.expr(design, aig, index);
                lower_rom(aig, &table, &vi, width)
            }
        };
        self.expr_cache.insert(expr, bits.clone());
        bits
    }
}

fn lower_unary(aig: &mut Aig, op: UnaryOp, a: &[AigLit]) -> BitVec {
    match op {
        UnaryOp::Not => a.iter().map(|l| l.invert()).collect(),
        UnaryOp::Neg => {
            let inverted: BitVec = a.iter().map(|l| l.invert()).collect();
            let one = const_bits(1, a.len() as u32);
            ripple_add(aig, &inverted, &one, AigLit::FALSE).0
        }
        UnaryOp::RedAnd => vec![aig.and_all(a)],
        UnaryOp::RedOr => vec![aig.or_all(a)],
        UnaryOp::RedXor => {
            let mut acc = AigLit::FALSE;
            for &bit in a {
                acc = aig.xor(acc, bit);
            }
            vec![acc]
        }
    }
}

fn lower_binary(aig: &mut Aig, op: BinaryOp, a: &[AigLit], b: &[AigLit]) -> BitVec {
    match op {
        BinaryOp::And => a.iter().zip(b).map(|(&x, &y)| aig.and(x, y)).collect(),
        BinaryOp::Or => a.iter().zip(b).map(|(&x, &y)| aig.or(x, y)).collect(),
        BinaryOp::Xor => a.iter().zip(b).map(|(&x, &y)| aig.xor(x, y)).collect(),
        BinaryOp::Add => ripple_add(aig, a, b, AigLit::FALSE).0,
        BinaryOp::Sub => {
            let nb: BitVec = b.iter().map(|l| l.invert()).collect();
            ripple_add(aig, a, &nb, AigLit::TRUE).0
        }
        BinaryOp::Mul => lower_mul(aig, a, b),
        BinaryOp::Eq => vec![equality(aig, a, b)],
        BinaryOp::Ne => vec![equality(aig, a, b).invert()],
        BinaryOp::Ult => vec![unsigned_less_than(aig, a, b)],
        BinaryOp::Ule => vec![unsigned_less_than(aig, b, a).invert()],
        BinaryOp::Shl => lower_shift(aig, a, b, true),
        BinaryOp::Shr => lower_shift(aig, a, b, false),
    }
}

fn lower_mux(aig: &mut Aig, cond: AigLit, t: &[AigLit], e: &[AigLit]) -> BitVec {
    t.iter()
        .zip(e)
        .map(|(&x, &y)| aig.mux(cond, x, y))
        .collect()
}

/// Ripple-carry addition; returns `(sum, carry_out)`.
fn ripple_add(aig: &mut Aig, a: &[AigLit], b: &[AigLit], cin: AigLit) -> (BitVec, AigLit) {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = aig.full_adder(x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Shift-and-add multiplier, wrapping at the operand width.
fn lower_mul(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> BitVec {
    let width = a.len();
    let mut acc = const_bits(0, width as u32);
    for (i, &bbit) in b.iter().enumerate() {
        if i >= width {
            break;
        }
        // addend = (a << i) gated by b[i]
        let mut addend = const_bits(0, width as u32);
        for j in 0..(width - i) {
            addend[i + j] = aig.and(a[j], bbit);
        }
        acc = ripple_add(aig, &acc, &addend, AigLit::FALSE).0;
    }
    acc
}

/// A single literal that is true iff the two bit vectors are equal.
///
/// Exposed for the property checker, which uses it both for the equality
/// assumptions of the antecedent and for the equality commitments of the
/// consequent.
#[must_use]
pub fn equal(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    debug_assert_eq!(a.len(), b.len());
    let xnors: Vec<AigLit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
    aig.and_all(&xnors)
}

fn equality(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    equal(aig, a, b)
}

/// `a < b` (unsigned) via the carry-out of `a + !b + 1`.
fn unsigned_less_than(aig: &mut Aig, a: &[AigLit], b: &[AigLit]) -> AigLit {
    let nb: BitVec = b.iter().map(|l| l.invert()).collect();
    let (_, carry) = ripple_add(aig, a, &nb, AigLit::TRUE);
    carry.invert()
}

/// Barrel shifter; `left` selects the direction.  Shift amounts greater or
/// equal to the width produce zero (matching the RTL semantics).
fn lower_shift(aig: &mut Aig, a: &[AigLit], amount: &[AigLit], left: bool) -> BitVec {
    let width = a.len();
    let mut current: BitVec = a.to_vec();
    for (stage, &abit) in amount.iter().enumerate() {
        let shift = 1u128 << stage.min(127);
        let mut shifted = const_bits(0, width as u32);
        if shift < width as u128 {
            let s = shift as usize;
            for (i, bit) in shifted.iter_mut().enumerate() {
                let src = if left {
                    i.checked_sub(s)
                } else {
                    i.checked_add(s).filter(|&x| x < width)
                };
                if let Some(src) = src {
                    *bit = current[src];
                }
            }
        }
        current = lower_mux(aig, abit, &shifted, &current);
    }
    current
}

/// Balanced mux tree over the ROM contents, selecting on the index bits.
fn lower_rom(aig: &mut Aig, table: &[u128], index: &[AigLit], width: u32) -> BitVec {
    fn select(aig: &mut Aig, table: &[u128], index: &[AigLit], width: u32) -> BitVec {
        if table.len() == 1 {
            return const_bits(table[0], width);
        }
        let half = table.len() / 2;
        let msb = index[index.len() - 1];
        let lo = select(aig, &table[..half], &index[..index.len() - 1], width);
        let hi = select(aig, &table[half..], &index[..index.len() - 1], width);
        lower_mux(aig, msb, &hi, &lo)
    }
    select(aig, table, index, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_rtl::Design;
    use std::collections::HashMap as StdHashMap;

    /// Binds a design input to fresh AIG variables and remembers the mapping
    /// so concrete values can be plugged in for evaluation.
    struct Harness {
        aig: Aig,
        ctx: BlastContext,
        input_nodes: StdHashMap<SignalId, Vec<u32>>,
    }

    impl Harness {
        fn new(design: &Design) -> Self {
            let mut aig = Aig::new();
            let mut ctx = BlastContext::new();
            let mut input_nodes = StdHashMap::new();
            for id in design.inputs() {
                let width = design.signal_width(id);
                let bits: BitVec = (0..width).map(|_| aig.new_input()).collect();
                input_nodes.insert(id, bits.iter().map(|l| l.node()).collect());
                ctx.bind(id, bits);
            }
            Harness {
                aig,
                ctx,
                input_nodes,
            }
        }

        fn eval(&mut self, design: &Design, expr: ExprId, inputs: &[(SignalId, u128)]) -> u128 {
            let bits = self.ctx.expr(design, &mut self.aig, expr);
            let mut env: StdHashMap<u32, bool> = StdHashMap::new();
            for (sig, value) in inputs {
                for (i, &node) in self.input_nodes[sig].iter().enumerate() {
                    env.insert(node, (value >> i) & 1 == 1);
                }
            }
            let mut out = 0u128;
            for (i, &bit) in bits.iter().enumerate() {
                if self.aig.eval(bit, &env) {
                    out |= 1 << i;
                }
            }
            out
        }
    }

    fn mask(width: u32) -> u128 {
        if width >= 128 {
            u128::MAX
        } else {
            (1 << width) - 1
        }
    }

    #[test]
    fn constants_fold_without_creating_gates() {
        let mut aig = Aig::new();
        let bits = const_bits(0b1010, 4);
        assert_eq!(bits_to_const(&bits), Some(0b1010));
        assert_eq!(aig.num_ands(), 0);
        let x = aig.new_input();
        assert_eq!(bits_to_const(&[x]), None);
    }

    #[test]
    fn word_operators_match_reference_semantics() {
        let mut d = Design::new("ops");
        let a = d.add_input("a", 8).unwrap();
        let b = d.add_input("b", 8).unwrap();
        let sa = d.signal(a);
        let sb = d.signal(b);
        let exprs = vec![
            ("and", d.and(sa, sb).unwrap()),
            ("or", d.or(sa, sb).unwrap()),
            ("xor", d.xor(sa, sb).unwrap()),
            ("add", d.add(sa, sb).unwrap()),
            ("sub", d.sub(sa, sb).unwrap()),
            ("mul", d.mul(sa, sb).unwrap()),
            ("eq", d.cmp_eq(sa, sb).unwrap()),
            ("ne", d.cmp_ne(sa, sb).unwrap()),
            ("ult", d.cmp_ult(sa, sb).unwrap()),
            ("ule", d.cmp_ule(sa, sb).unwrap()),
            ("shl", d.shl(sa, sb).unwrap()),
            ("shr", d.shr(sa, sb).unwrap()),
            ("not", d.not(sa)),
            ("neg", d.neg(sa)),
            ("redand", d.red_and(sa)),
            ("redor", d.red_or(sa)),
            ("redxor", d.red_xor(sa)),
        ];
        let mut harness = Harness::new(&d);
        let samples = [
            (0u128, 0u128),
            (1, 2),
            (255, 1),
            (170, 85),
            (200, 200),
            (13, 3),
            (3, 13),
        ];
        for &(va, vb) in &samples {
            for (name, e) in &exprs {
                let got = harness.eval(&d, *e, &[(a, va), (b, vb)]);
                let expected = match *name {
                    "and" => va & vb,
                    "or" => va | vb,
                    "xor" => va ^ vb,
                    "add" => (va + vb) & mask(8),
                    "sub" => va.wrapping_sub(vb) & mask(8),
                    "mul" => (va * vb) & mask(8),
                    "eq" => u128::from(va == vb),
                    "ne" => u128::from(va != vb),
                    "ult" => u128::from(va < vb),
                    "ule" => u128::from(va <= vb),
                    "shl" => {
                        if vb >= 8 {
                            0
                        } else {
                            (va << vb) & mask(8)
                        }
                    }
                    "shr" => {
                        if vb >= 8 {
                            0
                        } else {
                            va >> vb
                        }
                    }
                    "not" => !va & mask(8),
                    "neg" => va.wrapping_neg() & mask(8),
                    "redand" => u128::from(va == 0xff),
                    "redor" => u128::from(va != 0),
                    "redxor" => u128::from(va.count_ones() % 2 == 1),
                    _ => unreachable!(),
                };
                assert_eq!(got, expected, "{name}({va}, {vb})");
            }
        }
    }

    #[test]
    fn mux_slice_concat_and_rom() {
        let mut d = Design::new("misc");
        let a = d.add_input("a", 8).unwrap();
        let c = d.add_input("c", 1).unwrap();
        let hi = d.slice(d.signal(a), 7, 4).unwrap();
        let lo = d.slice(d.signal(a), 3, 0).unwrap();
        let swapped = d.concat(lo, hi).unwrap();
        let muxed = d.mux(d.signal(c), swapped, d.signal(a)).unwrap();
        let table: Vec<u128> = (0..16).map(|i| (i * 7 + 3) & 0xf).collect();
        let nib = d.slice(d.signal(a), 3, 0).unwrap();
        let looked = d.rom(table.clone(), nib, 4).unwrap();
        let mut harness = Harness::new(&d);
        for &(va, vc) in &[(0xABu128, 0u128), (0xAB, 1), (0x5C, 1), (0x00, 0)] {
            let got_mux = harness.eval(&d, muxed, &[(a, va), (c, vc)]);
            let expected_mux = if vc == 1 {
                ((va & 0xf) << 4) | (va >> 4)
            } else {
                va
            };
            assert_eq!(got_mux, expected_mux);
            let got_rom = harness.eval(&d, looked, &[(a, va), (c, vc)]);
            assert_eq!(got_rom, table[(va & 0xf) as usize]);
        }
    }

    #[test]
    fn wires_are_lowered_through_their_drivers() {
        let mut d = Design::new("wires");
        let a = d.add_input("a", 4).unwrap();
        let inc = {
            let one = d.constant(1, 4).unwrap();
            d.add(d.signal(a), one).unwrap()
        };
        let w = d.add_wire("w", inc).unwrap();
        let doubled = d.add(d.signal(w), d.signal(w)).unwrap();
        let mut harness = Harness::new(&d);
        assert_eq!(harness.eval(&d, doubled, &[(a, 3)]), 8);
    }

    #[test]
    fn sharing_identical_cones_creates_no_new_nodes() {
        let mut d = Design::new("share");
        let a = d.add_input("a", 8).unwrap();
        let b = d.add_input("b", 8).unwrap();
        let x = d.xor(d.signal(a), d.signal(b)).unwrap();
        let y = d.xor(d.signal(a), d.signal(b)).unwrap();
        let mut harness = Harness::new(&d);
        let bits_x = harness.ctx.expr(&d, &mut harness.aig, x);
        let nodes_after_x = harness.aig.num_nodes();
        let bits_y = harness.ctx.expr(&d, &mut harness.aig, y);
        assert_eq!(bits_x, bits_y);
        assert_eq!(harness.aig.num_nodes(), nodes_after_x);
    }

    #[test]
    #[should_panic(expected = "must be bound")]
    fn unbound_register_panics() {
        let mut d = Design::new("unbound");
        let r = d.add_register("r", 4, 0).unwrap();
        let expr = d.signal(r);
        let mut aig = Aig::new();
        let mut ctx = BlastContext::new();
        let _ = ctx.expr(&d, &mut aig, expr);
    }

    #[test]
    fn wide_arithmetic_128_bits() {
        let mut d = Design::new("wide");
        let a = d.add_input("a", 128).unwrap();
        let b = d.add_input("b", 128).unwrap();
        let sum = d.add(d.signal(a), d.signal(b)).unwrap();
        let mut harness = Harness::new(&d);
        let va = u128::MAX - 5;
        let vb = 7u128;
        assert_eq!(
            harness.eval(&d, sum, &[(a, va), (b, vb)]),
            va.wrapping_add(vb)
        );
    }
}
