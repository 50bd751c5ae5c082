//! Structural semantics fingerprint of a [`Program`].
//!
//! An FNV-1a hash over everything that determines a program's meaning —
//! item order, names, types, literals, operators, and attached pragma
//! text — while ignoring [`NodeId`]s and [`crate::Span`]s, which change
//! on every re-parse. The invariant the fuzzer's mutator and the
//! pretty-printer property tests rely on:
//!
//! ```text
//! fingerprint(parse(print(ast))) == fingerprint(ast)
//! ```
//!
//! i.e. a print → parse round trip is semantics-preserving even though it
//! renumbers every node.

use crate::ast::*;

/// FNV-1a, kept local so the crate stays dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= u64::from(*x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_scalar(h: &mut Fnv, s: ScalarTy) {
    h.u8(match s {
        ScalarTy::Int => 0,
        ScalarTy::Long => 1,
        ScalarTy::Float => 2,
        ScalarTy::Double => 3,
    });
}

fn hash_ty(h: &mut Fnv, ty: &Ty) {
    match ty {
        Ty::Void => h.u8(10),
        Ty::Scalar(s) => {
            h.u8(11);
            hash_scalar(h, *s);
        }
        Ty::Ptr(s) => {
            h.u8(12);
            hash_scalar(h, *s);
        }
        Ty::Array(s, dims) => {
            h.u8(13);
            hash_scalar(h, *s);
            h.u64(dims.len() as u64);
            for d in dims {
                h.u64(*d);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(v) => {
            h.u8(20);
            h.u64(*v as u64);
        }
        ExprKind::FloatLit(v, suf) => {
            h.u8(21);
            h.u64(v.to_bits());
            h.u8(u8::from(*suf));
        }
        ExprKind::Var(n) => {
            h.u8(22);
            h.str(n);
        }
        ExprKind::Index { base, indices } => {
            h.u8(23);
            h.str(base);
            h.u64(indices.len() as u64);
            for i in indices {
                hash_expr(h, i);
            }
        }
        ExprKind::Unary { op, expr } => {
            h.u8(24);
            h.str(&op.to_string());
            hash_expr(h, expr);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            h.u8(25);
            h.str(&op.to_string());
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            h.u8(26);
            hash_expr(h, cond);
            hash_expr(h, then_e);
            hash_expr(h, else_e);
        }
        ExprKind::Call { name, args } => {
            h.u8(27);
            h.str(name);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        ExprKind::Cast { ty, expr } => {
            h.u8(28);
            hash_ty(h, ty);
            hash_expr(h, expr);
        }
        ExprKind::SizeOf(s) => {
            h.u8(29);
            hash_scalar(h, *s);
        }
    }
}

fn hash_lvalue(h: &mut Fnv, lv: &LValue) {
    match lv {
        LValue::Var(n) => {
            h.u8(30);
            h.str(n);
        }
        LValue::Index { base, indices } => {
            h.u8(31);
            h.str(base);
            h.u64(indices.len() as u64);
            for i in indices {
                hash_expr(h, i);
            }
        }
    }
}

fn hash_decl(h: &mut Fnv, d: &VarDecl) {
    h.str(&d.name);
    hash_ty(h, &d.ty);
    match &d.init {
        None => h.u8(0),
        Some(e) => {
            h.u8(1);
            hash_expr(h, e);
        }
    }
}

fn hash_block(h: &mut Fnv, b: &Block) {
    h.u64(b.stmts.len() as u64);
    for s in &b.stmts {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Fnv, s: &Stmt) {
    // Pragma text is whitespace-normalized by the lexer, so it is stable
    // across print → parse round trips and carries the directive meaning.
    h.u64(s.pragmas.len() as u64);
    for p in &s.pragmas {
        h.str(&p.text);
    }
    match &s.kind {
        StmtKind::Decl(d) => {
            h.u8(40);
            hash_decl(h, d);
        }
        StmtKind::Expr(e) => {
            h.u8(41);
            hash_expr(h, e);
        }
        StmtKind::Assign { target, op, value } => {
            h.u8(42);
            hash_lvalue(h, target);
            h.str(&op.to_string());
            hash_expr(h, value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            h.u8(43);
            hash_expr(h, cond);
            hash_block(h, then_blk);
            match else_blk {
                None => h.u8(0),
                Some(b) => {
                    h.u8(1);
                    hash_block(h, b);
                }
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            h.u8(44);
            match init {
                None => h.u8(0),
                Some(s) => {
                    h.u8(1);
                    hash_stmt(h, s);
                }
            }
            match cond {
                None => h.u8(0),
                Some(e) => {
                    h.u8(1);
                    hash_expr(h, e);
                }
            }
            match step {
                None => h.u8(0),
                Some(s) => {
                    h.u8(1);
                    hash_stmt(h, s);
                }
            }
            hash_block(h, body);
        }
        StmtKind::While { cond, body } => {
            h.u8(45);
            hash_expr(h, cond);
            hash_block(h, body);
        }
        StmtKind::Block(b) => {
            h.u8(46);
            hash_block(h, b);
        }
        StmtKind::Return(e) => {
            h.u8(47);
            match e {
                None => h.u8(0),
                Some(e) => {
                    h.u8(1);
                    hash_expr(h, e);
                }
            }
        }
        StmtKind::Break => h.u8(48),
        StmtKind::Continue => h.u8(49),
    }
}

/// Semantics fingerprint of a whole program. Ignores node ids and spans;
/// covers everything else, in source order.
pub fn fingerprint_program(p: &Program) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.items.len() as u64);
    for it in &p.items {
        match it {
            Item::Global(g) => {
                h.u8(1);
                hash_decl(&mut h, g);
            }
            Item::Func(f) => {
                h.u8(2);
                h.str(&f.name);
                hash_ty(&mut h, &f.ret);
                h.u64(f.params.len() as u64);
                for pr in &f.params {
                    h.str(&pr.name);
                    hash_ty(&mut h, &pr.ty);
                }
                hash_block(&mut h, &f.body);
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::print_program;

    const SRC: &str = "double a[16];\nint total;\nvoid main() {\n int i;\n #pragma acc data copyin(a)\n {\n #pragma acc kernels loop gang\n for (i = 0; i < 16; i++) { a[i] = a[i] * 2.0 + 1.0; }\n }\n for (i = 0; i < 16; i++) { total = total + (int)a[i]; }\n}";

    #[test]
    fn stable_across_reparse() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&print_program(&p1)).unwrap();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn sensitive_to_semantic_change() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&SRC.replace("2.0", "3.0")).unwrap();
        let p3 = parse(&SRC.replace("copyin", "copyout")).unwrap();
        assert_ne!(fingerprint_program(&p1), fingerprint_program(&p2));
        assert_ne!(fingerprint_program(&p1), fingerprint_program(&p3));
    }

    #[test]
    fn ignores_ids() {
        let mut p1 = parse(SRC).unwrap();
        let before = fingerprint_program(&p1);
        // Renumber: allocating ids changes next_id but not the hash.
        p1.next_id += 1;
        assert_eq!(before, fingerprint_program(&p1));
    }
}
