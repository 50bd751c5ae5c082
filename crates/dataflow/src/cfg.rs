//! Control-flow graph over a MiniC function, OpenACC-aware.
//!
//! Compute regions collapse into single **kernel nodes** whose accesses are
//! attributed to the GPU side; everything else is host-side. This mirrors
//! the paper's placement rules ("coherence checking for GPU data is only
//! necessary at the kernel boundary") and gives the dead/live analyses the
//! two views they need (§III-B runs Algorithm 1 "twice, one for CPU
//! variables and the other for GPU variables").

use openarc_minic::ast::*;
use openarc_minic::span::Diagnostic;
use openarc_openacc::{directives_of, ComputeSpec, DataSpec, Directive, UpdateSpec};
use std::collections::{BTreeSet, HashMap};

/// Which device's accesses an analysis should look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Host CPU accesses.
    Host,
    /// Device (compute-region) accesses.
    Gpu,
}

/// Variable accesses attributed to one side at one CFG node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessSummary {
    /// Variables read.
    pub reads: BTreeSet<String>,
    /// Variables written (totally or partially).
    pub writes: BTreeSet<String>,
    /// Variables written as a whole (scalar or pointer assignment).
    pub total_writes: BTreeSet<String>,
    /// Variables whose allocation dies here (`free`, or pointer overwrite).
    pub kills: BTreeSet<String>,
}

impl AccessSummary {
    /// True if nothing is accessed.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.kills.is_empty()
    }
}

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// Function exit.
    Exit,
    /// Structural no-op (joins, empty statements, `wait`).
    Nop,
    /// An ordinary host statement.
    Plain,
    /// A branch condition evaluation (reads only).
    Branch,
    /// A whole compute region (one kernel). Index into [`Cfg::regions`].
    Kernel(usize),
    /// Entry of a structured `data` region. Index into [`Cfg::data_regions`].
    DataEnter(usize),
    /// Exit of a structured `data` region.
    DataExit(usize),
    /// An executable `update` directive.
    Update(UpdateSpec),
}

/// A compute region discovered during CFG construction.
#[derive(Debug, Clone)]
pub struct ComputeRegion {
    /// The annotated statement.
    pub stmt: NodeId,
    /// Parsed directive.
    pub spec: ComputeSpec,
    /// CFG node index of the kernel node.
    pub node: usize,
}

/// A structured data region discovered during CFG construction.
#[derive(Debug, Clone)]
pub struct DataRegion {
    /// The annotated block statement.
    pub stmt: NodeId,
    /// Parsed directive.
    pub spec: DataSpec,
    /// Node at region entry.
    pub enter_node: usize,
    /// Node at region exit.
    pub exit_node: usize,
}

/// One node of the CFG.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// Originating statement, if any.
    pub stmt: Option<NodeId>,
    /// Node kind.
    pub kind: NodeKind,
    /// Host-side accesses.
    pub host: AccessSummary,
    /// Device-side accesses.
    pub gpu: AccessSummary,
    /// Nesting depth of enclosing loops (0 = top level of the function).
    pub loop_depth: u32,
}

impl CfgNode {
    /// The access summary for `side`.
    pub fn summary(&self, side: Side) -> &AccessSummary {
        match side {
            Side::Host => &self.host,
            Side::Gpu => &self.gpu,
        }
    }

    /// True for kernel-launch nodes.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, NodeKind::Kernel(_))
    }
}

/// Control-flow graph of one function.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Nodes; index 0 is entry.
    pub nodes: Vec<CfgNode>,
    /// Successor lists.
    pub succ: Vec<Vec<usize>>,
    /// Predecessor lists.
    pub pred: Vec<Vec<usize>>,
    /// Entry node index.
    pub entry: usize,
    /// Exit node index.
    pub exit: usize,
    /// Compute regions in discovery order.
    pub regions: Vec<ComputeRegion>,
    /// Structured data regions in discovery order.
    pub data_regions: Vec<DataRegion>,
    /// Statement id → CFG node that *starts* it.
    pub stmt_node: HashMap<NodeId, usize>,
}

impl Cfg {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the CFG is trivially empty (never for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Build the CFG of `func` (untyped: pointer rebindings count as data
    /// writes — fine for tests and structural queries).
    pub fn build(func: &Func) -> Result<Cfg, Diagnostic> {
        Cfg::build_inner(func, &|_| false)
    }

    /// Build the CFG with type information: assignments *to* pointer
    /// variables are rebindings (they kill the old binding, they do not
    /// write data), and reading a pointer's value is not a data read.
    /// Element accesses through the pointer remain data accesses.
    pub fn build_typed(func: &Func, sema: &openarc_minic::Sema) -> Result<Cfg, Diagnostic> {
        let fname = func.name.clone();
        let is_ptr =
            move |n: &str| matches!(sema.var_ty(&fname, n), Some(openarc_minic::Ty::Ptr(_)));
        Cfg::build_inner(func, &is_ptr)
    }

    fn build_inner(func: &Func, is_ptr: &dyn Fn(&str) -> bool) -> Result<Cfg, Diagnostic> {
        let mut b = Builder {
            is_ptr,
            ..Builder::new(is_ptr)
        };
        let entry = b.add(CfgNode {
            stmt: None,
            kind: NodeKind::Entry,
            host: AccessSummary::default(),
            gpu: AccessSummary::default(),
            loop_depth: 0,
        });
        let exit = b.add(CfgNode {
            stmt: None,
            kind: NodeKind::Exit,
            host: AccessSummary::default(),
            gpu: AccessSummary::default(),
            loop_depth: 0,
        });
        b.exit = exit;
        let last = b.lower_block(&func.body, entry)?;
        b.edge(last, exit);
        let mut cfg = Cfg {
            nodes: b.nodes,
            succ: b.succ,
            pred: Vec::new(),
            entry,
            exit,
            regions: b.regions,
            data_regions: b.data_regions,
            stmt_node: b.stmt_node,
        };
        cfg.pred = vec![Vec::new(); cfg.nodes.len()];
        for (n, ss) in cfg.succ.iter().enumerate() {
            for &s in ss {
                cfg.pred[s].push(n);
            }
        }
        Ok(cfg)
    }

    /// Node indices of all kernel nodes.
    pub fn kernel_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_kernel())
            .map(|(i, _)| i)
            .collect()
    }
}

struct Builder<'a> {
    nodes: Vec<CfgNode>,
    succ: Vec<Vec<usize>>,
    exit: usize,
    regions: Vec<ComputeRegion>,
    data_regions: Vec<DataRegion>,
    stmt_node: HashMap<NodeId, usize>,
    loop_stack: Vec<(usize, Vec<usize>)>, // (continue target, break sources)
    loop_depth: u32,
    is_ptr: &'a dyn Fn(&str) -> bool,
}

impl<'a> Builder<'a> {
    fn new(is_ptr: &'a dyn Fn(&str) -> bool) -> Builder<'a> {
        Builder {
            nodes: Vec::new(),
            succ: Vec::new(),
            exit: 0,
            regions: Vec::new(),
            data_regions: Vec::new(),
            stmt_node: HashMap::new(),
            loop_stack: Vec::new(),
            loop_depth: 0,
            is_ptr,
        }
    }
}

impl Builder<'_> {
    fn add(&mut self, node: CfgNode) -> usize {
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.nodes.len() - 1
    }

    fn plain(&mut self, stmt: Option<NodeId>, kind: NodeKind, host: AccessSummary) -> usize {
        self.add(CfgNode {
            stmt,
            kind,
            host,
            gpu: AccessSummary::default(),
            loop_depth: self.loop_depth,
        })
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succ[from].contains(&to) {
            self.succ[from].push(to);
        }
    }

    fn lower_block(&mut self, b: &Block, mut cur: usize) -> Result<usize, Diagnostic> {
        for s in &b.stmts {
            cur = self.lower_stmt(s, cur)?;
        }
        Ok(cur)
    }

    /// Lower one statement; returns the node control flows out of.
    fn lower_stmt(&mut self, s: &Stmt, cur: usize) -> Result<usize, Diagnostic> {
        let dirs = directives_of(s)?;
        // Compute construct → a single kernel node.
        if let Some((Directive::Compute(spec), _)) = dirs
            .iter()
            .find(|(d, _)| matches!(d, Directive::Compute(_)))
        {
            let mut gpu = AccessSummary::default();
            summarize_region(s, &mut gpu, self.is_ptr);
            // Launch-time host reads: loop bounds and scalar kernel inputs
            // are read on the host when marshalling arguments.
            let host = AccessSummary {
                reads: gpu.reads.clone(),
                ..Default::default()
            };
            let node = self.add(CfgNode {
                stmt: Some(s.id),
                kind: NodeKind::Kernel(self.regions.len()),
                host,
                gpu,
                loop_depth: self.loop_depth,
            });
            self.regions.push(ComputeRegion {
                stmt: s.id,
                spec: spec.clone(),
                node,
            });
            self.stmt_node.insert(s.id, node);
            self.edge(cur, node);
            return Ok(node);
        }
        // Structured data region → enter node, body, exit node.
        if let Some((Directive::Data(spec), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Data(_)))
        {
            let region_idx = self.data_regions.len();
            let enter = self.plain(
                Some(s.id),
                NodeKind::DataEnter(region_idx),
                AccessSummary::default(),
            );
            self.stmt_node.insert(s.id, enter);
            self.edge(cur, enter);
            // Reserve the slot before lowering the body so nested regions
            // keep discovery order.
            self.data_regions.push(DataRegion {
                stmt: s.id,
                spec: spec.clone(),
                enter_node: enter,
                exit_node: usize::MAX,
            });
            let body_end = match &s.kind {
                StmtKind::Block(b) => self.lower_block(b, enter)?,
                _ => self.lower_plain(s, enter)?,
            };
            let exit = self.plain(
                Some(s.id),
                NodeKind::DataExit(region_idx),
                AccessSummary::default(),
            );
            self.edge(body_end, exit);
            self.data_regions[region_idx].exit_node = exit;
            return Ok(exit);
        }
        // Executable update directive (standalone empty-block statement).
        if let Some((Directive::Update(u), _)) =
            dirs.iter().find(|(d, _)| matches!(d, Directive::Update(_)))
        {
            let mut host = AccessSummary::default();
            // update host(v): writes v on the host (totally) from the device
            // copy; update device(v): reads the host copy.
            for v in &u.host {
                host.writes.insert(v.clone());
                host.total_writes.insert(v.clone());
            }
            for v in &u.device {
                host.reads.insert(v.clone());
            }
            let mut gpu = AccessSummary::default();
            for v in &u.host {
                gpu.reads.insert(v.clone());
            }
            for v in &u.device {
                gpu.writes.insert(v.clone());
                gpu.total_writes.insert(v.clone());
            }
            let node = self.add(CfgNode {
                stmt: Some(s.id),
                kind: NodeKind::Update(u.clone()),
                host,
                gpu,
                loop_depth: self.loop_depth,
            });
            self.stmt_node.insert(s.id, node);
            self.edge(cur, node);
            return Ok(node);
        }
        self.lower_plain(s, cur)
    }

    /// Lower a statement with no region-forming directive.
    fn lower_plain(&mut self, s: &Stmt, cur: usize) -> Result<usize, Diagnostic> {
        match &s.kind {
            StmtKind::Decl(_) | StmtKind::Expr(_) | StmtKind::Assign { .. } => {
                let mut host = AccessSummary::default();
                stmt_accesses(s, &mut host, self.is_ptr);
                let node = self.plain(Some(s.id), NodeKind::Plain, host);
                self.stmt_node.insert(s.id, node);
                self.edge(cur, node);
                Ok(node)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut host = AccessSummary::default();
                expr_reads_typed(cond, &mut host.reads, self.is_ptr);
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur, cnode);
                let then_end = self.lower_block(then_blk, cnode)?;
                let join = self.plain(None, NodeKind::Nop, AccessSummary::default());
                self.edge(then_end, join);
                match else_blk {
                    Some(e) => {
                        let else_end = self.lower_block(e, cnode)?;
                        self.edge(else_end, join);
                    }
                    None => self.edge(cnode, join),
                }
                Ok(join)
            }
            StmtKind::While { cond, body } => {
                let mut host = AccessSummary::default();
                expr_reads_typed(cond, &mut host.reads, self.is_ptr);
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur, cnode);
                self.loop_stack.push((cnode, Vec::new()));
                self.loop_depth += 1;
                let body_end = self.lower_block(body, cnode)?;
                self.loop_depth -= 1;
                self.edge(body_end, cnode);
                let (_, breaks) = self.loop_stack.pop().expect("loop stack");
                let after = self.plain(None, NodeKind::Nop, AccessSummary::default());
                self.edge(cnode, after);
                for b in breaks {
                    self.edge(b, after);
                }
                Ok(after)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur2 = cur;
                if let Some(i) = init {
                    cur2 = self.lower_stmt(i, cur2)?;
                }
                let mut host = AccessSummary::default();
                if let Some(c) = cond {
                    expr_reads_typed(c, &mut host.reads, self.is_ptr);
                }
                let cnode = self.plain(Some(s.id), NodeKind::Branch, host);
                self.stmt_node.insert(s.id, cnode);
                self.edge(cur2, cnode);
                // continue → step node; build step placeholder after body.
                let step_node = self.plain(None, NodeKind::Nop, AccessSummary::default());
                self.loop_stack.push((step_node, Vec::new()));
                self.loop_depth += 1;
                let body_end = self.lower_block(body, cnode)?;
                self.loop_depth -= 1;
                self.edge(body_end, step_node);
                let after_step = if let Some(st) = step {
                    self.lower_stmt(st, step_node)?
                } else {
                    step_node
                };
                self.edge(after_step, cnode);
                let (_, breaks) = self.loop_stack.pop().expect("loop stack");
                let after = self.plain(None, NodeKind::Nop, AccessSummary::default());
                self.edge(cnode, after);
                for b in breaks {
                    self.edge(b, after);
                }
                Ok(after)
            }
            StmtKind::Block(b) => {
                if b.stmts.is_empty() {
                    // Empty statement (or standalone wait pragma).
                    let node = self.plain(Some(s.id), NodeKind::Nop, AccessSummary::default());
                    self.stmt_node.insert(s.id, node);
                    self.edge(cur, node);
                    Ok(node)
                } else {
                    self.lower_block(b, cur)
                }
            }
            StmtKind::Return(e) => {
                let mut host = AccessSummary::default();
                if let Some(e) = e {
                    expr_reads_typed(e, &mut host.reads, self.is_ptr);
                }
                let node = self.plain(Some(s.id), NodeKind::Plain, host);
                self.stmt_node.insert(s.id, node);
                self.edge(cur, node);
                self.edge(node, self.exit);
                // Unreachable continuation node.
                let dead = self.plain(None, NodeKind::Nop, AccessSummary::default());
                Ok(dead)
            }
            StmtKind::Break => {
                let node = self.plain(Some(s.id), NodeKind::Nop, AccessSummary::default());
                self.edge(cur, node);
                if let Some((_, breaks)) = self.loop_stack.last_mut() {
                    breaks.push(node);
                }
                let dead = self.plain(None, NodeKind::Nop, AccessSummary::default());
                Ok(dead)
            }
            StmtKind::Continue => {
                let node = self.plain(Some(s.id), NodeKind::Nop, AccessSummary::default());
                self.edge(cur, node);
                let target = self.loop_stack.last().map(|(t, _)| *t);
                if let Some(t) = target {
                    self.edge(node, t);
                }
                let dead = self.plain(None, NodeKind::Nop, AccessSummary::default());
                Ok(dead)
            }
        }
    }
}

/// Typed variant: reading a pointer's *value* (`q` in `p = q`) is not a
/// data read; element reads through it (`q[i]`) are.
fn expr_reads_typed(e: &Expr, out: &mut BTreeSet<String>, is_ptr: &dyn Fn(&str) -> bool) {
    e.walk(&mut |x| match &x.kind {
        ExprKind::Var(n) if !is_ptr(n) => {
            out.insert(n.clone());
        }
        ExprKind::Index { base, .. } => {
            out.insert(base.clone());
        }
        _ => {}
    });
}

/// Accesses of one simple statement (declaration, assignment, call).
fn stmt_accesses(s: &Stmt, sum: &mut AccessSummary, is_ptr: &dyn Fn(&str) -> bool) {
    match &s.kind {
        StmtKind::Decl(d) => {
            if let Some(init) = &d.init {
                expr_reads_typed(init, &mut sum.reads, is_ptr);
                if is_ptr(&d.name) {
                    // Pointer initialization is a rebinding, not a data
                    // write.
                    sum.kills.insert(d.name.clone());
                } else {
                    sum.writes.insert(d.name.clone());
                    sum.total_writes.insert(d.name.clone());
                }
                note_expr_effects(init, sum);
            }
        }
        StmtKind::Assign { target, op, value } => {
            expr_reads_typed(value, &mut sum.reads, is_ptr);
            note_expr_effects(value, sum);
            match target {
                LValue::Var(n) => {
                    if is_ptr(n) {
                        // `p = q` / `p = malloc(...)`: the old binding of p
                        // dies; no buffer data is written.
                        sum.kills.insert(n.clone());
                    } else {
                        if op.binop().is_some() {
                            sum.reads.insert(n.clone());
                        }
                        sum.writes.insert(n.clone());
                        sum.total_writes.insert(n.clone());
                    }
                }
                LValue::Index { base, indices } => {
                    for ix in indices {
                        expr_reads_typed(ix, &mut sum.reads, is_ptr);
                    }
                    if op.binop().is_some() {
                        sum.reads.insert(base.clone());
                    }
                    sum.writes.insert(base.clone());
                }
            }
        }
        StmtKind::Expr(e) => {
            expr_reads_typed(e, &mut sum.reads, is_ptr);
            note_expr_effects(e, sum);
        }
        _ => {}
    }
}

/// Side effects hidden in expressions: `free(p)` kills `p`; calls to user
/// functions conservatively read+partially-write their pointer arguments.
fn note_expr_effects(e: &Expr, sum: &mut AccessSummary) {
    e.walk(&mut |x| {
        if let ExprKind::Call { name, args } = &x.kind {
            if name == "free" {
                if let Some(Expr {
                    kind: ExprKind::Var(p),
                    ..
                }) = args.first()
                {
                    sum.kills.insert(p.clone());
                }
            } else if !openarc_minic::sema::is_intrinsic(name) {
                // User call: pointer arguments may be read and written.
                for a in args {
                    if let ExprKind::Var(n) = &a.kind {
                        sum.reads.insert(n.clone());
                        sum.writes.insert(n.clone());
                    }
                }
            }
        }
    });
}

/// Aggregate all accesses inside a compute region (the GPU side of a kernel
/// node).
fn summarize_region(s: &Stmt, sum: &mut AccessSummary, is_ptr: &dyn Fn(&str) -> bool) {
    walk_stmt(s, &mut |inner| {
        stmt_accesses(inner, sum, is_ptr);
        // Branch/loop conditions inside the region.
        match &inner.kind {
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                expr_reads_typed(cond, &mut sum.reads, is_ptr)
            }
            StmtKind::For { cond: Some(c), .. } => expr_reads_typed(c, &mut sum.reads, is_ptr),
            _ => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use openarc_minic::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).expect("parse");
        Cfg::build(p.func("main").unwrap()).expect("cfg")
    }

    #[test]
    fn straight_line_cfg() {
        let cfg = cfg_of("int a;\nint b;\nvoid main() { a = 1; b = a; }");
        // entry, exit, two plain nodes.
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.succ[cfg.entry].len(), 1);
        let n1 = cfg.succ[cfg.entry][0];
        assert!(cfg.nodes[n1].host.writes.contains("a"));
        let n2 = cfg.succ[n1][0];
        assert!(cfg.nodes[n2].host.reads.contains("a"));
        assert_eq!(cfg.succ[n2], vec![cfg.exit]);
    }

    #[test]
    fn if_else_diamond() {
        let cfg = cfg_of("int a;\nvoid main() { if (a > 0) { a = 1; } else { a = 2; } }");
        let cnode = cfg.succ[cfg.entry][0];
        assert!(matches!(cfg.nodes[cnode].kind, NodeKind::Branch));
        assert_eq!(cfg.succ[cnode].len(), 2);
        // Both branches reach the same join.
        let j1 = cfg.succ[cfg.succ[cnode][0]][0];
        let j2 = cfg.succ[cfg.succ[cnode][1]][0];
        assert_eq!(j1, j2);
    }

    #[test]
    fn loop_back_edge_exists() {
        let cfg = cfg_of("void main() { int i; for (i = 0; i < 3; i++) { i = i; } }");
        // Some node must have a back edge (successor with smaller index that
        // is a Branch node).
        let mut has_back = false;
        for (n, ss) in cfg.succ.iter().enumerate() {
            for &s in ss {
                if s < n && matches!(cfg.nodes[s].kind, NodeKind::Branch) {
                    has_back = true;
                }
            }
        }
        assert!(has_back);
    }

    #[test]
    fn kernel_node_collapses_region() {
        let cfg = cfg_of(
            "double q[10];\ndouble w[10];\nvoid main() {\n int j;\n #pragma acc kernels loop gang worker\n for (j = 0; j < 10; j++) { q[j] = w[j]; }\n}",
        );
        assert_eq!(cfg.regions.len(), 1);
        let k = &cfg.nodes[cfg.regions[0].node];
        assert!(k.is_kernel());
        assert!(k.gpu.writes.contains("q"));
        assert!(k.gpu.reads.contains("w"));
        // Region interior statements are not separate host nodes.
        assert!(cfg
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Plain))
            .all(|n| !n.host.writes.contains("q")));
    }

    #[test]
    fn data_region_has_enter_and_exit() {
        let cfg = cfg_of(
            "double a[4];\nvoid main() {\n #pragma acc data create(a)\n {\n  a[0] = 1.0;\n }\n}",
        );
        assert_eq!(cfg.data_regions.len(), 1);
        let dr = &cfg.data_regions[0];
        assert!(matches!(
            cfg.nodes[dr.enter_node].kind,
            NodeKind::DataEnter(0)
        ));
        assert!(matches!(
            cfg.nodes[dr.exit_node].kind,
            NodeKind::DataExit(0)
        ));
        assert_ne!(dr.exit_node, usize::MAX);
    }

    #[test]
    fn update_node_access_direction() {
        let cfg =
            cfg_of("double b[4];\nvoid main() {\n #pragma acc update host(b)\n b[0] = 1.0;\n}");
        let un = cfg
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Update(_)))
            .expect("update node");
        assert!(un.host.total_writes.contains("b"));
        assert!(un.gpu.reads.contains("b"));
    }

    #[test]
    fn free_kills_pointer() {
        let cfg = cfg_of("double *p;\nvoid main() { free(p); }");
        let n = cfg.succ[cfg.entry][0];
        assert!(cfg.nodes[n].host.kills.contains("p"));
    }

    #[test]
    fn partial_vs_total_writes() {
        let cfg =
            cfg_of("double a[4];\ndouble *p;\ndouble *q2;\nvoid main() { a[0] = 1.0; p = q2; }");
        let n1 = cfg.succ[cfg.entry][0];
        assert!(cfg.nodes[n1].host.writes.contains("a"));
        assert!(!cfg.nodes[n1].host.total_writes.contains("a"));
        let n2 = cfg.succ[n1][0];
        assert!(cfg.nodes[n2].host.total_writes.contains("p"));
    }

    #[test]
    fn break_edges_leave_loop() {
        let cfg = cfg_of(
            "int n;\nvoid main() { int i; for (i = 0; i < 9; i++) { if (n == 1) { break; } n = n + 1; } n = 99; }",
        );
        // The final assignment must be reachable from entry.
        let mut reach = vec![false; cfg.len()];
        let mut stack = vec![cfg.entry];
        while let Some(n) = stack.pop() {
            if reach[n] {
                continue;
            }
            reach[n] = true;
            for &s in &cfg.succ[n] {
                stack.push(s);
            }
        }
        assert!(reach[cfg.exit]);
        let wrote99: Vec<usize> = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.host.writes.contains("n") && matches!(n.kind, NodeKind::Plain))
            .map(|(i, _)| i)
            .collect();
        assert!(wrote99.iter().all(|&i| reach[i]));
    }

    #[test]
    fn loop_depth_recorded() {
        let cfg = cfg_of(
            "int a;\nvoid main() { int i; int j; a = 0; for (i=0;i<2;i++) { for (j=0;j<2;j++) { a = 1; } } }",
        );
        let depths: Vec<u32> = cfg
            .nodes
            .iter()
            .filter(|n| n.host.writes.contains("a"))
            .map(|n| n.loop_depth)
            .collect();
        assert!(depths.contains(&0));
        assert!(depths.contains(&2));
    }

    #[test]
    fn kernel_inside_loop_detected() {
        let cfg = cfg_of(
            "double q[8];\ndouble w[8];\nvoid main() {\n int k; int j;\n for (k = 0; k < 4; k++) {\n  #pragma acc kernels loop gang\n  for (j = 0; j < 8; j++) { q[j] = w[j]; }\n }\n}",
        );
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(cfg.nodes[cfg.regions[0].node].loop_depth, 1);
    }
}
