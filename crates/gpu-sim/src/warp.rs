//! Lockstep warp execution with SIMT divergence and reconvergence.
//!
//! A warp executes the kernel's structured control-flow tree with an
//! explicit frame stack and a 32-bit activity mask:
//!
//! * `If` pushes the not-taken region (with the false-lane mask) and the
//!   taken region (with the true-lane mask); after both frames pop, the
//!   parent continues with the full mask — exact reconvergence at the
//!   immediate post-dominator.
//! * `While` keeps a shrinking activity mask: once a lane fails the loop
//!   condition it leaves the loop permanently and waits at the
//!   reconvergence point, while the warp keeps iterating until every lane
//!   has left (SIMT loop divergence).
//! * Predicated (guarded) instructions execute only in guard-passing lanes
//!   but never alter warp control flow, so they are invisible to the
//!   basic-block trace — CUDA's predicated execution.
//!
//! The explicit stack lets a warp *pause* at a block-wide barrier and be
//! resumed by the engine once all warps of the CTA arrive.

use crate::cancel::CancelToken;
use crate::error::ExecError;
use crate::exec::CANCEL_CHECK_STRIDE;
use crate::grid::{Dim3, MAX_WARP_SIZE};
use crate::hook::{AccessKind, KernelHook, MemEventBatch, WarpRef};
use crate::isa::{AtomicOp, BinOp, CmpOp, MemSpace, Pred, ShflMode, UnOp};
use crate::lowered::{LInst, LOp, LOperand, LoweredProgram, NO_GUARD};
use crate::mem::{DeviceMemory, LinearMemory};
use crate::program::{BlockId, KernelProgram, Region, Stmt};
use owl_metrics::SimCounters;

/// An activity mask wide enough for any supported warp (up to 64 lanes).
pub type Mask = u64;

/// Execution resources shared by the warps of one launch, threaded through
/// the interpreter by the engine.
pub(crate) struct ExecEnv<'a> {
    /// Device global + constant memory.
    pub mem: &'a mut DeviceMemory,
    /// The CTA's shared-memory bank.
    pub shared: &'a mut LinearMemory,
    /// Instrumentation sink.
    pub hook: &'a mut dyn KernelHook,
    /// Per-block memory-event batch, reused across blocks and warps and
    /// flushed to the hook at every block exit.
    pub batch: &'a mut MemEventBatch,
    /// Remaining instruction budget for the whole launch.
    pub fuel: &'a mut u64,
    /// Cooperative cancellation handle, polled at block entry.
    pub cancel: Option<&'a CancelToken>,
    /// Block entries until the next cancellation poll (shared across the
    /// launch so the stride holds globally, not per warp).
    pub cancel_countdown: &'a mut u32,
    /// Kernel arguments.
    pub args: &'a [u64],
    /// Execution counters for launch statistics (instructions, branches,
    /// divergence, memory transactions, …).
    pub counters: &'a mut SimCounters,
}

/// Where a warp stopped when control returned to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpStatus {
    /// The warp reached a `Sync` and waits for the rest of its CTA.
    AtBarrier,
    /// The warp ran its whole body.
    Done,
}

enum FrameKind<'p> {
    /// Sequential statements of a region.
    Seq { items: &'p [Stmt], idx: usize },
    /// A `While` loop with its shrinking activity mask.
    Loop {
        cond_block: BlockId,
        pred: Pred,
        body: &'p Region,
        active: Mask,
        /// Some iteration shed a strict, non-empty subset of lanes — the
        /// loop has diverged and its eventual drain is a reconvergence.
        diverged: bool,
    },
}

struct Frame<'p> {
    kind: FrameKind<'p>,
    mask: Mask,
    /// Popping this frame rejoins a diverged warp (it is the last-finishing
    /// side of a divergent `If`), so the pop counts as a reconvergence.
    rejoin: bool,
}

/// What the interpreter loop decided to do next; extracted from the frame
/// stack so no borrow is held across execution.
enum Action<'p> {
    /// The top frame is exhausted.
    Pop,
    /// Execute one statement under the given mask.
    Stmt(&'p Stmt, Mask),
    /// Run one loop iteration: condition block, then possibly the body.
    LoopIter {
        cond_block: BlockId,
        pred: Pred,
        body: &'p Region,
        active: Mask,
    },
}

/// Per-lane coordinates, fixed at warp creation.
#[derive(Debug, Clone, Copy, Default)]
struct LaneInfo {
    tid: (u32, u32, u32),
    valid: bool,
}

/// One warp's execution state.
pub(crate) struct WarpExec<'p> {
    /// Pre-decoded instruction tables, built once per launch.
    lowered: &'p LoweredProgram,
    /// `num_regs`/`num_preds` as `usize`, cached for register-file
    /// indexing in the per-lane loops.
    nregs: usize,
    npreds: usize,
    warp_ref: WarpRef,
    frames: Vec<Frame<'p>>,
    /// Initial activity mask (lanes that map to real threads).
    init_mask: Mask,
    warp_size: u32,
    regs: Vec<u64>,
    preds: Vec<bool>,
    lanes: Vec<LaneInfo>,
    /// Per-lane private (local) memory, allocated only when the kernel
    /// declares local bytes.
    local: Vec<LinearMemory>,
    ctaid: (u32, u32, u32),
    grid: Dim3,
    block: Dim3,
    cta_linear: u32,
    warp_in_block: u32,
    done: bool,
}

impl<'p> WarpExec<'p> {
    /// Creates the warp covering threads `[warp_in_block*32, ...+31]` of the
    /// given CTA. Lanes beyond the block size start inactive.
    pub fn new(
        program: &'p KernelProgram,
        lowered: &'p LoweredProgram,
        grid: Dim3,
        block: Dim3,
        cta_linear: u32,
        warp_in_block: u32,
        warp_size: u32,
    ) -> Self {
        debug_assert!((1..=MAX_WARP_SIZE).contains(&warp_size));
        let block_threads = block.total();
        let mut lanes = vec![LaneInfo::default(); warp_size as usize];
        let mut init_mask: Mask = 0;
        for lane in 0..warp_size {
            let tid_linear = u64::from(warp_in_block) * u64::from(warp_size) + u64::from(lane);
            if tid_linear < block_threads {
                lanes[lane as usize] = LaneInfo {
                    tid: block.unlinearize(tid_linear),
                    valid: true,
                };
                init_mask |= 1 << lane;
            }
        }
        let n_lanes = warp_size as usize;
        let local = if program.local_mem_bytes > 0 {
            (0..n_lanes)
                .map(|_| LinearMemory::new(program.local_mem_bytes as usize))
                .collect()
        } else {
            Vec::new()
        };
        let mut frames = Vec::with_capacity(8);
        frames.push(Frame {
            kind: FrameKind::Seq {
                items: &program.body.0,
                idx: 0,
            },
            mask: init_mask,
            rejoin: false,
        });
        WarpExec {
            lowered,
            nregs: usize::from(program.num_regs),
            npreds: usize::from(program.num_preds),
            warp_ref: WarpRef {
                cta: cta_linear,
                warp: warp_in_block,
            },
            frames,
            init_mask,
            warp_size,
            regs: vec![0; usize::from(program.num_regs) * n_lanes],
            preds: vec![false; usize::from(program.num_preds) * n_lanes],
            lanes,
            local,
            ctaid: grid.unlinearize(u64::from(cta_linear)),
            grid,
            block,
            cta_linear,
            warp_in_block,
            done: false,
        }
    }

    /// `true` when the warp has no active lanes at all (a fully padded
    /// warp); such warps are never launched by hardware.
    pub fn is_empty(&self) -> bool {
        self.init_mask == 0
    }

    /// `true` once the warp has finished its body.
    pub fn is_done(&self) -> bool {
        self.done
    }

    #[inline]
    fn reg(&self, lane: usize, r: u16) -> u64 {
        self.regs[lane * self.nregs + usize::from(r)]
    }

    #[inline]
    fn set_reg(&mut self, lane: usize, r: u16, v: u64) {
        self.regs[lane * self.nregs + usize::from(r)] = v;
    }

    #[inline]
    fn pred(&self, lane: usize, p: u16) -> bool {
        self.preds[lane * self.npreds + usize::from(p)]
    }

    #[inline]
    fn set_pred(&mut self, lane: usize, p: u16, v: bool) {
        self.preds[lane * self.npreds + usize::from(p)] = v;
    }

    #[inline]
    fn eval(&self, lane: usize, op: LOperand) -> u64 {
        match op {
            LOperand::Reg(r) => self.reg(lane, r),
            LOperand::Imm(v) => v,
        }
    }

    /// The lanes set in `mask`, in increasing lane order.
    #[inline]
    fn lanes(&self, mask: Mask) -> Lanes {
        debug_assert!(
            self.warp_size == Mask::BITS || mask >> self.warp_size == 0,
            "mask {mask:#x} has lanes beyond warp size {}",
            self.warp_size
        );
        Lanes(mask)
    }

    /// Mask of lanes (within `mask`) where predicate `p` is true.
    fn pred_mask(&self, mask: Mask, p: u16) -> Mask {
        let mut out = 0;
        for lane in self.lanes(mask) {
            if self.pred(lane, p) {
                out |= 1 << lane;
            }
        }
        out
    }

    /// Runs until the next barrier or completion.
    pub fn run(&mut self, env: &mut ExecEnv<'_>) -> Result<WarpStatus, ExecError> {
        debug_assert!(!self.done, "running a finished warp");
        loop {
            // Extract what to do next from the top frame without holding the
            // borrow across execution.
            let action = match self.frames.last_mut() {
                None => {
                    self.done = true;
                    return Ok(WarpStatus::Done);
                }
                Some(frame) => {
                    let mask = frame.mask;
                    match &mut frame.kind {
                        FrameKind::Seq { items, idx } => {
                            // Copy the `&'p` slice out of the frame so the
                            // statement reference outlives the frame borrow.
                            let items: &'p [Stmt] = items;
                            if *idx >= items.len() {
                                Action::Pop
                            } else {
                                let stmt = &items[*idx];
                                *idx += 1;
                                Action::Stmt(stmt, mask)
                            }
                        }
                        FrameKind::Loop {
                            cond_block,
                            pred,
                            body,
                            active,
                            ..
                        } => {
                            if *active == 0 {
                                Action::Pop
                            } else {
                                Action::LoopIter {
                                    cond_block: *cond_block,
                                    pred: *pred,
                                    body,
                                    active: *active,
                                }
                            }
                        }
                    }
                }
            };
            match action {
                Action::Pop => {
                    self.pop_frame(env.counters);
                }
                Action::Stmt(stmt, mask) => match stmt {
                    Stmt::Block(id) => self.exec_block(*id, mask, env)?,
                    Stmt::If {
                        pred,
                        then_region,
                        else_region,
                    } => {
                        env.counters.branches += 1;
                        let m_then = self.pred_mask(mask, pred.0);
                        let m_else = mask & !m_then;
                        // A divergence event: the branch splits the active
                        // mask into two non-empty paths. The frame that pops
                        // *last* carries the matching reconvergence.
                        let diverged = m_then != 0 && m_else != 0;
                        if diverged {
                            env.counters.divergence_events += 1;
                        }
                        let push_else = m_else != 0 && !else_region.is_empty();
                        let push_then = m_then != 0 && !then_region.is_empty();
                        // Push else first so the taken path runs first; both
                        // paths complete before the parent frame resumes —
                        // reconvergence at the immediate post-dominator.
                        if push_else {
                            self.frames.push(Frame {
                                kind: FrameKind::Seq {
                                    items: &else_region.0,
                                    idx: 0,
                                },
                                mask: m_else,
                                // The else frame is below the then frame, so
                                // it pops last and hosts the reconvergence.
                                rejoin: diverged,
                            });
                        }
                        if push_then {
                            self.frames.push(Frame {
                                kind: FrameKind::Seq {
                                    items: &then_region.0,
                                    idx: 0,
                                },
                                mask: m_then,
                                rejoin: diverged && !push_else,
                            });
                        }
                        if diverged && !push_else && !push_then {
                            // Both regions empty: the warp rejoins right
                            // here at the post-dominator.
                            env.counters.reconvergences += 1;
                        }
                    }
                    Stmt::While {
                        cond_block,
                        pred,
                        body,
                    } => {
                        self.frames.push(Frame {
                            kind: FrameKind::Loop {
                                cond_block: *cond_block,
                                pred: *pred,
                                body,
                                active: mask,
                                diverged: false,
                            },
                            mask,
                            rejoin: false,
                        });
                    }
                    Stmt::Sync => {
                        // Validation restricts Sync to the top level, so the
                        // mask here is the warp's full initial mask; anything
                        // else is divergence.
                        if mask != self.init_mask {
                            return Err(ExecError::BarrierDivergence {
                                warp: self.warp_ref,
                            });
                        }
                        return Ok(WarpStatus::AtBarrier);
                    }
                },
                Action::LoopIter {
                    cond_block,
                    pred,
                    body,
                    active,
                } => {
                    self.exec_block(cond_block, active, env)?;
                    env.counters.branches += 1;
                    let still = self.pred_mask(active, pred.0);
                    let Some(Frame {
                        kind:
                            FrameKind::Loop {
                                active: a,
                                diverged,
                                ..
                            },
                        ..
                    }) = self.frames.last_mut()
                    else {
                        unreachable!("loop frame cannot disappear during its own condition");
                    };
                    *a = still;
                    if still != 0 && still != active {
                        // Some active lanes exited while others continue —
                        // SIMT loop divergence.
                        *diverged = true;
                        env.counters.divergence_events += 1;
                    }
                    if still == 0 {
                        self.pop_frame(env.counters);
                    } else {
                        self.frames.push(Frame {
                            kind: FrameKind::Seq {
                                items: &body.0,
                                idx: 0,
                            },
                            mask: still,
                            rejoin: false,
                        });
                    }
                }
            }
        }
    }

    /// Pops the top frame, counting the reconvergence it may represent: a
    /// diverged `If` rejoins when its last-finishing side pops, a diverged
    /// loop rejoins when it drains.
    fn pop_frame(&mut self, counters: &mut SimCounters) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        let loop_rejoin = matches!(frame.kind, FrameKind::Loop { diverged: true, .. });
        if frame.rejoin || loop_rejoin {
            counters.reconvergences += 1;
        }
    }

    /// Delivers the block's buffered memory events to the hook in one
    /// virtual call. Must run before control leaves the block — on
    /// success *and* on error — so hooks observe the same event stream
    /// the per-instruction callbacks produced.
    fn flush_batch(&self, env: &mut ExecEnv<'_>) {
        if !env.batch.is_empty() {
            env.hook.mem_batch(self.warp_ref, env.batch, env.mem);
            env.batch.clear();
        }
    }

    fn exec_block(
        &mut self,
        id: BlockId,
        mask: Mask,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), ExecError> {
        debug_assert_ne!(mask, 0, "executing a block with no active lanes");
        // Cancellation poll, strided so armed deadlines read the clock at
        // most once every `CANCEL_CHECK_STRIDE` block entries. Checked
        // before `bb_entry` so an abandoned launch emits no partial block.
        if let Some(token) = env.cancel {
            if *env.cancel_countdown == 0 {
                if token.is_cancelled() {
                    return Err(ExecError::Cancelled);
                }
                *env.cancel_countdown = CANCEL_CHECK_STRIDE;
            }
            *env.cancel_countdown -= 1;
        }
        env.hook.bb_entry(self.warp_ref, id);
        let block = &self.lowered.blocks[id.0 as usize];
        let n = block.insts.len() as u64;
        let result = if *env.fuel >= n {
            // Fast path: charge fuel and the instruction counter for the
            // whole block up front, keeping the per-instruction loop free
            // of budget branches. A mid-block execution error refunds the
            // instructions that never ran, so totals match per-step
            // accounting exactly.
            *env.fuel -= n;
            env.counters.instructions += n;
            let mut result = Ok(());
            for (inst_idx, inst) in block.insts.iter().enumerate() {
                if let Err(e) = self.exec_inst(id, inst_idx as u32, inst, mask, env) {
                    let unexecuted = n - (inst_idx as u64 + 1);
                    *env.fuel += unexecuted;
                    env.counters.instructions -= unexecuted;
                    result = Err(e);
                    break;
                }
            }
            result
        } else {
            // Slow path (budget nearly exhausted): per-instruction fuel
            // accounting preserves the exact legacy exhaustion point.
            let mut result = Ok(());
            for (inst_idx, inst) in block.insts.iter().enumerate() {
                if *env.fuel == 0 {
                    result = Err(ExecError::FuelExhausted);
                    break;
                }
                *env.fuel -= 1;
                env.counters.instructions += 1;
                if let Err(e) = self.exec_inst(id, inst_idx as u32, inst, mask, env) {
                    result = Err(e);
                    break;
                }
            }
            result
        };
        self.flush_batch(env);
        result
    }

    fn guard_mask(&self, mask: Mask, inst: &LInst) -> Mask {
        if inst.guard_pred == NO_GUARD {
            return mask;
        }
        let p = self.pred_mask(mask, inst.guard_pred);
        if inst.guard_expected {
            p
        } else {
            mask & !p
        }
    }

    fn exec_inst(
        &mut self,
        bb: BlockId,
        inst_idx: u32,
        inst: &LInst,
        mask: Mask,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), ExecError> {
        let active = self.guard_mask(mask, inst);
        if active == 0 {
            return Ok(());
        }
        let lanes = self.lanes(active);
        match inst.op {
            LOp::Mov { dst, src } => {
                for lane in lanes {
                    let v = self.eval(lane, src);
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Bin { op, dst, a, b } => {
                for lane in lanes {
                    let (x, y) = (self.eval(lane, a), self.eval(lane, b));
                    let v = eval_bin(op, x, y).ok_or(ExecError::DivisionByZero {
                        bb,
                        inst_idx,
                        warp: self.warp_ref,
                    })?;
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Un { op, dst, a } => {
                for lane in lanes {
                    let x = self.eval(lane, a);
                    self.set_reg(lane, dst, eval_un(op, x));
                }
            }
            LOp::SetP { pred, op, a, b } => {
                for lane in lanes {
                    let (x, y) = (self.eval(lane, a), self.eval(lane, b));
                    self.set_pred(lane, pred, eval_cmp(op, x, y));
                }
            }
            LOp::Sel { dst, pred, a, b } => {
                for lane in lanes {
                    let v = if self.pred(lane, pred) {
                        self.eval(lane, a)
                    } else {
                        self.eval(lane, b)
                    };
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Ld {
                dst,
                space,
                addr,
                width,
            } => {
                env.batch.begin_event(bb, inst_idx, space, AccessKind::Read);
                for lane in lanes {
                    let a = self.eval(lane, addr);
                    env.batch.push_addr(lane as u8, a);
                    match self.load(space, lane, a, width, env) {
                        Ok(v) => self.set_reg(lane, dst, v),
                        Err(source) => {
                            env.batch.abort_event();
                            return Err(ExecError::Memory {
                                bb,
                                inst_idx,
                                warp: self.warp_ref,
                                space,
                                source,
                            });
                        }
                    }
                }
                env.batch.finish_event(env.counters);
            }
            LOp::St {
                space,
                addr,
                value,
                width,
            } => {
                env.batch
                    .begin_event(bb, inst_idx, space, AccessKind::Write);
                for lane in lanes {
                    let a = self.eval(lane, addr);
                    let v = self.eval(lane, value);
                    env.batch.push_addr(lane as u8, a);
                    if let Err(source) = self.store(space, lane, a, width, v, env) {
                        env.batch.abort_event();
                        return Err(ExecError::Memory {
                            bb,
                            inst_idx,
                            warp: self.warp_ref,
                            space,
                            source,
                        });
                    }
                }
                env.batch.finish_event(env.counters);
            }
            LOp::LdParam { dst, index } => {
                let v = *env
                    .args
                    .get(usize::from(index))
                    .ok_or(ExecError::ParamOutOfRange {
                        index,
                        provided: env.args.len(),
                    })?;
                for lane in lanes {
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Special { dst, sr } => {
                for lane in lanes {
                    let v = self.special(lane, sr);
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Atomic {
                op,
                dst,
                space,
                addr,
                value,
                width,
                value_mask,
            } => {
                env.batch
                    .begin_event(bb, inst_idx, space, AccessKind::Atomic);
                // Lanes serialise in lane order — a deterministic pick of
                // the order hardware serialises atomics in.
                for lane in lanes {
                    let a = self.eval(lane, addr);
                    let v = self.eval(lane, value);
                    env.batch.push_addr(lane as u8, a);
                    let old = match self.load(space, lane, a, width, env) {
                        Ok(old) => old,
                        Err(source) => {
                            env.batch.abort_event();
                            return Err(ExecError::Memory {
                                bb,
                                inst_idx,
                                warp: self.warp_ref,
                                space,
                                source,
                            });
                        }
                    };
                    let new = match op {
                        AtomicOp::Add => old.wrapping_add(v) & value_mask,
                        AtomicOp::MinU => old.min(v & value_mask),
                        AtomicOp::MaxU => old.max(v & value_mask),
                        AtomicOp::Exch => v & value_mask,
                    };
                    if let Err(source) = self.store(space, lane, a, width, new, env) {
                        env.batch.abort_event();
                        return Err(ExecError::Memory {
                            bb,
                            inst_idx,
                            warp: self.warp_ref,
                            space,
                            source,
                        });
                    }
                    self.set_reg(lane, dst, old);
                }
                env.batch.finish_event(env.counters);
            }
            LOp::Shfl {
                mode,
                dst,
                src,
                lane: lane_sel,
            } => {
                // Snapshot the source register across all lanes first:
                // every lane reads its peer's *pre-instruction* value.
                let ws = self.warp_size as usize;
                let mut snapshot = [0u64; MAX_WARP_SIZE as usize];
                for (l, v) in snapshot[..ws].iter_mut().enumerate() {
                    *v = self.reg(l, src);
                }
                for lane in lanes {
                    let sel = self.eval(lane, lane_sel) as usize;
                    let peer = match mode {
                        ShflMode::Xor => (lane ^ sel) % ws,
                        ShflMode::Idx => sel % ws,
                    };
                    // Inactive peer: keep own value (hardware leaves it
                    // undefined; a deterministic choice is required here).
                    let v = if active & (1 << peer) != 0 {
                        snapshot[peer]
                    } else {
                        snapshot[lane]
                    };
                    self.set_reg(lane, dst, v);
                }
            }
            LOp::Ballot { dst, pred } => {
                let mask = self.pred_mask(active, pred);
                for lane in lanes {
                    self.set_reg(lane, dst, mask);
                }
            }
            LOp::Tex { dst, slot, x, y } => {
                let texture = env
                    .mem
                    .texture(slot)
                    .ok_or(ExecError::UnboundTexture { slot })?;
                // `texture` borrows env.mem, disjoint from self and
                // env.batch; registers are per lane, so each lane reads its
                // coordinates and writes its texel in one pass.
                env.batch
                    .begin_event(bb, inst_idx, MemSpace::Texture, AccessKind::Read);
                for lane in lanes {
                    let (xi, yi) = (self.eval(lane, x) as i64, self.eval(lane, y) as i64);
                    let (texel, idx) = texture.fetch(xi, yi);
                    env.batch.push_addr(lane as u8, idx);
                    self.set_reg(lane, dst, u64::from(texel));
                }
                env.batch.finish_event(env.counters);
            }
        }
        Ok(())
    }

    fn load(
        &mut self,
        space: MemSpace,
        lane: usize,
        addr: u64,
        width: u64,
        env: &mut ExecEnv<'_>,
    ) -> Result<u64, crate::mem::AccessError> {
        match space {
            MemSpace::Global => env.mem.load(addr, width),
            MemSpace::Shared => env.shared.load(addr, width),
            MemSpace::Constant => env.mem.constant().load(addr, width),
            MemSpace::Local => self
                .local
                .get(lane)
                .ok_or(crate::mem::AccessError { addr, width })?
                .load(addr, width),
            // Validation rejects plain loads on the texture space.
            MemSpace::Texture => Err(crate::mem::AccessError { addr, width }),
        }
    }

    fn store(
        &mut self,
        space: MemSpace,
        lane: usize,
        addr: u64,
        width: u64,
        value: u64,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), crate::mem::AccessError> {
        match space {
            MemSpace::Global => env.mem.store(addr, width, value),
            MemSpace::Shared => env.shared.store(addr, width, value),
            MemSpace::Constant => Err(crate::mem::AccessError { addr, width }),
            MemSpace::Local => self
                .local
                .get_mut(lane)
                .ok_or(crate::mem::AccessError { addr, width })?
                .store(addr, width, value),
            // Validation rejects plain stores on the texture space.
            MemSpace::Texture => Err(crate::mem::AccessError { addr, width }),
        }
    }

    fn special(&self, lane: usize, sr: crate::isa::SpecialReg) -> u64 {
        use crate::isa::SpecialReg::*;
        let info = &self.lanes[lane];
        debug_assert!(info.valid, "special register read in an invalid lane");
        match sr {
            TidX => u64::from(info.tid.0),
            TidY => u64::from(info.tid.1),
            TidZ => u64::from(info.tid.2),
            CtaidX => u64::from(self.ctaid.0),
            CtaidY => u64::from(self.ctaid.1),
            CtaidZ => u64::from(self.ctaid.2),
            NTidX => u64::from(self.block.x),
            NTidY => u64::from(self.block.y),
            NTidZ => u64::from(self.block.z),
            NCtaidX => u64::from(self.grid.x),
            NCtaidY => u64::from(self.grid.y),
            NCtaidZ => u64::from(self.grid.z),
            LaneId => lane as u64,
            WarpId => u64::from(self.warp_in_block),
            GlobalTid => {
                let tid_linear = u64::from(info.tid.0)
                    + u64::from(info.tid.1) * u64::from(self.block.x)
                    + u64::from(info.tid.2) * u64::from(self.block.x) * u64::from(self.block.y);
                u64::from(self.cta_linear) * self.block.total() + tid_linear
            }
        }
    }
}

/// Iterator over the set bits of a lane mask, lowest lane first: the
/// interpreter visits only live lanes, in the order a filter over
/// `0..warp_size` would.
#[derive(Debug, Clone, Copy)]
struct Lanes(Mask);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn bits_of(v: f32) -> u64 {
    u64::from(v.to_bits())
}

/// Evaluates a binary ALU operation; `None` signals division by zero.
fn eval_bin(op: BinOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => a.checked_div(b)?,
        BinOp::RemU => a.checked_rem(b)?,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
        BinOp::MinU => a.min(b),
        BinOp::MaxU => a.max(b),
        BinOp::MinS => ((a as i64).min(b as i64)) as u64,
        BinOp::MaxS => ((a as i64).max(b as i64)) as u64,
        BinOp::FAdd => bits_of(f32_of(a) + f32_of(b)),
        BinOp::FSub => bits_of(f32_of(a) - f32_of(b)),
        BinOp::FMul => bits_of(f32_of(a) * f32_of(b)),
        BinOp::FDiv => bits_of(f32_of(a) / f32_of(b)),
        BinOp::FMin => bits_of(f32_of(a).min(f32_of(b))),
        BinOp::FMax => bits_of(f32_of(a).max(f32_of(b))),
    })
}

fn eval_un(op: UnOp, a: u64) -> u64 {
    match op {
        UnOp::Not => !a,
        UnOp::Neg => (a as i64).wrapping_neg() as u64,
        UnOp::FNeg => bits_of(-f32_of(a)),
        UnOp::FAbs => bits_of(f32_of(a).abs()),
        UnOp::FSqrt => bits_of(f32_of(a).sqrt()),
        UnOp::FExp => bits_of(f32_of(a).exp()),
        UnOp::FLn => bits_of(f32_of(a).ln()),
        UnOp::FFloor => bits_of(f32_of(a).floor()),
        UnOp::I2F => bits_of(a as i64 as f32),
        UnOp::F2I => {
            let f = f32_of(a);
            if f.is_nan() {
                0
            } else {
                (f as i64) as u64
            }
        }
    }
}

fn eval_cmp(op: CmpOp, a: u64, b: u64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::LtU => a < b,
        CmpOp::LeU => a <= b,
        CmpOp::GtU => a > b,
        CmpOp::GeU => a >= b,
        CmpOp::LtS => (a as i64) < (b as i64),
        CmpOp::LeS => (a as i64) <= (b as i64),
        CmpOp::GtS => (a as i64) > (b as i64),
        CmpOp::GeS => (a as i64) >= (b as i64),
        CmpOp::FLt => f32_of(a) < f32_of(b),
        CmpOp::FLe => f32_of(a) <= f32_of(b),
        CmpOp::FGt => f32_of(a) > f32_of(b),
        CmpOp::FGe => f32_of(a) >= f32_of(b),
        CmpOp::FEq => f32_of(a) == f32_of(b),
        CmpOp::FNe => f32_of(a) != f32_of(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane filter `Lanes` replaced.
    fn filtered(mask: Mask, warp_size: u32) -> Vec<usize> {
        (0..warp_size as usize)
            .filter(|&l| mask & (1 << l) != 0)
            .collect()
    }

    #[test]
    fn lanes_yield_what_the_lane_filter_yields() {
        let mut masks = vec![0, 1, 1 << 63, u64::MAX, (1 << 40) - 1];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..256 {
            // xorshift64: deterministic pseudo-random masks.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            masks.push(state);
        }
        for mask in masks {
            let lanes: Vec<usize> = Lanes(mask).collect();
            assert_eq!(lanes, filtered(mask, 64), "mask {mask:#x}");
            let low32 = mask & u64::from(u32::MAX);
            assert_eq!(Lanes(low32).collect::<Vec<_>>(), filtered(low32, 32));
        }
    }

    #[test]
    fn bin_ops_basic() {
        assert_eq!(eval_bin(BinOp::Add, u64::MAX, 1), Some(0));
        assert_eq!(eval_bin(BinOp::Sub, 0, 1), Some(u64::MAX));
        assert_eq!(eval_bin(BinOp::DivU, 7, 2), Some(3));
        assert_eq!(eval_bin(BinOp::DivU, 7, 0), None);
        assert_eq!(eval_bin(BinOp::RemU, 7, 0), None);
        assert_eq!(
            eval_bin(BinOp::MinS, (-1i64) as u64, 1),
            Some((-1i64) as u64)
        );
        assert_eq!(eval_bin(BinOp::MaxU, (-1i64) as u64, 1), Some(u64::MAX));
        assert_eq!(
            eval_bin(BinOp::Sar, (-8i64) as u64, 2),
            Some((-2i64) as u64)
        );
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = bits_of(1.5);
        let b = bits_of(2.0);
        assert_eq!(eval_bin(BinOp::FMul, a, b), Some(bits_of(3.0)));
        assert_eq!(eval_un(UnOp::FSqrt, bits_of(9.0)), bits_of(3.0));
        assert_eq!(eval_un(UnOp::I2F, (-3i64) as u64), bits_of(-3.0));
        assert_eq!(eval_un(UnOp::F2I, bits_of(-3.7)), (-3i64) as u64);
        assert_eq!(eval_un(UnOp::F2I, bits_of(f32::NAN)), 0);
    }

    #[test]
    fn cmp_ops_signedness() {
        let neg1 = (-1i64) as u64;
        assert!(eval_cmp(CmpOp::LtS, neg1, 0));
        assert!(!eval_cmp(CmpOp::LtU, neg1, 0));
        assert!(eval_cmp(CmpOp::FLt, bits_of(-1.0), bits_of(0.0)));
        assert!(!eval_cmp(CmpOp::FLt, bits_of(f32::NAN), bits_of(0.0)));
        assert!(eval_cmp(CmpOp::FNe, bits_of(f32::NAN), bits_of(f32::NAN)));
    }
}
