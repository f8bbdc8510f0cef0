//! Reusable scratch arena for allocation-free inference.
//!
//! A [`Workspace`] owns every buffer a forward pass needs — the two
//! ping-pong activation buffers, one buffer per tapped probe point, and a
//! set of per-op scratch slots (dense-block stage state; convolutions
//! need none since im2col is fused into the GEMM pack). Buffers are
//! growable `Vec<f32>`s that are *reused* across
//! calls: they allocate on first use (or growth) and are free from then
//! on, which is what makes the steady-state inference path
//! allocation-free.
//!
//! Slot ids are handed out at plan-build time by a [`SlotAllocator`], so
//! two ops never collide on a slot and a workspace can be shared by every
//! run through the same plan. A `Workspace` is cheap to create but holds
//! no thread-safety magic: each worker thread uses its own.

use std::mem;

/// Hands out workspace slot ids while an inference plan is being built.
#[derive(Debug, Default)]
pub struct SlotAllocator {
    next: usize,
}

impl SlotAllocator {
    /// Creates an allocator with no slots handed out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next free slot id.
    pub fn alloc(&mut self) -> usize {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Total number of slots handed out so far.
    pub fn count(&self) -> usize {
        self.next
    }
}

/// Owned, reusable scratch memory for one inference worker.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Ping-pong activation buffers the plan runner alternates between.
    acts: [Vec<f32>; 2],
    /// One buffer per tapped probe point (filled during a probed run).
    probes: Vec<Vec<f32>>,
    /// Indexed per-op scratch slots (ids from a [`SlotAllocator`]).
    slots: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the activation buffers out, leaving empty ones behind.
    ///
    /// The plan runner takes them so it can hold `&mut` slices of the
    /// activations while still passing `&mut Workspace` (for slots) to
    /// each op. Pair with [`put_acts`](Workspace::put_acts).
    pub fn take_acts(&mut self) -> [Vec<f32>; 2] {
        [mem::take(&mut self.acts[0]), mem::take(&mut self.acts[1])]
    }

    /// Returns activation buffers taken by [`take_acts`](Workspace::take_acts),
    /// so their capacity is reused by the next run.
    pub fn put_acts(&mut self, acts: [Vec<f32>; 2]) {
        self.acts = acts;
    }

    /// Read-only contents of activation buffer `i` (after a run restored
    /// them with [`put_acts`](Workspace::put_acts)).
    pub fn act(&self, i: usize) -> &[f32] {
        &self.acts[i]
    }

    /// Ensures `n` probe buffers exist.
    pub fn ensure_probes(&mut self, n: usize) {
        if self.probes.len() < n {
            self.probes.resize_with(n, Vec::new);
        }
    }

    /// Mutable access to probe buffer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` was not reserved via [`ensure_probes`](Workspace::ensure_probes).
    pub fn probe_buf_mut(&mut self, i: usize) -> &mut Vec<f32> {
        &mut self.probes[i]
    }

    /// Read-only contents of probe buffer `i`.
    pub fn probe(&self, i: usize) -> &[f32] {
        &self.probes[i]
    }

    /// Ensures `n` scratch slots exist.
    pub fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Vec::new);
        }
    }

    /// Mutable access to scratch slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not reserved via [`ensure_slots`](Workspace::ensure_slots).
    pub fn slot_mut(&mut self, id: usize) -> &mut Vec<f32> {
        &mut self.slots[id]
    }

    /// Moves slot `id` out (for ops that need several slots live at once),
    /// leaving an empty buffer behind. Pair with [`put_slot`](Workspace::put_slot).
    pub fn take_slot(&mut self, id: usize) -> Vec<f32> {
        mem::take(&mut self.slots[id])
    }

    /// Returns a slot taken by [`take_slot`](Workspace::take_slot) so its
    /// capacity is reused.
    pub fn put_slot(&mut self, id: usize, buf: Vec<f32>) {
        self.slots[id] = buf;
    }

    /// Number of probe buffers currently reserved.
    pub fn num_probes(&self) -> usize {
        self.probes.len()
    }

    /// Clears every buffer's *contents* while keeping its capacity: after
    /// a reset the workspace holds no activations, tapped probes, or
    /// per-op scratch from any earlier (possibly aborted mid-forward)
    /// run, yet the next run still allocates nothing. This is the
    /// recovery step a serving worker applies before reusing a workspace
    /// whose last request was unwound or abandoned.
    pub fn reset(&mut self) {
        for buf in &mut self.acts {
            buf.clear();
        }
        for buf in &mut self.probes {
            buf.clear();
        }
        for buf in &mut self.slots {
            buf.clear();
        }
    }
}

/// Resets `buf` to `len` zeroed elements, allocating only if the buffer
/// has never been this large before.
pub fn ensure_zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_allocator_hands_out_sequential_ids() {
        let mut a = SlotAllocator::new();
        assert_eq!(a.alloc(), 0);
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn ensure_zeroed_reuses_capacity() {
        let mut buf = Vec::new();
        ensure_zeroed(&mut buf, 8);
        assert_eq!(buf.len(), 8);
        buf[3] = 7.0;
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        ensure_zeroed(&mut buf, 4);
        assert_eq!(buf, vec![0.0; 4]);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn acts_round_trip_preserves_capacity() {
        let mut ws = Workspace::new();
        let mut acts = ws.take_acts();
        ensure_zeroed(&mut acts[0], 16);
        acts[0][0] = 2.0;
        ws.put_acts(acts);
        assert_eq!(ws.act(0)[0], 2.0);
        let again = ws.take_acts();
        assert!(again[0].capacity() >= 16);
    }

    #[test]
    fn reset_clears_contents_but_keeps_capacity() {
        let mut ws = Workspace::new();
        let mut acts = ws.take_acts();
        ensure_zeroed(&mut acts[0], 32);
        acts[0][5] = 3.0;
        ws.put_acts(acts);
        ws.ensure_probes(2);
        ensure_zeroed(ws.probe_buf_mut(1), 8);
        ws.probe_buf_mut(1)[0] = 1.0;
        ws.ensure_slots(1);
        ensure_zeroed(ws.slot_mut(0), 4);

        ws.reset();
        assert!(ws.act(0).is_empty());
        assert!(ws.probe(1).is_empty());
        assert_eq!(ws.num_probes(), 2);
        // Capacity survives: regrowing to the old size reuses the buffer.
        let probe = ws.probe_buf_mut(1);
        let cap = probe.capacity();
        assert!(cap >= 8);
        ensure_zeroed(probe, 8);
        assert_eq!(probe.capacity(), cap);
    }

    #[test]
    fn slots_and_probes_grow_on_demand() {
        let mut ws = Workspace::new();
        ws.ensure_slots(2);
        ensure_zeroed(ws.slot_mut(1), 3);
        ws.slot_mut(1)[2] = 9.0;
        let taken = ws.take_slot(1);
        assert_eq!(taken, vec![0.0, 0.0, 9.0]);
        ws.put_slot(1, taken);
        assert_eq!(ws.slot_mut(1)[2], 9.0);

        ws.ensure_probes(1);
        ensure_zeroed(ws.probe_buf_mut(0), 2);
        ws.probe_buf_mut(0)[0] = 4.0;
        assert_eq!(ws.probe(0), &[4.0, 0.0]);
    }
}
