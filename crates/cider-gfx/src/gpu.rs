//! The simulated GPU: command submission, retirement, and fences.
//!
//! The GPU consumes [`GpuCommand`]s and accounts their execution time
//! separately from CPU time (scaled by the device's `gpu_scale`). Fences
//! signal when the commands preceding them retire. A configurable *fence
//! bug* reproduces the paper's §6.3 defect: "bugs in the Cider OpenGL ES
//! library related to 'fence' synchronization primitives caused
//! under-performance in the image rendering tests" — a buggy wait misses
//! the signal and burns a stall before rechecking.

use std::collections::VecDeque;

use cider_kernel::kernel::Kernel;

/// A fence identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FenceId(pub u64);

/// Commands the GPU executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuCommand {
    /// Clear a render target.
    Clear,
    /// Draw `vertices` vertices with `texture_binds` texture switches.
    Draw {
        /// Vertex count.
        vertices: u32,
        /// Texture binds in this draw.
        texture_binds: u32,
    },
    /// Copy `bytes` between buffers.
    Blit {
        /// Bytes copied.
        bytes: u64,
    },
    /// Compose `layers` surfaces to the display.
    Compose {
        /// Number of layers.
        layers: u32,
    },
    /// A fence to signal once everything before it retires.
    Fence(FenceId),
}

/// Missed-wakeup stall charged per buggy fence wait, ns (CPU time).
pub const FENCE_BUG_STALL_NS: u64 = 120_000;

/// Driver timeout burned when an injected fault swallows the fence
/// interrupt entirely (4 ms, a typical KGSL fence timeout tick).
pub const FENCE_TIMEOUT_NS: u64 = 4_000_000;

/// The simulated GPU.
#[derive(Debug, Clone)]
pub struct SimGpu {
    queue: VecDeque<GpuCommand>,
    next_fence: u64,
    signaled: Vec<FenceId>,
    /// Total GPU execution time, ns (already device-scaled).
    pub gpu_busy_ns: u64,
    /// Commands retired.
    pub retired: u64,
    /// Whether fence waits take the buggy path.
    pub fence_bug: bool,
    /// Buggy stalls taken (observability).
    pub bug_stalls: u64,
    /// Injected fence timeouts recovered by force-retirement.
    pub fence_timeouts: u64,
}

impl Default for SimGpu {
    fn default() -> Self {
        Self::new()
    }
}

impl SimGpu {
    /// A GPU with correct fences.
    pub fn new() -> SimGpu {
        SimGpu {
            queue: VecDeque::new(),
            next_fence: 0,
            signaled: Vec::new(),
            gpu_busy_ns: 0,
            retired: 0,
            fence_bug: false,
            bug_stalls: 0,
            fence_timeouts: 0,
        }
    }

    /// Queues a command (cheap CPU work; execution happens at retire).
    pub fn submit(&mut self, k: &mut Kernel, cmd: GpuCommand) {
        // Ring-buffer write + doorbell.
        k.charge_cpu(120);
        self.queue.push_back(cmd);
    }

    /// Allocates and queues a fence, returning its id.
    pub fn submit_fence(&mut self, k: &mut Kernel) -> FenceId {
        self.next_fence += 1;
        let id = FenceId(self.next_fence);
        self.submit(k, GpuCommand::Fence(id));
        id
    }

    fn command_cost_ns(cmd: &GpuCommand) -> u64 {
        match cmd {
            GpuCommand::Clear => 55_000,
            GpuCommand::Draw {
                vertices,
                texture_binds,
            } => 2_500 + *vertices as u64 * 9 + *texture_binds as u64 * 800,
            GpuCommand::Blit { bytes } => 4_000 + bytes / 4,
            GpuCommand::Compose { layers } => {
                180_000 + *layers as u64 * 90_000
            }
            GpuCommand::Fence(_) => 200,
        }
    }

    /// Retires every queued command, accumulating device-scaled GPU time
    /// (which advances the virtual clock — the frame is not presented
    /// until the GPU finishes) and signalling fences. Returns the GPU
    /// nanoseconds consumed.
    pub fn retire_all(&mut self, k: &mut Kernel) -> u64 {
        let mut ns = 0;
        while let Some(cmd) = self.queue.pop_front() {
            ns += Self::command_cost_ns(&cmd);
            if let GpuCommand::Fence(id) = cmd {
                self.signaled.push(id);
            }
            self.retired += 1;
        }
        let scaled = (ns as f64 * k.profile.gpu_scale) as u64;
        self.gpu_busy_ns += scaled;
        k.charge_raw(scaled);
        scaled
    }

    /// Whether a fence has signalled.
    pub fn fence_signaled(&self, id: FenceId) -> bool {
        self.signaled.contains(&id)
    }

    /// Waits for a fence: retires outstanding work if needed, then
    /// checks the signal. On the buggy path the first check races the
    /// signal and the waiter stalls before rechecking.
    ///
    /// Returns the CPU nanoseconds charged for the wait.
    pub fn wait_fence(&mut self, k: &mut Kernel, id: FenceId) -> u64 {
        let enter_ns = k.clock.now_ns();
        let mut cpu_ns = 350; // ioctl round trip
        if !self.fence_signaled(id) {
            self.retire_all(k);
        }
        if self.fence_bug {
            // The missed wakeup: the waiter sleeps a full timeout tick
            // before noticing the fence already signalled.
            cpu_ns += FENCE_BUG_STALL_NS;
            self.bug_stalls += 1;
        }
        if k.fault_at(cider_fault::FaultSite::GpuFenceTimeout) {
            // The signal is lost in hardware; the waiter burns the
            // full driver timeout, then falls back to force-retiring
            // the queue and signalling the fence by hand.
            cpu_ns += FENCE_TIMEOUT_NS;
            self.fence_timeouts += 1;
            self.retire_all(k);
            if !self.fence_signaled(id) {
                self.signaled.push(id);
            }
            k.trace_recovery(format!(
                "gpu/fence_timeout_fallback(fence={})",
                id.0
            ));
        }
        debug_assert!(self.fence_signaled(id), "fence lost");
        k.charge_cpu(cpu_ns);
        if k.trace.is_enabled() {
            let ctx = cider_trace::TraceContext::kernel(k.clock.now_ns());
            k.trace.record(
                ctx,
                cider_trace::EventKind::GpuFenceWait {
                    fence: id.0,
                    buggy: self.fence_bug,
                },
            );
            k.trace.incr("gpu/fence_waits");
            if self.fence_bug {
                k.trace.incr("gpu/fence_bug_stalls");
            }
            k.trace
                .observe("gpu/fence_wait", k.clock.now_ns() - enter_ns);
        }
        cpu_ns
    }

    /// Commands still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    fn kernel() -> Kernel {
        Kernel::boot(DeviceProfile::nexus7())
    }

    #[test]
    fn submit_and_retire_accumulates_gpu_time() {
        let mut k = kernel();
        let mut gpu = SimGpu::new();
        gpu.submit(&mut k, GpuCommand::Clear);
        gpu.submit(
            &mut k,
            GpuCommand::Draw {
                vertices: 3000,
                texture_binds: 4,
            },
        );
        assert_eq!(gpu.pending(), 2);
        let ns = gpu.retire_all(&mut k);
        assert!(ns > 55_000);
        assert_eq!(gpu.pending(), 0);
        assert_eq!(gpu.retired, 2);
    }

    #[test]
    fn gpu_scale_applies() {
        let k_nexus = kernel();
        let k_ipad = Kernel::boot(DeviceProfile::ipad_mini());
        let mut g1 = SimGpu::new();
        let mut g2 = SimGpu::new();
        let mut kn = k_nexus;
        let mut ki = k_ipad;
        g1.submit(&mut kn, GpuCommand::Compose { layers: 3 });
        g2.submit(&mut ki, GpuCommand::Compose { layers: 3 });
        let n = g1.retire_all(&mut kn);
        let i = g2.retire_all(&mut ki);
        assert!(i < n, "iPad GPU faster: {i} vs {n}");
    }

    #[test]
    fn fence_signals_on_retire() {
        let mut k = kernel();
        let mut gpu = SimGpu::new();
        gpu.submit(&mut k, GpuCommand::Clear);
        let f = gpu.submit_fence(&mut k);
        assert!(!gpu.fence_signaled(f));
        gpu.retire_all(&mut k);
        assert!(gpu.fence_signaled(f));
    }

    #[test]
    fn wait_fence_retires_implicitly() {
        let mut k = kernel();
        let mut gpu = SimGpu::new();
        gpu.submit(&mut k, GpuCommand::Clear);
        let f = gpu.submit_fence(&mut k);
        let cost = gpu.wait_fence(&mut k, f);
        assert!(gpu.fence_signaled(f));
        assert!(cost < 1000, "correct fences are cheap: {cost}");
        assert_eq!(gpu.bug_stalls, 0);
    }

    #[test]
    fn injected_fence_timeout_recovers_by_force_retire() {
        use cider_fault::{FaultLayer, FaultPlan, FaultSite};
        let mut k = kernel();
        k.faults = FaultLayer::with_plan(
            FaultPlan::new(1).with(FaultSite::GpuFenceTimeout, 1000),
        );
        let mut gpu = SimGpu::new();
        gpu.submit(&mut k, GpuCommand::Clear);
        let f = gpu.submit_fence(&mut k);
        let t0 = k.clock.now_ns();
        gpu.wait_fence(&mut k, f);
        assert!(gpu.fence_signaled(f), "fallback must signal");
        assert_eq!(gpu.fence_timeouts, 1);
        assert!(k.clock.now_ns() - t0 >= FENCE_TIMEOUT_NS);
        assert_eq!(k.faults.recoveries().len(), 1);
    }

    #[test]
    fn fence_bug_burns_stalls() {
        let mut k = kernel();
        let mut gpu = SimGpu::new();
        gpu.fence_bug = true;
        gpu.submit(&mut k, GpuCommand::Clear);
        let f = gpu.submit_fence(&mut k);
        let t0 = k.clock.now_ns();
        gpu.wait_fence(&mut k, f);
        let cost = k.clock.now_ns() - t0;
        assert!(cost >= FENCE_BUG_STALL_NS);
        assert_eq!(gpu.bug_stalls, 1);
    }
}
