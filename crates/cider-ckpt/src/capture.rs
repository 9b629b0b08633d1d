//! Image capture over a live kernel.
//!
//! The kernel (and each subsystem it owns) writes its observable state
//! as named record sections straight into the image's bytes — see
//! `Kernel::write_ckpt` in `cider-kernel`. This module wraps them as a
//! [`StateImage`]; the fleet harness writes its own sections after the
//! kernel's (workload cursor and metrics, gfx counters) before framing
//! the image into a [`crate::Checkpoint`]. No harness writes Mach port
//! state.

use cider_kernel::{Kernel, SectionWriter};

use crate::image::StateImage;

/// Captures every kernel-owned section of the device state: virtual
/// clock, event counters, process/thread tables, VFS tree, pipe and
/// socket buffers, scheduler bands, and fault-injection streams.
pub fn capture_kernel(k: &Kernel) -> StateImage {
    let mut w = SectionWriter::new();
    k.write_ckpt(&mut w);
    StateImage::from(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    #[test]
    fn identical_kernels_capture_identical_images() {
        let boot = || {
            let mut k = Kernel::boot(DeviceProfile::nexus7());
            k.vfs.mkdir_p("/data/app").unwrap();
            k.vfs.write_file("/data/app/a.bin", vec![7; 64]).unwrap();
            let (_pid, tid) = k.spawn_process();
            k.sys_pipe(tid).unwrap();
            k
        };
        let a = capture_kernel(&boot());
        let b = capture_kernel(&boot());
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn state_changes_move_the_digest() {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        let before = capture_kernel(&k).digest();
        let (_pid, tid) = k.spawn_process();
        let spawned = capture_kernel(&k).digest();
        assert_ne!(before, spawned);
        k.sys_mkdir(tid, "/tmp/x").unwrap();
        assert_ne!(spawned, capture_kernel(&k).digest());
    }

    #[test]
    fn image_names_the_expected_sections() {
        let k = Kernel::boot(DeviceProfile::nexus7());
        let img = capture_kernel(&k);
        for name in [
            "clock",
            "kernel/counters",
            "kernel/ids",
            "kernel/procs",
            "kernel/threads",
            "kernel/vfs",
            "kernel/ipc",
            "kernel/warm",
            "sched",
            "faults",
        ] {
            assert!(img.section(name).is_some(), "missing section {name}");
        }
    }
}
