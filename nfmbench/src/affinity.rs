//! CPU placement of a workload's threads.  A Linux thread starts with
//! the CPU mask of the thread that spawns it, so setting the calling
//! thread's mask before a spawn places the new thread.
//!
//! On a host with two CPUs, three busy threads (engine worker, server,
//! client) otherwise move between them at the kernel's choice; a
//! worker that stays on one CPU keeps its caches warm.  The server and
//! client stay free to move: confined to one CPU, they stalled together
//! whenever the host held that CPU back, and the open loop's generator
//! fell behind its schedule.

/// A `cpu_set_t`: 1024 CPUs.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

fn get() -> Result<Mask, String> {
    let mut mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    match unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) } {
        0 => Ok(mask),
        _ => Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        )),
    }
}

fn set(mask: &Mask) -> Result<(), String> {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) } {
        0 => Ok(()),
        _ => Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        )),
    }
}

fn only(cpu: usize) -> Mask {
    let mut mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// The last CPU of the calling thread's mask for the engine worker;
/// the server and client threads keep the whole mask, so that they can
/// run wherever a CPU is free.  With fewer than two CPUs nothing is
/// pinned.
pub(crate) struct Placement {
    original: Mask,
    worker: Option<usize>,
}

impl Placement {
    pub(crate) fn new() -> Result<Placement, String> {
        let original = get()?;
        let allowed: Vec<usize> = (0..1024)
            .filter(|&cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        let worker = (allowed.len() >= 2).then(|| allowed[allowed.len() - 1]);
        Ok(Placement { original, worker })
    }

    /// Confines the calling thread, and the threads it spawns next, to
    /// the worker's CPU.
    pub(crate) fn worker(&self) -> Result<(), String> {
        self.worker.map_or(Ok(()), |cpu| set(&only(cpu)))
    }

    /// Gives the calling thread, and the threads it spawns next, the
    /// whole mask back.
    pub(crate) fn release(&self) -> Result<(), String> {
        set(&self.original)
    }

    /// `"engine worker pinned to CPU 1"`.
    pub(crate) fn describe(&self) -> String {
        match self.worker {
            Some(cpu) => format!("engine worker pinned to CPU {cpu}; server and client unpinned"),
            None => "threads not pinned (fewer than two CPUs)".into(),
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        // The mask was the thread's own a moment ago; failing to put it
        // back leaves only a narrower mask, never a wrong result.
        let _ = self.release();
    }
}
