//! CPU affinity of a pass's process, through the C library's
//! `sched_getaffinity` / `sched_setaffinity` (std links it already).

/// Mask words: room for 1,024 CPUs, what `cpu_set_t` holds.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn os_error(call: &str) -> String {
    format!("{call}: {}", std::io::Error::last_os_error())
}

/// The CPUs the calling thread may run on, ascending. Under a cpuset these
/// need not start at 0.
pub fn allowed() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is `size_of_val(&mask)` writable bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    Ok((0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to the last CPU it is allowed on and returns
/// that CPU. Every thread and process started from it afterwards inherits
/// the pin, so call it first thing in a pass. An error, never a silent
/// unpinned run, if the kernel refuses.
pub fn pin_to_last_allowed() -> Result<usize, String> {
    let cpu = *allowed()?.last().ok_or("no CPU is allowed")?;
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is `size_of_val(&mask)` readable bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs on a thread of its own: the pin stays with that thread.
    #[test]
    fn pins_to_a_cpu_from_the_allowed_list() {
        std::thread::spawn(|| {
            let before = allowed().unwrap();
            assert!(!before.is_empty());
            let cpu = pin_to_last_allowed().unwrap();
            assert_eq!(Some(&cpu), before.last());
            assert_eq!(allowed().unwrap(), vec![cpu]);
        })
        .join()
        .unwrap();
    }
}
