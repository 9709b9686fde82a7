//! Peak resident memory from `/proc`: the workload process plus every
//! descendant it has (the fleet's ctrl and relay children).

use std::collections::HashMap;

/// `VmHWM` (peak resident set, kB) and `PPid` out of one
/// `/proc/<pid>/status` text. Kernel threads have no `VmHWM` line.
pub fn parse_status(text: &str) -> (Option<u64>, Option<u32>) {
    let mut hwm = None;
    let mut ppid = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            hwm = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        } else if let Some(rest) = line.strip_prefix("PPid:") {
            ppid = rest.trim().parse::<u32>().ok();
        }
    }
    (hwm, ppid)
}

/// `root` and all its descendants, given every process's parent.
pub fn descendants(root: u32, parent_of: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = vec![root];
    let mut next = 0;
    while next < out.len() {
        let p = out[next];
        next += 1;
        let mut kids: Vec<u32> = parent_of
            .iter()
            .filter(|&(_, &pp)| pp == p)
            .map(|(&pid, _)| pid)
            .collect();
        kids.sort_unstable();
        out.extend(kids);
    }
    out
}

/// Sum of `VmHWM` over this process and its live descendants, in MB.
/// Children that already exited (a killed fleet backend) are gone from
/// `/proc` and not counted; sample before tearing a fleet down.
pub fn peak_rss_mb() -> f64 {
    let mut hwm_kb: HashMap<u32, u64> = HashMap::new();
    let mut parent_of: HashMap<u32, u32> = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        let (hwm, ppid) = parse_status(&text);
        if let Some(ppid) = ppid {
            parent_of.insert(pid, ppid);
        }
        if let Some(hwm) = hwm {
            hwm_kb.insert(pid, hwm);
        }
    }
    let total_kb: u64 = descendants(std::process::id(), &parent_of)
        .iter()
        .filter_map(|pid| hwm_kb.get(pid))
        .sum();
    total_kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hwm_and_ppid_from_status_text() {
        let text = "Name:\tstackbench\nPid:\t812\nPPid:\t640\nVmPeak:\t  999 kB\n\
                    VmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_status(text), (Some(123_456), Some(640)));
        // A kernel thread: no memory lines at all.
        assert_eq!(parse_status("Name:\tkthreadd\nPPid:\t0\n"), (None, Some(0)));
        assert_eq!(parse_status(""), (None, None));
    }

    #[test]
    fn descendants_follow_the_parent_chain() {
        let parent_of: HashMap<u32, u32> =
            [(10, 1), (11, 10), (12, 10), (13, 12), (20, 1), (21, 20)].into();
        assert_eq!(descendants(10, &parent_of), vec![10, 11, 12, 13]);
        assert_eq!(descendants(21, &parent_of), vec![21]);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
