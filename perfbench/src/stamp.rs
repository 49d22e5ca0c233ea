//! The environment every result is stamped with: host time holds only at
//! the recorded core count, compiler and build profile.

use std::fs;
use std::path::Path;

use crate::digest::digest;

/// CPUs the kernel has online, from `/sys/devices/system/cpu/online`
/// (e.g. `0-1,4`); 0 when unreadable.
pub fn nproc() -> usize {
    let Ok(text) = fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    text.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The host's peak resident set (`VmHWM`) in MB (10^6 bytes), or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024.0 / 1e6)
        })
        .unwrap_or(0.0)
}

/// Seconds of CPU time this process has used (user + system, all
/// threads), from `/proc/self/stat` at its 10 ms tick; 0 when unreadable.
pub fn cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// ticks, from `/proc/stat`; zeros when unreadable.
pub fn steal_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect();
            Some((*cpu.get(7)?, cpu.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
}

/// Paths of every regular file under `dir`, skipping build outputs.
fn files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() && entry.file_name() != "target" {
            files(&path, out);
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// A digest of the simulator's sources (`Cargo.toml`, `Cargo.lock`,
/// `src/`, `crates/`, `vendor/` under `root`): identifies the code
/// measured when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    let mut paths = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let mut all = Vec::new();
    for path in &paths {
        if let Ok(bytes) = fs::read(path) {
            all.extend_from_slice(
                path.strip_prefix(root)
                    .unwrap_or(path)
                    .as_os_str()
                    .as_encoded_bytes(),
            );
            all.extend_from_slice(&bytes);
        }
    }
    digest(&all).hex()
}

/// The stamp as a JSON object's members (without braces).
pub fn stamp(root: &Path) -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = commit(root).unwrap_or_else(|| "none (not a git checkout)".to_owned());
    format!(
        r#""nproc":{},"available_parallelism":{},"commit":"{}","source_digest":"{}","rustc":"{}","profile":"{}","opt_level":"{}""#,
        nproc(),
        available,
        commit,
        source_digest(root),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
    )
}
