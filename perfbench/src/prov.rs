//! Provenance recorded with every result: the machine, the toolchain, the
//! commit and the run's own settings.

use std::path::Path;

use corroborate_serve::WalConfig;

use crate::{json_str, Ctx};

fn first_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
fn fs_type(dir: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(dir) else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let mount = f.next()?;
            let kind = f.next()?;
            path.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The provenance object, as JSON.
pub fn collect(ctx: &Ctx) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_mb = first_field(&meminfo, "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let wal = WalConfig::default();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"nproc\":{nproc},\
         \"cpu_model\":{},\"mem_total_mb\":{mem_mb:.0},\"commit\":{},\"rustc\":{},\
         \"wal_dir_fs\":{},\"wal_config\":{{\"fsync\":{},\"compact_after_records\":{},\
         \"segment_bytes\":{}}}}}",
        json_str(&ctx.args.workload),
        ctx.args.seed,
        ctx.args.seconds,
        ctx.args.trace,
        json_str(&first_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        json_str(&commit()),
        json_str(&rustc_version()),
        json_str(&fs_type(&ctx.out)),
        wal.fsync,
        wal.compact_after_records,
        wal.segment_bytes,
    )
}
