//! Host fingerprint and peak memory, recorded with every result so numbers
//! from different hosts or builds are never compared.

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One JSON object: CPU model and count, the thread counts the program's
/// pools size themselves to, and the build settings.
pub fn fingerprint() -> String {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map_or("unknown", str::trim);
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The tuner's candidate pool and each launch's block-interpretation
    // pool both size themselves by available_parallelism, and nest.
    let nested = format!("{avail}x{avail}");
    let manifest = include_str!("../Cargo.toml");
    let lto = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("lto = "))
        .map_or("off", |v| v.trim_matches('"'));
    format!(
        "{{\"cpu_model\":{},\"cpus\":{cpus},\"available_parallelism\":{avail},\
         \"nested_threads\":\"{nested}\",\"profile\":\"{}\",\"opt_level\":\"{}\",\
         \"lto\":\"{lto}\",\"rustflags\":{}}}",
        np_obs::json_string(model),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        np_obs::json_string(env!("PERFBENCH_RUSTFLAGS")),
    )
}
