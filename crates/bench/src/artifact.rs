//! The one writer of the `BENCH_<name>.json` artifacts.
//!
//! Every file opens with a `provenance` object: the schema version, the
//! git revision of the source the binary was built from, the core
//! count, `DV_THREADS`, the compiled-in features, whether the AVX
//! kernels run, and the mode. A full run writes into the directory it is
//! given (the working directory, where the committed artifacts live); a
//! `--quick` smoke writes under that directory's `target/quick/`
//! instead, so a quick run can never overwrite a committed full-mode
//! artifact.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the artifact layout: bump it when a field changes
/// meaning or moves. Version 2 replaced `features.simd` (the AVX kernels
/// were compiled in) with `simd_kernels` (they run, as the repository
/// benchmark reports it).
const SCHEMA: u32 = 2;

/// Writes `fields` as `BENCH_<name>.json` under `dir` (or under
/// `dir/target/quick/` when `quick`), prints it to stdout, and returns
/// the path written.
///
/// `fields` are the object's members after `provenance`: one per line,
/// indented by two spaces, the last one without a trailing comma.
///
/// # Errors
///
/// Any error creating the quick directory or writing the file.
pub fn write_bench(dir: &Path, name: &str, quick: bool, fields: &str) -> io::Result<PathBuf> {
    let dir = if quick {
        dir.join("target").join("quick")
    } else {
        dir.to_path_buf()
    };
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let json = format!("{{\n  \"provenance\": {},\n{fields}}}\n", provenance(quick));
    fs::write(&path, &json)?;
    println!("{json}");
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// The `provenance` object, on one line.
fn provenance(quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dv_threads =
        dv_runtime::config::requested_threads().map_or_else(|| "null".into(), |n| n.to_string());
    format!(
        "{{\"schema\": {SCHEMA}, \"git\": \"{}\", \"nproc\": {nproc}, \"dv_threads\": {dv_threads}, \
         \"features\": {{\"trace\": {}}}, \"simd_kernels\": {}, \"mode\": \"{}\"}}",
        git_describe(),
        dv_trace::tracing_enabled(),
        dv_tensor::gemm::simd_kernels_active(),
        if quick { "quick" } else { "full" },
    )
}

/// `git describe --always --dirty`, run in this crate's source
/// directory, or "unknown" when that is not a git checkout or git is
/// missing.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && !s.contains('"') && !s.contains('\\'))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file under `dir`, relative to it.
    fn files_under(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d).expect("test directory is readable") {
                let path = entry.expect("directory entry is readable").path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    out.push(path.strip_prefix(dir).expect("under dir").to_path_buf());
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn quick_writes_land_under_target_quick_and_full_writes_in_place() {
        let dir = std::env::temp_dir().join(format!("dv_artifact_test_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("cannot create the test directory");

        let quick = write_bench(&dir, "unit", true, "  \"x\": 1\n").expect("quick write");
        assert_eq!(quick, dir.join("target/quick/BENCH_unit.json"));
        assert_eq!(
            files_under(&dir),
            [PathBuf::from("target/quick/BENCH_unit.json")]
        );
        let text = fs::read_to_string(&quick).expect("quick artifact is readable");
        assert!(text.starts_with("{\n  \"provenance\": {\"schema\": 2, \"git\": \""));
        assert!(text.contains("\"simd_kernels\": "), "{text}");
        assert!(text.contains("\"mode\": \"quick\"}"), "{text}");
        assert!(text.ends_with(",\n  \"x\": 1\n}\n"), "{text}");

        let full = write_bench(&dir, "unit", false, "  \"x\": 2\n").expect("full write");
        assert_eq!(full, dir.join("BENCH_unit.json"));
        let text = fs::read_to_string(&full).expect("full artifact is readable");
        assert!(text.contains("\"mode\": \"full\"}"), "{text}");
        fs::remove_dir_all(&dir).ok();
    }
}
