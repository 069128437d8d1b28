//! Golden per-cell result digests.
//!
//! A digest is FNV-1a over the exact integer encoding of a cell's
//! `RunStats` (`stats_to_units`, the journal's codec), keyed by the cell's
//! label, so a check holds for any cell order. Host-time fields such as
//! `phase_nanos` are not part of the encoding, so traced and untraced runs
//! digest alike.

use std::collections::BTreeMap;
use std::path::Path;

use subwarp_core::RunStats;
use subwarp_sweep::{fnv1a, stats_to_units};

/// Digest of one result.
pub fn digest(stats: &RunStats) -> u64 {
    let (u, ch) = stats_to_units(stats);
    let mut h = fnv1a(0, &(u.len() as u64).to_le_bytes());
    for x in u.iter().chain(ch.iter()) {
        h = fnv1a(h, &x.to_le_bytes());
    }
    h
}

/// Golden digests for one workload, `label -> digest`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Goldens(pub BTreeMap<String, u64>);

impl Goldens {
    /// Reads a golden file: one `<16 hex digits> <label>` per line, `#`
    /// comments allowed. A missing file reads as empty, so every cell then
    /// fails its check until the file is blessed.
    pub fn load(path: &Path) -> Result<Goldens, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Goldens::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line
                .split_once(' ')
                .and_then(|(hex, label)| Some((u64::from_str_radix(hex, 16).ok()?, label)));
            let Some((d, label)) = parsed else {
                return Err(format!(
                    "{}:{}: malformed golden line",
                    path.display(),
                    n + 1
                ));
            };
            map.insert(label.to_owned(), d);
        }
        Ok(Goldens(map))
    }

    /// Checks one cell's digest against its golden.
    pub fn check(&self, label: &str, d: u64) -> Result<(), String> {
        match self.0.get(label) {
            Some(&g) if g == d => Ok(()),
            Some(&g) => Err(format!(
                "cell `{label}`: digest {d:016x} differs from golden {g:016x}"
            )),
            None => Err(format!(
                "cell `{label}`: no golden digest (run with --bless)"
            )),
        }
    }

    /// Writes the goldens, sorted by label.
    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let mut text =
            format!("# {header}\n# fnv1a over stats_to_units; rewrite with `run --bless`.\n");
        for (label, d) in &self.0 {
            text.push_str(&format!("{d:016x} {label}\n"));
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_round_trip_and_catch_a_corrupted_digest() {
        let a = RunStats {
            cycles: 10,
            instructions: 4,
            ..RunStats::default()
        };
        let mut b = a.clone();
        b.cycles += 1;
        assert_ne!(digest(&a), digest(&b));
        let mut timed = a.clone();
        timed.phase_nanos = [1, 2, 3, 4, 5];
        assert_eq!(
            digest(&a),
            digest(&timed),
            "host time is not part of a result"
        );

        let dir = std::env::temp_dir().join(format!("subwarp-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut g = Goldens::default();
        g.0.insert("AV1/base lat600".into(), digest(&a));
        g.write(&path, "test").unwrap();
        let back = Goldens::load(&path).unwrap();
        assert_eq!(back, g);
        assert!(back.check("AV1/base lat600", digest(&a)).is_ok());
        assert!(back.check("AV1/base lat600", digest(&b)).is_err());
        assert!(back.check("missing", digest(&a)).is_err());

        // Flip one hex digit on disk: the check must now fail.
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().find(|l| !l.starts_with('#')).unwrap();
        let flipped = if line.starts_with('0') { "1" } else { "0" };
        std::fs::write(
            &path,
            text.replace(line, &format!("{flipped}{}", &line[1..])),
        )
        .unwrap();
        let corrupted = Goldens::load(&path).unwrap();
        assert!(corrupted.check("AV1/base lat600", digest(&a)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
