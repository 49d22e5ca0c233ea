//! Committed digests of every simulated result the benchmark produces.
//!
//! `digests.tsv` maps each request (its JSON text without the `id`) to a
//! 64-bit hash and the byte length of its `report_value` JSON; the traced
//! request also has the hash of its rendered Chrome trace. A pass checks
//! every output against this table, so a change that alters any simulated
//! number counts as a failed request.

use std::collections::BTreeMap;
use std::fmt;

/// File name of the digest table, in the benchmark's directory.
pub const FILE: &str = "digests.tsv";

/// Hash and length of one output's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    len: u64,
}

impl Digest {
    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}\t{}", self.hash, self.len)
    }
}

/// Which output of a request a digest covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `serde_json::to_string(&report_value(&report))`.
    Report,
    /// The Chrome trace-event JSON of a traced request.
    Trace,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::Trace => "trace",
        }
    }
}

/// Hashes `bytes` eight at a time (multiply-rotate mixing with the
/// length folded in). It detects changed output, not adversaries, and is
/// fast enough to check a 74 MB trace on every pass.
pub fn digest(bytes: &[u8]) -> Digest {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^= h >> 31;
    Digest {
        hash: h.wrapping_mul(K) ^ (h >> 29),
        len: bytes.len() as u64,
    }
}

/// The committed digest table.
#[derive(Debug, Default)]
pub struct Table {
    entries: BTreeMap<(String, Kind), Digest>,
}

impl Table {
    /// Parses `digests.tsv`: `report|trace <TAB> hash <TAB> len <TAB>
    /// request` per line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let bad = || format!("{FILE}:{}: malformed line", i + 1);
            let mut cols = line.splitn(4, '\t');
            let (Some(kind), Some(hash), Some(len), Some(key)) =
                (cols.next(), cols.next(), cols.next(), cols.next())
            else {
                return Err(bad());
            };
            let kind = match kind {
                "report" => Kind::Report,
                "trace" => Kind::Trace,
                _ => return Err(bad()),
            };
            let hash = u64::from_str_radix(hash, 16).map_err(|_| bad())?;
            let len = len.parse().map_err(|_| bad())?;
            entries.insert((key.to_owned(), kind), Digest { hash, len });
        }
        Ok(Table { entries })
    }

    /// Checks `bytes` against the committed digest of `key`'s output.
    pub fn check(&self, key: &str, kind: Kind, bytes: &[u8]) -> Result<(), String> {
        match self.entries.get(&(key.to_owned(), kind)) {
            None => Err(format!("no committed {} digest for {key}", kind.name())),
            Some(want) if *want == digest(bytes) => Ok(()),
            Some(_) => Err(format!("{} digest mismatch for {key}", kind.name())),
        }
    }

    /// Records the digest of `bytes` (used when regenerating the table).
    pub fn insert(&mut self, key: &str, kind: Kind, bytes: &[u8]) {
        self.entries.insert((key.to_owned(), kind), digest(bytes));
    }

    /// The table in its file format, sorted by request.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|((key, kind), d)| format!("{}\t{d}\t{key}\n", kind.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_changed_byte_or_length_changes_the_digest() {
        let base = b"{\"total_ps\":123456789,\"collectives\":42}".to_vec();
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 1;
            assert_ne!(digest(&base), digest(&changed), "byte {i}");
        }
        assert_ne!(digest(&base), digest(&base[..base.len() - 1]));
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(digest(&base), digest(&padded));
    }

    #[test]
    fn table_round_trips_and_rejects_mismatches() {
        let mut table = Table::default();
        table.insert("{\"topology\":\"SW(8)@400\"}", Kind::Report, b"abc");
        let parsed = Table::parse(&table.render()).expect("rendered table parses");
        assert!(parsed
            .check("{\"topology\":\"SW(8)@400\"}", Kind::Report, b"abc")
            .is_ok());
        assert!(parsed
            .check("{\"topology\":\"SW(8)@400\"}", Kind::Report, b"abd")
            .is_err());
        assert!(parsed
            .check("{\"topology\":\"SW(8)@400\"}", Kind::Trace, b"abc")
            .is_err());
        assert!(Table::parse("report\tzz\t3\tkey").is_err());
    }
}
