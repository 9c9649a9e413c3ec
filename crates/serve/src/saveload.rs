//! Artifact persistence: a versioned save/load envelope over bincode.
//!
//! Every serializable fitted component (recommender models, θ vectors,
//! coverage state, whole [`crate::ModelBundle`]s) gets [`SaveLoad`] through
//! a blanket impl: 4 magic bytes + a format version + the bincode payload.
//! The payload encoding is positional, so the version gate is what makes
//! artifacts safe to evolve — readers refuse payloads written by a
//! different format generation instead of misinterpreting them.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic bytes of every artifact written by this crate.
pub const MAGIC: [u8; 4] = *b"GANC";

/// Current artifact format version. Bump on any change to the serialized
/// shape of a persisted type.
///
/// v2: coverage snapshots are delta-encoded (`O(|I| + S·N)` bytes instead
/// of `O(S·|I|)` dense count vectors).
///
/// v3: PSVD, RSVD and RankMF store their item factors transposed
/// (`k × n_items`) and their user factors as a matrix; a v2 payload read as
/// v3 would hand the scoring kernel an `n_items × k` matrix, so the gate
/// refuses it.
///
/// v4 (this build): a train set stores only its user-major CSR. A v3
/// payload also carries the item-major transpose, which a v4 reader does
/// not expect, so the gate refuses it.
pub const FORMAT_VERSION: u16 = 4;

/// Replace the file at `path` with `bytes` atomically: write a sibling
/// `<name>.tmp`, `sync_data` it, `rename` it over `path`. A crash or an
/// error at any point leaves the old file or the new one, never a torn
/// one — the only way this crate writes a file a node later loads.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_data()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Why an artifact failed to persist or load.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error (path attached).
    Io(String, std::io::Error),
    /// The payload failed to encode or decode.
    Codec(bincode::Error),
    /// The artifact does not start with [`MAGIC`].
    BadMagic,
    /// The artifact was written by an incompatible format generation.
    VersionMismatch {
        /// Version found in the artifact header.
        found: u16,
        /// Version this build reads.
        expected: u16,
    },
    /// The artifact is too short to contain a header.
    Truncated,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(path, e) => write!(f, "io error on {path}: {e}"),
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
            PersistError::BadMagic => write!(f, "not a GANC artifact (bad magic)"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "artifact format v{found}, this build reads v{expected}")
            }
            PersistError::Truncated => write!(f, "artifact truncated before header end"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<bincode::Error> for PersistError {
    fn from(e: bincode::Error) -> PersistError {
        PersistError::Codec(e)
    }
}

/// Versioned binary persistence for fitted artifacts.
///
/// Blanket-implemented for every `Serialize + Deserialize` type, so each
/// fitted component can be saved standalone and a [`crate::ModelBundle`]
/// is just one more artifact.
pub trait SaveLoad: Sized {
    /// Encode with the magic/version envelope.
    fn to_bytes(&self) -> Result<Vec<u8>, PersistError>;

    /// Decode, verifying magic and version.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError>;

    /// Write the artifact to a file, atomically: a sibling `<name>.tmp` is
    /// written, synced and renamed over `path`.
    fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        atomic_write(path, &bytes).map_err(|e| PersistError::Io(path.display().to_string(), e))
    }

    /// Read an artifact from a file.
    fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| PersistError::Io(path.display().to_string(), e))?;
        Self::from_bytes(&bytes)
    }
}

impl<T> SaveLoad for T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let payload = bincode::serialize(self)?;
        let mut out = Vec::with_capacity(payload.len() + 6);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < 6 {
            return Err(PersistError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let found = u16::from_le_bytes([bytes[4], bytes[5]]);
        if found != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch {
                found,
                expected: FORMAT_VERSION,
            });
        }
        Ok(bincode::deserialize(&bytes[6..])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let v: Vec<f64> = vec![1.5, -2.25, 0.0];
        let bytes = v.to_bytes().unwrap();
        assert_eq!(&bytes[..4], b"GANC");
        assert_eq!(Vec::<f64>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = vec![7.0f64].to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            Vec::<f64>::from_bytes(&bytes),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = vec![7.0f64].to_bytes().unwrap();
        // A later generation, the pre-release 0, and the retired v1–v3.
        for other in [99u8, 0, 1, 2, 3] {
            bytes[4] = other;
            match Vec::<f64>::from_bytes(&bytes) {
                Err(PersistError::VersionMismatch { found, expected }) => {
                    assert_eq!((found, expected), (other as u16, FORMAT_VERSION));
                }
                got => panic!("v{other} header: expected VersionMismatch, got {got:?}"),
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Vec::<f64>::from_bytes(b"GAN"),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ganc_saveload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("theta.ganc");
        let theta: Vec<f64> = (0..100).map(|k| k as f64 / 100.0).collect();
        theta.save(&path).unwrap();
        assert_eq!(Vec::<f64>::load(&path).unwrap(), theta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_atomically_or_not_at_all() {
        let dir = std::env::temp_dir().join(format!("ganc_atomic_save_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.shard0.ganc");
        let sibling = dir.join("bundle.shard0.ganc.tmp");
        let old: Vec<f64> = vec![1.0, 2.0, 3.0];
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        let entries = || std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries(), 1, "a successful save leaves no sibling behind");

        // The sibling cannot be created (a directory squats on its name):
        // the save fails and the existing artifact is untouched.
        std::fs::create_dir(&sibling).unwrap();
        let err = vec![9.0f64; 64].save(&path).unwrap_err();
        assert!(matches!(err, PersistError::Io(..)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);
        std::fs::remove_dir(&sibling).unwrap();

        // Unblocked, the same save replaces the artifact whole.
        let new = vec![9.0f64; 64];
        new.save(&path).unwrap();
        assert_eq!(Vec::<f64>::load(&path).unwrap(), new);
        assert_eq!(entries(), 1, "no `*.tmp` survives a successful save");
        std::fs::remove_dir_all(&dir).ok();
    }
}
