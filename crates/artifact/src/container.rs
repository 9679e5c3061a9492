//! The `BIQM` single-file container: header, table of contents, aligned
//! sections.
//!
//! ```text
//! offset 0    header (64 bytes, little-endian):
//!               magic        [4]  b"BIQM"
//!               version      u16  = 3
//!               reserved     u16
//!               file_len     u64  total bytes, header included
//!               manifest_off u64  ┐ model manifest (opaque to this module,
//!               manifest_len u64  ┘ see `manifest`)
//!               toc_off      u64  ┐ table of contents
//!               toc_count    u32  ┘ (one 40-byte entry per section)
//!               reserved     u32
//!               checksum     u64  FNV-1a64 over bytes [64, file_len)
//!               padding      [8]
//! offset 64   sections, each padded to a 64-byte boundary
//! ...         manifest bytes
//! ...         TOC entries: kind u32, elem u32, layer u32, reserved u32,
//!                          offset u64, len u64, checksum u64
//! ```
//!
//! Sections are raw little-endian element arrays. The 64-byte alignment is
//! the load-bearing property: a loaded file is one shared `Arc<[u8]>`, and
//! every section can be reinterpreted in place as `&[u8]`/`&[f32]`/`&[u64]`
//! ([`Artifact::section_view`]) — loading is a validation pass plus a
//! handful of plan rebuilds, never a payload copy.

use biq_matrix::store::{Pod, PodCastError, PodView};
use std::fmt;
use std::sync::Arc;

/// Magic of a compiled-model artifact.
pub const MAGIC_MODEL: &[u8; 4] = b"BIQM";

/// Container format version this build writes and reads. Version 3 stores
/// BiQGEMM key sections `⌈µ/8⌉` bytes per key ([`ElemKind::U8`] for µ ≤ 8);
/// versions 1–2 stored every key as `u16` and are refused with
/// [`ArtifactError::BadVersion`] — recompile the model, there is no
/// conversion path.
pub const VERSION: u16 = 3;

/// Header size; also the alignment every section offset honours.
pub const HEADER_LEN: usize = 64;

/// Section payload alignment within the file.
pub const SECTION_ALIGN: usize = 64;

/// Byte size of one TOC entry.
pub const TOC_ENTRY_LEN: usize = 40;

/// Sanity cap on the section count (a 4 GB artifact of empty sections would
/// still sit far below this; corrupt headers must not drive allocations).
const MAX_SECTIONS: usize = 1 << 20;

/// 64-bit integrity checksum, FNV-1a-style but folded over 8-byte words so
/// hashing a multi-megabyte payload section costs one pass at word speed
/// (cold-start load time is the format's whole point). Every step of the
/// fold is a bijection of the state for fixed input, so any single-bit
/// difference in the data propagates to a different final value.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 29;
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K);
    }
    h
}

/// Element type of a section's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum ElemKind {
    /// Raw bytes (BiQGEMM keys at µ ≤ 8).
    U8 = 0,
    /// `i8` (int8 weight values).
    I8 = 1,
    /// Little-endian `u16` (BiQGEMM keys at µ 9–16).
    U16 = 2,
    /// Little-endian `u32`.
    U32 = 3,
    /// Little-endian `u64` (XNOR sign words).
    U64 = 4,
    /// Little-endian IEEE-754 `f32` (scales, dense weights, biases).
    F32 = 5,
}

impl ElemKind {
    fn from_u32(v: u32) -> Result<Self, ArtifactError> {
        Ok(match v {
            0 => ElemKind::U8,
            1 => ElemKind::I8,
            2 => ElemKind::U16,
            3 => ElemKind::U32,
            4 => ElemKind::U64,
            5 => ElemKind::F32,
            other => return Err(ArtifactError::Corrupt(format!("unknown element kind {other}"))),
        })
    }

    /// Bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            ElemKind::U8 | ElemKind::I8 => 1,
            ElemKind::U16 => 2,
            ElemKind::U32 | ElemKind::F32 => 4,
            ElemKind::U64 => 8,
        }
    }
}

/// Identifier of a section: its index in the TOC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionId(pub u32);

/// One TOC entry.
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Free-form component tag (see `manifest::sec` for the assignments).
    pub kind: u32,
    /// Element type of the payload.
    pub elem: ElemKind,
    /// Layer index the section belongs to (`u32::MAX` for model-level
    /// parameters).
    pub layer: u32,
    /// Byte offset from the start of the file (multiple of 64).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a64 of the payload.
    pub checksum: u64,
}

/// Everything that can go wrong opening or reading an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Wrong magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported container version.
    BadVersion(u16),
    /// Buffer shorter than a header/TOC/section promises.
    Truncated,
    /// A stored checksum disagrees with the recomputed one.
    ChecksumMismatch {
        /// What was being verified (`"file"` or a section id).
        what: String,
    },
    /// Structurally invalid metadata (overlaps, misalignment, bad tags).
    Corrupt(String),
    /// A section could not be reinterpreted as its element type.
    Cast(PodCastError),
    /// The model manifest failed to decode or referred to missing sections.
    Manifest(String),
    /// Underlying I/O failure (file loading convenience paths).
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic(m) => write!(f, "bad magic {m:?} (expected BIQM)"),
            ArtifactError::BadVersion(v) => write!(f, "unsupported artifact version {v}"),
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::ChecksumMismatch { what } => write!(f, "checksum mismatch on {what}"),
            ArtifactError::Corrupt(s) => write!(f, "corrupt artifact: {s}"),
            ArtifactError::Cast(e) => write!(f, "section cast failed: {e}"),
            ArtifactError::Manifest(s) => write!(f, "bad manifest: {s}"),
            ArtifactError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<PodCastError> for ArtifactError {
    fn from(e: PodCastError) -> Self {
        ArtifactError::Cast(e)
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Writer assembling a `BIQM` file in memory.
#[derive(Debug, Default)]
pub struct ArtifactBuilder {
    sections: Vec<(u32, ElemKind, u32, Vec<u8>)>,
}

impl ArtifactBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section; returns its id for manifest references.
    ///
    /// # Panics
    /// Panics if `payload.len()` is not a multiple of the element size.
    pub fn add_section(
        &mut self,
        kind: u32,
        elem: ElemKind,
        layer: u32,
        payload: Vec<u8>,
    ) -> SectionId {
        assert_eq!(
            payload.len() % elem.elem_bytes(),
            0,
            "payload length must be a multiple of the element size"
        );
        let id = SectionId(self.sections.len() as u32);
        self.sections.push((kind, elem, layer, payload));
        id
    }

    /// Convenience: appends an `f32` section from values.
    pub fn add_f32_section(&mut self, kind: u32, layer: u32, values: &[f32]) -> SectionId {
        self.add_section(
            kind,
            ElemKind::F32,
            layer,
            values.iter().flat_map(|v| v.to_le_bytes()).collect(),
        )
    }

    /// Number of sections added so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Seals the container around `manifest` and returns the file bytes.
    pub fn finish(self, manifest: &[u8]) -> Vec<u8> {
        // Layout: header | aligned sections | manifest | TOC. The header
        // is written zeroed and its fields patched in once the rest is laid.
        let count = self.sections.len();
        let payloads: usize = self.sections.iter().map(|s| s.3.len() + SECTION_ALIGN).sum();
        let mut file =
            Vec::with_capacity(HEADER_LEN + payloads + manifest.len() + count * TOC_ENTRY_LEN);
        file.resize(HEADER_LEN, 0);
        let mut toc = Vec::with_capacity(count * TOC_ENTRY_LEN);
        for (kind, elem, layer, payload) in &self.sections {
            file.resize(file.len().next_multiple_of(SECTION_ALIGN), 0);
            for field in [*kind, *elem as u32, *layer, 0] {
                toc.extend_from_slice(&field.to_le_bytes());
            }
            for field in [file.len() as u64, payload.len() as u64, fnv1a64(payload)] {
                toc.extend_from_slice(&field.to_le_bytes());
            }
            file.extend_from_slice(payload);
        }
        let manifest_off = file.len();
        file.extend_from_slice(manifest);
        let toc_off = file.len();
        file.extend_from_slice(&toc);
        let fields: [&[u8]; 10] = [
            MAGIC_MODEL,
            &VERSION.to_le_bytes(),
            &[0; 2],
            &(file.len() as u64).to_le_bytes(),
            &(manifest_off as u64).to_le_bytes(),
            &(manifest.len() as u64).to_le_bytes(),
            &(toc_off as u64).to_le_bytes(),
            &(count as u32).to_le_bytes(),
            &[0; 4],
            // The body checksum covers manifest + TOC only; each section is
            // covered by its own TOC checksum, so loading hashes every
            // payload byte exactly once.
            &fnv1a64(&file[manifest_off..]).to_le_bytes(),
        ];
        let header = fields.concat();
        debug_assert_eq!(header.len() + 8, HEADER_LEN, "the header ends in 8 zero bytes");
        file[..header.len()].copy_from_slice(&header);
        file
    }
}

/// A validated, loaded `BIQM` container. Every accessor hands out views
/// into the one shared buffer.
#[derive(Debug)]
pub struct Artifact {
    data: Arc<[u8]>,
    sections: Vec<SectionInfo>,
    manifest_off: usize,
    manifest_len: usize,
}

impl Artifact {
    /// Validates `data` as a `BIQM` file: magic, version, bounds, the
    /// whole-body checksum, and every TOC entry (alignment, bounds, payload
    /// checksum). No payload is copied: the artifact keeps `data` and
    /// hands out views into it.
    pub fn from_bytes(data: impl Into<Arc<[u8]>>) -> Result<Self, ArtifactError> {
        let data: Arc<[u8]> = data.into();
        if data.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated);
        }
        let magic = le::<4>(&data, 0);
        if &magic != MAGIC_MODEL {
            return Err(ArtifactError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(le(&data, 4));
        if version != VERSION {
            return Err(ArtifactError::BadVersion(version));
        }
        let u64_at = |at| u64::from_le_bytes(le(&data, at)) as usize;
        let (file_len, manifest_off, manifest_len) = (u64_at(8), u64_at(16), u64_at(24));
        let toc_off = u64_at(32);
        let toc_count = u32::from_le_bytes(le(&data, 40)) as usize;
        let checksum = u64::from_le_bytes(le(&data, 48));
        // The header sits outside the body checksum; its reserved bytes
        // (6..8, 44..48 and the padding 56..64) must be zero so a bit flip
        // anywhere in the file is detectable.
        let reserved = [&data[6..8], &data[44..48], &data[56..HEADER_LEN]];
        if reserved.into_iter().flatten().any(|&b| b != 0) {
            return Err(ArtifactError::Corrupt("reserved header bytes must be zero".into()));
        }

        if file_len != data.len() {
            return Err(if file_len > data.len() {
                ArtifactError::Truncated
            } else {
                ArtifactError::Corrupt(format!(
                    "file length field {file_len} disagrees with buffer {}",
                    data.len()
                ))
            });
        }
        if toc_count > MAX_SECTIONS {
            return Err(ArtifactError::Corrupt(format!("section count {toc_count} too large")));
        }
        // The file must tile exactly: header | sections (aligned, in TOC
        // order, zero-padded gaps) | manifest | TOC. Anything else —
        // overlaps, holes, trailing bytes — is corruption. The body
        // checksum covers manifest + TOC; the TOC's per-section checksums
        // cover every payload byte, so one flipped bit anywhere fails.
        let toc_bytes = toc_count
            .checked_mul(TOC_ENTRY_LEN)
            .ok_or_else(|| ArtifactError::Corrupt("TOC size overflow".into()))?;
        let manifest_end = manifest_off
            .checked_add(manifest_len)
            .ok_or_else(|| ArtifactError::Corrupt("manifest extent overflow".into()))?;
        if manifest_off < HEADER_LEN || manifest_end > file_len {
            return Err(ArtifactError::Corrupt("manifest out of bounds".into()));
        }
        if toc_off != manifest_end {
            return Err(ArtifactError::Corrupt("TOC must directly follow the manifest".into()));
        }
        let toc_end = toc_off
            .checked_add(toc_bytes)
            .ok_or_else(|| ArtifactError::Corrupt("TOC offset overflow".into()))?;
        if toc_end != file_len {
            return Err(ArtifactError::Corrupt("TOC must end the file".into()));
        }
        if fnv1a64(&data[manifest_off..file_len]) != checksum {
            return Err(ArtifactError::ChecksumMismatch { what: "file body".into() });
        }

        let raw = &data[..];
        let mut sections = Vec::with_capacity(toc_count);
        let mut cursor = HEADER_LEN;
        for (idx, entry) in raw[toc_off..toc_end].chunks_exact(TOC_ENTRY_LEN).enumerate() {
            let u32_at = |at| u32::from_le_bytes(le(entry, at));
            let u64_at = |at| u64::from_le_bytes(le(entry, at));
            let (kind, layer) = (u32_at(0), u32_at(8));
            let elem = ElemKind::from_u32(u32_at(4))?;
            let (offset, len, sec_checksum) = (u64_at(16), u64_at(24), u64_at(32));
            let off = offset as usize;
            let end = off
                .checked_add(len as usize)
                .ok_or_else(|| ArtifactError::Corrupt(format!("section {idx} extent overflow")))?;
            if !off.is_multiple_of(SECTION_ALIGN) {
                return Err(ArtifactError::Corrupt(format!("section {idx} misaligned ({off})")));
            }
            if off < cursor || end > manifest_off {
                return Err(ArtifactError::Corrupt(format!(
                    "section {idx} breaks the file tiling"
                )));
            }
            if raw[cursor..off].iter().any(|&b| b != 0) {
                return Err(ArtifactError::Corrupt(format!(
                    "nonzero alignment padding before section {idx}"
                )));
            }
            if !(len as usize).is_multiple_of(elem.elem_bytes()) {
                return Err(ArtifactError::Corrupt(format!(
                    "section {idx} length {len} ragged for {elem:?}"
                )));
            }
            if fnv1a64(&raw[off..end]) != sec_checksum {
                return Err(ArtifactError::ChecksumMismatch { what: format!("section {idx}") });
            }
            sections.push(SectionInfo { kind, elem, layer, offset, len, checksum: sec_checksum });
            cursor = end;
        }
        if raw[cursor..manifest_off].iter().any(|&b| b != 0) {
            return Err(ArtifactError::Corrupt("nonzero padding before the manifest".into()));
        }
        Ok(Self { data, sections, manifest_off, manifest_len })
    }

    /// Reads and validates an artifact file.
    pub fn open(path: &std::path::Path) -> Result<Self, ArtifactError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// The whole file buffer (for pointer-identity checks and re-serving).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// TOC metadata of section `id`.
    pub fn section(&self, id: SectionId) -> Result<&SectionInfo, ArtifactError> {
        self.sections
            .get(id.0 as usize)
            .ok_or_else(|| ArtifactError::Manifest(format!("missing section {}", id.0)))
    }

    /// All TOC entries, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Raw payload of section `id` — a slice of the file buffer.
    pub fn section_bytes(&self, id: SectionId) -> Result<&[u8], ArtifactError> {
        Ok(&self.data[self.section_range(id)?])
    }

    /// Byte range of section `id` within the file buffer.
    fn section_range(&self, id: SectionId) -> Result<std::ops::Range<usize>, ArtifactError> {
        let info = self.section(id)?;
        Ok(info.offset as usize..(info.offset + info.len) as usize)
    }

    /// Typed zero-copy view of section `id`; the element kind in the TOC
    /// must match `expect`.
    pub fn section_view<T: Pod>(
        &self,
        id: SectionId,
        expect: ElemKind,
    ) -> Result<PodView<T>, ArtifactError> {
        let info = self.section(id)?;
        if info.elem != expect {
            return Err(ArtifactError::Manifest(format!(
                "section {} holds {:?}, expected {expect:?}",
                id.0, info.elem
            )));
        }
        if std::mem::size_of::<T>() != expect.elem_bytes() {
            return Err(ArtifactError::Manifest(format!(
                "element width mismatch viewing section {}",
                id.0
            )));
        }
        Ok(PodView::new(Arc::clone(&self.data), self.section_range(id)?)?)
    }

    /// The manifest payload.
    pub fn manifest_bytes(&self) -> &[u8] {
        &self.data[self.manifest_off..self.manifest_off + self.manifest_len]
    }
}

/// The `N` bytes of `buf` at `at`; the caller has checked the length.
fn le<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf[at..at + N].try_into().expect("length checked by the caller")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_file() -> Vec<u8> {
        let mut b = ArtifactBuilder::new();
        let payload: Vec<u8> = (0u16..100).flat_map(|v| v.to_le_bytes()).collect();
        b.add_section(1, ElemKind::U16, 0, payload);
        b.add_section(2, ElemKind::F32, 7, vec![0u8; 12]);
        b.finish(b"MANIFEST!")
    }

    #[test]
    fn round_trip_header_sections_manifest() {
        let file = two_section_file();
        let a = Artifact::from_bytes(file).unwrap();
        assert_eq!(a.section_count(), 2);
        assert_eq!(a.manifest_bytes(), b"MANIFEST!");
        let s0 = a.section(SectionId(0)).unwrap();
        assert_eq!(s0.kind, 1);
        assert_eq!(s0.offset % SECTION_ALIGN as u64, 0);
        let view = a.section_view::<u16>(SectionId(0), ElemKind::U16).unwrap();
        assert_eq!(view.as_slice()[99], 99);
        let s1 = a.section(SectionId(1)).unwrap();
        assert_eq!((s1.layer, s1.len), (7, 12));
    }

    #[test]
    fn section_views_point_into_the_file_buffer() {
        let a = Artifact::from_bytes(two_section_file()).unwrap();
        let base = a.as_bytes().as_ptr() as usize;
        let end = base + a.as_bytes().len();
        let view = a.section_view::<u16>(SectionId(0), ElemKind::U16).unwrap();
        let p = view.as_slice().as_ptr() as usize;
        assert!(p >= base && p < end, "zero-copy view must live inside the file buffer");
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let file = two_section_file();
        for idx in [4usize, 20, HEADER_LEN + 3, file.len() - 2] {
            let mut corrupt = file.clone();
            corrupt[idx] ^= 0x40;
            assert!(Artifact::from_bytes(corrupt).is_err(), "flip at byte {idx} must be caught");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let file = two_section_file();
        for cut in [0usize, 3, HEADER_LEN - 1, HEADER_LEN + 10, file.len() - 1] {
            assert!(Artifact::from_bytes(&file[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let file = two_section_file();
        let mut m = file.clone();
        m[0] = b'X';
        assert!(matches!(Artifact::from_bytes(m), Err(ArtifactError::BadMagic(_))));
        // A version flip also perturbs the file bytes, but the header is
        // outside the checksum region, so the version check fires first.
        let mut v = file;
        v[4] = 99;
        assert!(matches!(Artifact::from_bytes(v), Err(ArtifactError::BadVersion(99))));
    }

    #[test]
    fn nan_bits_preserved() {
        let bits = [0x7FC0_1234u32, 0xFFA0_0001, 0x7F80_0001];
        let mut b = ArtifactBuilder::new();
        b.add_f32_section(1, 0, &bits.map(f32::from_bits));
        let a = Artifact::from_bytes(b.finish(b"")).unwrap();
        let view = a.section_view::<f32>(SectionId(0), ElemKind::F32).unwrap();
        assert_eq!(view.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
    }

    #[test]
    fn elem_kind_mismatch_refused() {
        let a = Artifact::from_bytes(two_section_file()).unwrap();
        assert!(a.section_view::<f32>(SectionId(0), ElemKind::F32).is_err());
    }

    #[test]
    fn empty_artifact_is_valid() {
        let b = ArtifactBuilder::new();
        let a = Artifact::from_bytes(b.finish(b"")).unwrap();
        assert_eq!(a.section_count(), 0);
        assert!(a.manifest_bytes().is_empty());
    }
}
