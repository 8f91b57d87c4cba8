//! Low-level wire reader/writer.
//!
//! The writer remembers where it wrote each name, so messages use RFC 1035
//! §4.1.4 compression pointers; the reader follows pointers with loop and
//! bounds protection.

use crate::name::{Name, MAX_NAME_LEN};

/// Maximum offset addressable by a 14-bit compression pointer.
const MAX_POINTER_TARGET: usize = 0x3fff;

/// Hard cap on compression-pointer jumps followed while decoding one name.
///
/// A 255-byte name has at most 127 labels, so any legitimate chain — even
/// one pointer per label — stays far below this. The monotonic-target rule
/// in [`WireReader::read_name`] already makes loops structurally
/// impossible; the cap is defence in depth against degenerate (but acyclic)
/// chains in hostile messages.
pub const MAX_POINTER_JUMPS: u32 = 64;

/// Errors while decoding wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer points at or past its own position.
    ForwardPointer,
    /// A pointer chain loops: a jump landed at or after an earlier jump
    /// target, or more than [`MAX_POINTER_JUMPS`] jumps were followed.
    PointerLoop,
    /// A label length byte uses the reserved 0b10/0b01 prefixes.
    BadLabelType,
    /// Decoded name exceeds 255 bytes.
    NameTooLong,
    /// RDATA length did not match its contents.
    BadRdataLength,
    /// A count field promised more entries than the message holds.
    BadCount,
    /// Malformed record content (type-specific).
    BadRdata,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::ForwardPointer => write!(f, "compression pointer points forward"),
            WireError::PointerLoop => write!(f, "compression pointer chain loops"),
            WireError::BadLabelType => write!(f, "reserved label type"),
            WireError::NameTooLong => write!(f, "decoded name too long"),
            WireError::BadRdataLength => write!(f, "rdata length mismatch"),
            WireError::BadCount => write!(f, "section count exceeds message"),
            WireError::BadRdata => write!(f, "malformed rdata"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked reader over a message buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the buffer is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.read_u8()? as u16;
        let lo = self.read_u8()? as u16;
        Ok((hi << 8) | lo)
    }

    /// Read a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.read_u16()? as u32;
        let lo = self.read_u16()? as u32;
        Ok((hi << 16) | lo)
    }

    /// Read `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read a possibly-compressed name.
    ///
    /// Pointer chasing is bounded two ways. Every jump must land strictly
    /// before its own position ([`WireError::ForwardPointer`] otherwise)
    /// *and* strictly before every earlier jump target, so targets decrease
    /// monotonically and loops are structurally impossible
    /// ([`WireError::PointerLoop`]). Compliant encoders always point at the
    /// first occurrence of a suffix, which was written before the name now
    /// referencing it, so real messages satisfy the monotonic rule; only
    /// crafted chains trip it. A hard cap of [`MAX_POINTER_JUMPS`] jumps
    /// backstops degenerate acyclic chains.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        // The labels as they will be stored: flat, without the root byte.
        let mut flat = [0u8; MAX_NAME_LEN - 1];
        let mut flat_len = 0usize;
        let mut pos = self.pos;
        let mut followed: u32 = 0;
        let mut lowest_target: Option<usize> = None;
        let mut end_after_first_pointer: Option<usize> = None;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated)? as usize;
            match len & 0xc0 {
                0x00 => {
                    if len == 0 {
                        pos += 1;
                        break;
                    }
                    let label = self.buf.get(pos..pos + 1 + len);
                    let label = label.ok_or(WireError::Truncated)?;
                    let dst = flat.get_mut(flat_len..flat_len + 1 + len);
                    dst.ok_or(WireError::NameTooLong)?.copy_from_slice(label);
                    flat_len += 1 + len;
                    pos += 1 + len;
                }
                0xc0 => {
                    let lo = *self.buf.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                    let target = ((len & 0x3f) << 8) | lo;
                    if end_after_first_pointer.is_none() {
                        end_after_first_pointer = Some(pos + 2);
                    }
                    if target >= pos {
                        return Err(WireError::ForwardPointer);
                    }
                    if lowest_target.is_some_and(|lowest| target >= lowest) {
                        return Err(WireError::PointerLoop);
                    }
                    lowest_target = Some(target);
                    followed += 1;
                    if followed > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    pos = target;
                }
                _ => return Err(WireError::BadLabelType),
            }
        }
        self.pos = end_after_first_pointer.unwrap_or(pos);
        Ok(Name::from_wire_unchecked(&flat[..flat_len]))
    }
}

/// A growing list of small `Copy` values: inline, with its owner, up to
/// `N` entries — what a UDP-sized message needs never allocates — and on
/// the heap as a whole once it outgrows that.
#[derive(Debug, Clone)]
struct SmallList<T, const N: usize> {
    inline: [T; N],
    inline_len: usize,
    /// Empty until the list outgrows `inline`; every entry from then on.
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    fn new() -> Self {
        SmallList {
            inline: [T::default(); N],
            inline_len: 0,
            heap: Vec::new(),
        }
    }

    fn as_slice(&self) -> &[T] {
        if self.heap.is_empty() {
            &self.inline[..self.inline_len]
        } else {
            &self.heap
        }
    }

    fn push(&mut self, item: T) {
        if self.heap.is_empty() && self.inline_len < N {
            self.inline[self.inline_len] = item;
            self.inline_len += 1;
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(item);
        }
    }

    /// Keep the first `len` entries.
    fn truncate(&mut self, len: usize) {
        self.inline_len = self.inline_len.min(len);
        self.heap.truncate(len);
    }
}

/// Entries the writer's name table and pointer log hold inline.
const INLINE_NAMES: usize = 48;

/// Growable writer with a name-compression table.
///
/// The table is the list of offsets at which a label of a compressible
/// name was written; the name that starts at each one is read back from
/// the buffer (following the pointers that end it) when a later name looks
/// for a suffix already present. No key is stored and, for messages of a
/// few dozen names, nothing is allocated.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Offsets (each at most [`MAX_POINTER_TARGET`]) of the labels written
    /// by [`Self::put_name_compressed`], in write order. Every entry starts
    /// a different name: a suffix that is already present is pointed at,
    /// not written again.
    names: SmallList<u16, INLINE_NAMES>,
    /// Whether `put_name_compressed` emits pointers (ablation toggle).
    compression_enabled: bool,
    /// Every compression pointer emitted, as `(position, target)` — the
    /// offset of the 2-byte pointer itself and the offset it refers to.
    /// Response-template builders use this to relocate pointers when the
    /// question region they were encoded against changes length.
    pointers: SmallList<(u32, u16), INLINE_NAMES>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    /// New empty writer with compression enabled.
    pub fn new() -> Self {
        Self::with_buffer(Vec::with_capacity(512))
    }

    /// New writer with compression disabled (for the codec ablation bench).
    pub fn without_compression() -> Self {
        WireWriter {
            compression_enabled: false,
            ..Self::new()
        }
    }

    /// A writer that reuses `buf`'s allocation (cleared first). Pair with
    /// [`Self::into_bytes`] to encode repeatedly without reallocating.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter {
            buf,
            names: SmallList::new(),
            compression_enabled: true,
            pointers: SmallList::new(),
        }
    }

    /// Start the next message in `buf` (cleared first), forgetting every
    /// name and pointer of the last one: a writer kept across messages
    /// resets two list lengths where [`Self::with_buffer`] fills both
    /// inline tables anew. Pair with [`Self::take_bytes`].
    pub fn reset(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.buf = buf;
        self.names.truncate(0);
        self.pointers.truncate(0);
    }

    /// Hand the bytes written so far back without consuming the writer
    /// (no copy: its own allocation; the writer is left empty).
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append raw bytes with their ASCII letters lowercased.
    pub(crate) fn put_bytes_lowercase(&mut self, v: &[u8]) {
        let at = self.buf.len();
        self.buf.extend_from_slice(v);
        self.buf[at..].make_ascii_lowercase();
    }

    /// Overwrite a previously written big-endian u16 (for patching RDLENGTH
    /// and section counts).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset] = (v >> 8) as u8;
        self.buf[offset + 1] = v as u8;
    }

    /// Drop everything written at or after offset `len`, the names and
    /// pointers recorded there included (a server cutting a response back
    /// to the last record that fits its budget).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        // Both lists are in write order, so ascending by offset.
        let names = self.names.as_slice();
        self.names
            .truncate(names.partition_point(|&off| (off as usize) < len));
        let pointers = self.pointers.as_slice();
        self.pointers
            .truncate(pointers.partition_point(|&(pos, _)| (pos as usize) < len));
    }

    /// Write a name using compression pointers where a suffix was already
    /// emitted. `name` is the flat wire form without the root byte
    /// ([`Name::as_wire`]), leftmost label first.
    pub fn put_name_compressed(&mut self, name: &[u8]) {
        let mut rest = name;
        // The labels this call registers start names longer than any
        // suffix still to come (and still unfinished): not candidates.
        let known = self.names.as_slice().len();
        while let Some(&len) = rest.first() {
            if self.compression_enabled {
                if let Some(off) = self.find_name(rest, known) {
                    self.pointers.push((self.buf.len() as u32, off));
                    self.put_u16(0xc000 | off);
                    return;
                }
                if self.buf.len() <= MAX_POINTER_TARGET {
                    self.names.push(self.buf.len() as u16);
                }
            }
            let (label, tail) = rest.split_at(1 + len as usize);
            self.put_bytes(label);
            rest = tail;
        }
        self.put_u8(0);
    }

    /// [`Self::put_name_compressed`], returning where a later copy of
    /// `name` may point: the target of the pointer the name was written as,
    /// or the offset of its first label once registered. Either is the
    /// first registered name equal to `name` — what `put_name_compressed`
    /// finds for a second copy, since registration only appends. `None`
    /// when that call would find nothing: the root, compression off, or a
    /// first label past 0x3FFF, which is not registered.
    pub fn put_name_compressed_at(&mut self, name: &[u8]) -> Option<u16> {
        let start = self.buf.len();
        let (known, logged) = (self.names.as_slice().len(), self.pointers.as_slice().len());
        self.put_name_compressed(name);
        match self.pointers.as_slice().get(logged) {
            Some(&(pos, target)) if pos as usize == start => Some(target),
            _ => {
                let first = self.names.as_slice().get(known);
                (start <= MAX_POINTER_TARGET && first == Some(&(start as u16)))
                    .then_some(start as u16)
            }
        }
    }

    /// Write a name as a pointer to `target`, an offset
    /// [`Self::put_name_compressed_at`] returned for an equal name, logged
    /// as `put_name_compressed` logs its own: the bytes and the log a
    /// second `put_name_compressed` of that name writes, as long as the
    /// writer was not truncated to `target` or below in between.
    pub fn put_name_pointer(&mut self, target: u16) {
        debug_assert!(target as usize <= MAX_POINTER_TARGET && (target as usize) < self.buf.len());
        self.pointers.push((self.buf.len() as u32, target));
        self.put_u16(0xc000 | target);
    }

    /// The offset, among the first `known` registered, of the name that
    /// equals `name` (flat, non-root) ignoring case.
    fn find_name(&self, name: &[u8], known: usize) -> Option<u16> {
        let names = self.names.as_slice()[..known].iter();
        names
            .copied()
            .find(|&off| self.name_at_is(off as usize, name))
    }

    /// Whether the name written at `pos` — labels up to a root byte, or up
    /// to a pointer and on from its target — is `name`, ignoring case.
    fn name_at_is(&self, mut pos: usize, mut name: &[u8]) -> bool {
        loop {
            let len = self.buf[pos] as usize;
            if len & 0xc0 == 0xc0 {
                pos = (len & 0x3f) << 8 | self.buf[pos + 1] as usize;
            } else if len == 0 || name.len() <= len {
                return len == 0 && name.is_empty();
            } else {
                let (label, rest) = name.split_at(1 + len);
                if !self.buf[pos..pos + 1 + len].eq_ignore_ascii_case(label) {
                    return false;
                }
                pos += 1 + len;
                name = rest;
            }
        }
    }

    /// Finish, returning the buffer (no copy: the writer's own allocation).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The compression pointers emitted so far, as `(position, target)`
    /// pairs in write order.
    pub fn pointers(&self) -> &[(u32, u16)] {
        self.pointers.as_slice()
    }

    /// The name suffixes registered for compression so far, as canonical
    /// lowercase wire bytes (label length + lowercased label, repeated; no
    /// trailing root byte). Response-template builders use this to detect
    /// question names whose labels would compress against record names —
    /// those encodings depend on the question and cannot be templated.
    pub fn compressed_suffixes(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.compressed_suffix_count()).map(|i| {
            let mut suffix = Vec::new();
            self.write_compressed_suffix(i, &mut suffix);
            suffix
        })
    }

    /// How many suffixes [`Self::compressed_suffixes`] yields.
    pub fn compressed_suffix_count(&self) -> usize {
        self.names.as_slice().len()
    }

    /// Append the `i`-th of [`Self::compressed_suffixes`] to `out`, in the
    /// same form, without allocating: the borrowing form for a builder that
    /// keeps the suffixes in a buffer of its own.
    pub fn write_compressed_suffix(&self, i: usize, out: &mut Vec<u8>) {
        let start = out.len();
        let mut pos = self.names.as_slice()[i] as usize;
        loop {
            let len = self.buf[pos] as usize;
            if len & 0xc0 == 0xc0 {
                pos = (len & 0x3f) << 8 | self.buf[pos + 1] as usize;
            } else if len == 0 {
                break;
            } else {
                out.extend_from_slice(&self.buf[pos..pos + 1 + len]);
                pos += 1 + len;
            }
        }
        // Length bytes are at most 63, below `A`: lowercasing the whole
        // name touches label bytes only.
        out[start..].make_ascii_lowercase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdeadbeef);
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xab);
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.read_bytes(3).unwrap(), b"xyz");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.read_u16(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[]);
        assert_eq!(r.read_u8(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.read_bytes(3), Err(WireError::Truncated));
    }

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn compression_reuses_suffix() {
        let (b, c) = (name("b.root-servers.net."), name("c.root-servers.net."));
        let mut w = WireWriter::new();
        w.put_name_compressed(b.as_wire());
        let first_len = w.len();
        w.put_name_compressed(c.as_wire());
        assert_eq!(w.pointers(), [(first_len as u32 + 2, 2)]);
        let bytes = w.into_bytes();
        // Second name: 1+1 ("c") + 2 (pointer) = 4 bytes.
        assert_eq!(bytes.len(), first_len + 4);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), b);
        assert_eq!(r.read_name().unwrap(), c);
        assert!(r.is_empty());
    }

    #[test]
    fn compression_case_insensitive() {
        let mut w = WireWriter::new();
        w.put_name_compressed(name("NET.").as_wire());
        w.put_name_compressed(name("net.").as_wire());
        let bytes = w.into_bytes();
        // Second occurrence must be a 2-byte pointer.
        assert_eq!(bytes.len(), 5 + 2);
    }

    #[test]
    fn without_compression_writes_full_names() {
        let a_net = name("a.net.");
        let mut w = WireWriter::without_compression();
        w.put_name_compressed(a_net.as_wire());
        w.put_name_compressed(a_net.as_wire());
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 * (2 + 4 + 1));
    }

    #[test]
    fn suffix_of_a_pointer_terminated_name_is_found() {
        // "b.x.net" is written as "b" + "x" + pointer("net"): a later
        // "c.X.NET" must find "x.net" by reading through that pointer.
        let mut w = WireWriter::new();
        for n in ["net.", "b.x.net.", "c.X.NET.", "x.net.example."] {
            w.put_name_compressed(name(n).as_wire());
        }
        assert_eq!(w.pointers(), [(9, 0), (13, 7)]);
        let keys: Vec<Vec<u8>> = w.compressed_suffixes().collect();
        assert_eq!(
            keys[..3],
            [&b"\x03net"[..], b"\x01b\x01x\x03net", b"\x01x\x03net"]
        );
        assert_eq!(keys.len(), 3 + 1 + 3);
    }

    /// The borrowing form appends, one after another into one buffer, each
    /// registered name as the reader reads it back, lowercased.
    #[test]
    fn written_suffixes_are_the_names_read_back_lowercased() {
        let mut w = WireWriter::new();
        for n in [
            "NET.",
            "b.X.net.",
            "c.x.NET.",
            "x.Net.Example.",
            "ns0.TLD0001.",
        ] {
            w.put_name_compressed(name(n).as_wire());
        }
        assert_eq!(w.compressed_suffix_count(), 1 + 2 + 1 + 3 + 2);
        let mut all = b"kept".to_vec();
        for (i, &at) in w.names.as_slice().iter().enumerate() {
            let mut r = WireReader::new(w.as_bytes());
            r.pos = at as usize;
            let want = r.read_name().unwrap().as_wire().to_ascii_lowercase();
            let start = all.len();
            w.write_compressed_suffix(i, &mut all);
            assert_eq!(all[start..], want[..]);
        }
        assert_eq!(&all[..4], b"kept");
    }

    #[test]
    fn truncate_forgets_the_names_and_pointers_it_cuts() {
        let mut w = WireWriter::new();
        w.put_name_compressed(name("a.net.").as_wire());
        let mark = w.len();
        w.put_name_compressed(name("b.org.").as_wire());
        w.put_name_compressed(name("c.net.").as_wire());
        w.truncate(mark);
        assert!(w.pointers().is_empty());
        assert_eq!(w.compressed_suffixes().count(), 2);
        // "org" is gone: written out again, not pointed at.
        w.put_name_compressed(name("org.").as_wire());
        assert_eq!(w.len(), mark + 5);
    }

    #[test]
    fn name_table_outgrows_its_inline_storage() {
        let mut w = WireWriter::new();
        let names: Vec<Name> = (0..3 * INLINE_NAMES)
            .map(|i| name(&format!("n{i}.example.")))
            .collect();
        let mut ends = Vec::new();
        for n in names.iter().chain(&names) {
            w.put_name_compressed(n.as_wire());
            ends.push(w.len());
        }
        // One entry a name and one for "example"; the second round is all
        // pointers.
        assert_eq!(w.compressed_suffixes().count(), names.len() + 1);
        assert_eq!(w.pointers().len(), names.len() - 1 + names.len());
        let mut r = WireReader::new(w.as_bytes());
        for n in names.iter().chain(&names) {
            assert_eq!(&r.read_name().unwrap(), n);
        }
        // Cut back to the first ten names, and to none: the table follows.
        w.truncate(ends[9]);
        assert_eq!(w.compressed_suffixes().count(), 10 + 1);
        assert_eq!(w.pointers().len(), 9);
        w.put_name_compressed(names[10].as_wire());
        assert_eq!(w.pointers().last(), Some(&(w.len() as u32 - 2, 3)));
        w.truncate(0);
        assert_eq!(
            (w.compressed_suffixes().count(), w.pointers().len()),
            (0, 0)
        );
        w.put_name_compressed(names[0].as_wire());
        assert_eq!(w.as_bytes(), [names[0].as_wire(), &[0]].concat());
    }

    /// A repeated owner as a logged pointer is what `put_name_compressed`
    /// writes for it — and where the first copy's labels start past
    /// 0x3FFF, no pointer is offered: the labels are written again, as
    /// `put_name_compressed` writes them.
    #[test]
    fn a_repeated_name_points_where_put_name_compressed_would() {
        let (suffix, owner) = (name("example."), name("ns0.Example."));
        // `suffix` at 12 (9 bytes), `owner` there too when `early`, then
        // padding, then `owner` twice: the first copy starts at 21 + `pad`
        // when not `early` — 0x3FFF for 0x3fea, 0x4000 for 0x3feb.
        for (early, pad) in [
            (false, 0),
            (false, 0x3fea),
            (false, 0x3feb),
            (false, 0x4100),
            (true, 0x4100),
        ] {
            let mut plain = WireWriter::new();
            let mut fast = WireWriter::new();
            for w in [&mut plain, &mut fast] {
                w.put_bytes(&[0; 12]);
                w.put_name_compressed(suffix.as_wire());
                if early {
                    w.put_name_compressed(owner.as_wire());
                }
                w.put_bytes(&vec![0xab; pad]);
            }
            let start = plain.len();
            plain.put_name_compressed(owner.as_wire());
            plain.put_name_compressed(owner.as_wire());
            let target = fast.put_name_compressed_at(owner.as_wire());
            match target {
                Some(target) => fast.put_name_pointer(target),
                None => fast.put_name_compressed(owner.as_wire()),
            }
            assert_eq!(fast.as_bytes(), plain.as_bytes(), "{early} {pad}");
            assert_eq!(fast.pointers(), plain.pointers(), "{early} {pad}");
            let want = match (early, start <= MAX_POINTER_TARGET) {
                (true, _) => Some(12 + 9),
                (false, true) => Some(start as u16),
                (false, false) => None,
            };
            assert_eq!(target, want, "{early} {pad}");
            // Past 0x3FFF the second copy spells `ns0` again.
            let second = &plain.as_bytes()[plain.len() - 6..];
            assert_eq!(second == [3, b'n', b's', b'0', 0xc0, 12], want.is_none());
        }
        // The root and a writer without compression offer nothing.
        let mut w = WireWriter::new();
        assert_eq!(w.put_name_compressed_at(&[]), None);
        let mut w = WireWriter::without_compression();
        assert_eq!(w.put_name_compressed_at(owner.as_wire()), None);
    }

    #[test]
    fn reset_writes_what_a_new_writer_writes() {
        let mut w = WireWriter::new();
        for n in ["a.net.", "b.net.", "a.net."] {
            w.put_name_compressed(name(n).as_wire());
        }
        let first = w.take_bytes();
        w.reset(first);
        let mut fresh = WireWriter::new();
        for w in [&mut w, &mut fresh] {
            w.put_name_compressed(name("b.net.").as_wire());
            w.put_name_compressed(name("a.net.").as_wire());
        }
        assert_eq!(w.as_bytes(), fresh.as_bytes());
        assert_eq!(w.pointers(), fresh.pointers());
        assert!(w.compressed_suffixes().eq(fresh.compressed_suffixes()));
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to itself.
        let bytes = [0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::ForwardPointer));
        // Pointer at offset 0 pointing past itself.
        let bytes = [0xc0, 0x05, 1, b'a', 0];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers pointing at each other: after jumping to offset 0,
        // that pointer targets offset 2 — at/past its own position.
        let bytes = [0xc0, 0x02, 0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        r.pos = 2;
        assert_eq!(r.read_name(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn label_pointer_cycle_rejected() {
        // A cycle through a label: pointer at 3 → 0, labels at 0..3, then
        // the pointer at 3 again. The second visit jumps to 0 which is not
        // strictly below the previous target 0.
        let bytes = [1, b'a', 0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        r.pos = 2;
        assert_eq!(r.read_name(), Err(WireError::PointerLoop));
    }

    #[test]
    fn monotonic_chain_within_jump_budget_accepted() {
        // A strictly-backwards chain of pointers ending in a real label:
        // "x." at 0, then MAX_POINTER_JUMPS pointers each targeting the
        // previous one. Reading from the last pointer follows every jump.
        let mut bytes = vec![1, b'x', 0];
        for _ in 0..MAX_POINTER_JUMPS {
            let target = if bytes.len() == 3 { 0 } else { bytes.len() - 2 };
            bytes.extend_from_slice(&[0xc0 | (target >> 8) as u8, target as u8]);
        }
        let start = bytes.len() - 2;
        let mut r = WireReader::new(&bytes);
        r.pos = start;
        assert_eq!(r.read_name().unwrap(), name("x."));
        // One more pointer exceeds the jump budget.
        let target = bytes.len() - 2;
        bytes.extend_from_slice(&[0xc0 | (target >> 8) as u8, target as u8]);
        let mut r = WireReader::new(&bytes);
        r.pos = bytes.len() - 2;
        assert_eq!(r.read_name(), Err(WireError::PointerLoop));
    }

    #[test]
    fn reserved_label_type_rejected() {
        let bytes = [0x80, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::BadLabelType));
    }

    #[test]
    fn truncated_name_rejected() {
        let bytes = [0x03, b'a', b'b']; // promises 3 bytes, has 2
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::Truncated));
        let bytes = [0x01, b'a']; // missing terminator
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::Truncated));
    }

    #[test]
    fn reader_position_after_pointer() {
        // name "x." at 0, then at 3: "y" + pointer to 0.
        let bytes = [1, b'x', 0, 1, b'y', 0xc0, 0x00, 0xff];
        let mut r = WireReader::new(&bytes);
        r.pos = 3;
        assert_eq!(r.read_name().unwrap(), name("y.x."));
        // Reader continues right after the pointer.
        assert_eq!(r.position(), 7);
        assert_eq!(r.read_u8().unwrap(), 0xff);
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0xbeef);
        assert_eq!(w.into_bytes(), vec![0xbe, 0xef, 9]);
    }

    #[test]
    fn overlong_decoded_name_rejected() {
        // Build 5 labels of 63 bytes: 5*64+1 = 321 > 255.
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.push(63);
            bytes.extend(std::iter::repeat_n(b'a', 63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::NameTooLong));
    }
}
