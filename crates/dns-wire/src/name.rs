//! Domain names (RFC 1035 §3.1, RFC 4034 §6 canonical form and ordering).

use crate::wire::{WireError, WireReader, WireWriter};
use std::cmp::Ordering;
use std::fmt;

/// Maximum length of a name on the wire, including the root label (RFC 1035).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;

/// A fully-qualified domain name.
///
/// Stored as one contiguous buffer in uncompressed wire form without the
/// terminating root byte (`len label len label …`; the root name is the
/// empty buffer), so a comparison walks one run of bytes. A name of up to
/// 22 bytes — every owner and all but one target in the root zone — lies
/// inside the `Name` itself: reading it touches no other
/// memory and cloning it allocates nothing; a longer one is one heap block.
/// Comparison and hashing are case-insensitive over ASCII, as DNS
/// requires; the stored bytes keep the case they arrived in.
#[derive(Clone)]
pub struct Name {
    repr: Repr,
}

/// Longest flat name stored inline: with it a `Name` is 24 bytes.
const INLINE_LEN: usize = 22;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    Heap(Box<[u8]>),
}

impl Default for Name {
    fn default() -> Self {
        Name::from_wire_unchecked(&[])
    }
}

/// Iterator over the labels of a flat wire-form name.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.rest.split_first()?;
        let (label, rest) = rest.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

/// Append `label` to the flat buffer `wire`, enforcing the label bounds.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> Result<(), NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong);
    }
    wire.push(label.len() as u8);
    wire.extend_from_slice(label);
    Ok(())
}

impl Name {
    /// The root name `.`.
    pub fn root() -> Self {
        Name::default()
    }

    /// Wrap a flat buffer whose label structure the caller has checked.
    pub(crate) fn from_wire_unchecked(wire: &[u8]) -> Self {
        let repr = if wire.len() <= INLINE_LEN {
            let mut buf = [0; INLINE_LEN];
            buf[..wire.len()].copy_from_slice(wire);
            Repr::Inline {
                len: wire.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(wire.into())
        };
        Name { repr }
    }

    fn from_checked_labels(wire: &[u8]) -> Result<Self, NameError> {
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(Name::from_wire_unchecked(wire))
    }

    /// Parse from presentation format. Accepts `"."` for the root, with or
    /// without a trailing dot otherwise. Supports `\DDD` escapes.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        if s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        let mut wire = Vec::with_capacity(s.len() + 1);
        // Offset of the length byte of the label being read.
        let mut open = 0;
        wire.push(0);
        let mut bytes = s.bytes();
        while let Some(b) = bytes.next() {
            match b {
                b'.' => {
                    if wire.len() == open + 1 {
                        return Err(NameError::EmptyLabel);
                    }
                    wire[open] = (wire.len() - open - 1) as u8;
                    open = wire.len();
                    wire.push(0);
                }
                b'\\' => {
                    // \DDD decimal escape or \X literal.
                    let first = bytes.next().ok_or(NameError::BadEscape)?;
                    if first.is_ascii_digit() {
                        let d2 = bytes.next().ok_or(NameError::BadEscape)?;
                        let d3 = bytes.next().ok_or(NameError::BadEscape)?;
                        if !d2.is_ascii_digit() || !d3.is_ascii_digit() {
                            return Err(NameError::BadEscape);
                        }
                        let v = (first - b'0') as u32 * 100
                            + (d2 - b'0') as u32 * 10
                            + (d3 - b'0') as u32;
                        if v > 255 {
                            return Err(NameError::BadEscape);
                        }
                        wire.push(v as u8);
                    } else {
                        wire.push(first);
                    }
                }
                other => wire.push(other),
            }
            if wire.len() - open - 1 > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong);
            }
        }
        if wire.len() == open + 1 {
            return Err(NameError::EmptyLabel);
        }
        wire[open] = (wire.len() - open - 1) as u8;
        Name::from_checked_labels(&wire)
    }

    /// Build from raw label byte slices.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in labels {
            push_label(&mut wire, l.as_ref())?;
        }
        Name::from_checked_labels(&wire)
    }

    /// Number of labels (the root has 0).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterate labels, most-significant (leftmost) first.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.as_wire(),
        }
    }

    /// The uncompressed wire form without the terminating root byte, in
    /// the case the name was built with (empty for the root).
    pub fn as_wire(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(wire) => wire,
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.as_wire().is_empty()
    }

    /// Length of the uncompressed wire encoding (including the root byte).
    pub fn wire_len(&self) -> usize {
        self.as_wire().len() + 1
    }

    /// The parent name (strips the leftmost label). The root's parent is the
    /// root itself.
    pub fn parent(&self) -> Name {
        let mut labels = self.labels();
        labels.next();
        Name::from_wire_unchecked(labels.rest)
    }

    /// Prepend `label`, producing a child name.
    pub fn child(&self, label: &[u8]) -> Result<Name, NameError> {
        let mut wire = Vec::with_capacity(label.len() + self.wire_len());
        push_label(&mut wire, label)?;
        wire.extend_from_slice(self.as_wire());
        Name::from_checked_labels(&wire)
    }

    /// True if `self` is `other` or a descendant of `other`.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let mut labels = self.labels();
        while labels.rest.len() > other.as_wire().len() {
            labels.next();
        }
        labels.rest.eq_ignore_ascii_case(other.as_wire())
    }

    /// RFC 4034 §6.2 canonical form: all ASCII letters lowercased.
    pub fn canonical(&self) -> Name {
        // Length bytes are at most 63, below `A`: lowercasing the whole
        // buffer touches label bytes only.
        Name::from_wire_unchecked(&self.as_wire().to_ascii_lowercase())
    }

    /// Write the uncompressed (canonical if `lowercase`) wire form.
    pub fn write_wire(&self, w: &mut WireWriter, lowercase: bool) {
        if lowercase {
            w.put_bytes_lowercase(self.as_wire());
        } else {
            w.put_bytes(self.as_wire());
        }
        w.put_u8(0);
    }

    /// Write with name compression via the writer's offset table.
    pub fn write_wire_compressed(&self, w: &mut WireWriter) {
        w.put_name_compressed(self.as_wire());
    }

    /// Read a (possibly compressed) name from the reader.
    pub fn read_wire(r: &mut WireReader) -> Result<Self, WireError> {
        r.read_name()
    }

    /// Uncompressed canonical wire bytes (used for signing and ZONEMD).
    pub fn canonical_wire(&self) -> Vec<u8> {
        let mut wire = Vec::with_capacity(self.wire_len());
        wire.extend(self.as_wire().iter().map(u8::to_ascii_lowercase));
        wire.push(0);
        wire
    }

    /// RFC 4034 §6.1 canonical ordering: compare label-by-label from the
    /// *rightmost* label, each label as a case-insensitive byte string.
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        let (mut a_starts, mut b_starts) = ([0u8; MAX_LABELS], [0u8; MAX_LABELS]);
        let (this, other) = (self.as_wire(), other.as_wire());
        let mut a = label_starts(this, &mut a_starts);
        let mut b = label_starts(other, &mut b_starts);
        loop {
            match (a, b) {
                (0, 0) => return Ordering::Equal,
                (0, _) => return Ordering::Less,
                (_, 0) => return Ordering::Greater,
                _ => {}
            }
            a -= 1;
            b -= 1;
            let ord = cmp_label(label_at(this, a_starts[a]), label_at(other, b_starts[b]));
            if ord != Ordering::Equal {
                return ord;
            }
        }
    }
}

/// Most labels a 255-byte name holds (each costs at least two bytes).
const MAX_LABELS: usize = MAX_NAME_LEN / 2;

/// Record the offset of every label's length byte; returns how many.
fn label_starts(wire: &[u8], starts: &mut [u8; MAX_LABELS]) -> usize {
    let (mut pos, mut n) = (0, 0);
    while pos < wire.len() {
        starts[n] = pos as u8;
        n += 1;
        pos += 1 + wire[pos] as usize;
    }
    n
}

fn label_at(wire: &[u8], start: u8) -> &[u8] {
    let start = start as usize;
    &wire[start + 1..start + 1 + wire[start] as usize]
}

fn cmp_label(a: &[u8], b: &[u8]) -> Ordering {
    let la = a.iter().map(u8::to_ascii_lowercase);
    let lb = b.iter().map(u8::to_ascii_lowercase);
    la.cmp(lb)
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Both buffers start at a length byte, and a length byte (at most
        // 63) equals nothing but itself ignoring case: equal buffers have
        // equal label boundaries.
        self.as_wire().eq_ignore_ascii_case(other.as_wire())
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for label in self.labels() {
            state.write_usize(label.len());
            for &b in label {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    other => write!(f, "\\{:03}", other)?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, NameError> {
        Name::parse(s)
    }
}

/// Errors constructing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`).
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong,
    /// The whole name exceeded 255 wire bytes.
    NameTooLong,
    /// Malformed `\` escape.
    BadEscape,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong => write!(f, "label exceeds 63 bytes"),
            NameError::NameTooLong => write!(f, "name exceeds 255 bytes"),
            NameError::BadEscape => write!(f, "malformed escape sequence"),
        }
    }
}

impl std::error::Error for NameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            ".",
            "com.",
            "example.com.",
            "b.root-servers.net.",
            "hostname.bind.",
        ] {
            let n = Name::parse(s).unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_optional() {
        assert_eq!(
            Name::parse("example.com").unwrap(),
            Name::parse("example.com.").unwrap()
        );
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        let a = Name::parse("Example.COM.").unwrap();
        let b = Name::parse("example.com.").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn root_properties() {
        let root = Name::root();
        assert!(root.is_root());
        assert_eq!(root.label_count(), 0);
        assert_eq!(root.wire_len(), 1);
        assert_eq!(root.to_string(), ".");
        assert_eq!(root.parent(), root);
    }

    #[test]
    fn subdomain_checks() {
        let root = Name::root();
        let net = Name::parse("net.").unwrap();
        let rs = Name::parse("root-servers.net.").unwrap();
        let b = Name::parse("b.root-servers.net.").unwrap();
        assert!(b.is_subdomain_of(&rs));
        assert!(b.is_subdomain_of(&net));
        assert!(b.is_subdomain_of(&root));
        assert!(b.is_subdomain_of(&b));
        assert!(!rs.is_subdomain_of(&b));
        assert!(!Name::parse("com.").unwrap().is_subdomain_of(&net));
    }

    #[test]
    fn canonical_ordering_rfc4034_example() {
        // RFC 4034 §6.1 example order.
        let order = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            "\\001.z.example.",
            "*.z.example.",
            "\\200.z.example.",
        ];
        let names: Vec<Name> = order.iter().map(|s| Name::parse(s).unwrap()).collect();
        for w in names.windows(2) {
            assert_eq!(
                w[0].canonical_cmp(&w[1]),
                Ordering::Less,
                "{} < {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn label_length_limits() {
        let long = "a".repeat(63);
        assert!(Name::parse(&format!("{long}.com.")).is_ok());
        let too_long = "a".repeat(64);
        assert_eq!(
            Name::parse(&format!("{too_long}.com.")),
            Err(NameError::LabelTooLong)
        );
    }

    #[test]
    fn name_length_limit() {
        // Four 63-byte labels (4 * 64 + 1 = 257 > 255) must fail.
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}.");
        assert_eq!(Name::parse(&s), Err(NameError::NameTooLong));
        // Three labels plus a short one that fits exactly: 3*64 + 62+1 + 1 = 255.
        let tail = "b".repeat(61);
        let ok = format!("{l}.{l}.{l}.{tail}.");
        assert!(Name::parse(&ok).is_ok());
    }

    #[test]
    fn empty_labels_rejected() {
        assert_eq!(Name::parse("a..b."), Err(NameError::EmptyLabel));
        assert_eq!(Name::parse(""), Err(NameError::EmptyLabel));
        assert_eq!(Name::parse(".."), Err(NameError::EmptyLabel));
    }

    #[test]
    fn escapes_parse_and_render() {
        let n = Name::parse("\\046odd.label.").unwrap();
        assert_eq!(n.labels().next().unwrap(), b".odd");
        assert_eq!(n.to_string(), "\\.odd.label.");
        assert_eq!(Name::parse("bad\\"), Err(NameError::BadEscape));
        assert_eq!(Name::parse("bad\\25"), Err(NameError::BadEscape));
        assert_eq!(Name::parse("bad\\999"), Err(NameError::BadEscape));
    }

    #[test]
    fn child_and_parent() {
        let rs = Name::parse("root-servers.net.").unwrap();
        let b = rs.child(b"b").unwrap();
        assert_eq!(b.to_string(), "b.root-servers.net.");
        assert_eq!(b.parent(), rs);
    }

    #[test]
    fn wire_round_trip_uncompressed() {
        let n = Name::parse("b.Root-Servers.NET.").unwrap();
        let mut w = WireWriter::new();
        n.write_wire(&mut w, false);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Name::read_wire(&mut r).unwrap();
        assert_eq!(back, n);
        // Original case preserved when not canonicalized.
        assert_eq!(back.to_string(), "b.Root-Servers.NET.");
    }

    #[test]
    fn canonical_lowercases() {
        let n = Name::parse("B.ROOT-SERVERS.NET.").unwrap();
        assert_eq!(n.canonical().to_string(), "b.root-servers.net.");
    }
}
