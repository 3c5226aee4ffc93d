//! Compact binary codec for artifacts.
//!
//! Materialization serializes artifacts to bytes; retrieval deserializes
//! them. The codec cost is part of the *measured* store/load cost, so it
//! must behave like a real storage engine's (roughly proportional to
//! payload size, far cheaper than recomputing an expensive artifact, not
//! free). A hand-rolled little-endian format over `bytes::BufMut` gives us
//! that: ~memcpy for the `f64` payloads, with small tags for structure.

use bytes::{Buf, BufMut, Bytes};
use hyppo_ml::artifact::{Artifact, OpState, TreeModel, TreeNode};
use hyppo_ml::LogicalOp;
use hyppo_tensor::{Dataset, Matrix, TaskKind};

/// Codec failure: truncated or corrupt buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

/// Version marker byte prefixed to CRC-framed (v1) encodings. Legacy (v0)
/// encodings start with an artifact tag in `0..=3`, so the marker byte is
/// unambiguous and old spilled bytes still decode.
pub const FRAME_V1: u8 = 0xA5;

/// CRC-32 (IEEE 802.3 polynomial) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) checksum of a byte slice. Shared by the v1 artifact
/// framing here and the `hyppo-persist` write-ahead log.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Where an encoding pass goes: [`encode`] writes the bytes into a
/// buffer, [`encoded_size`] only adds up their lengths. One layout,
/// written once, drives both.
trait Sink {
    fn emit_u8(&mut self, v: u8);
    fn emit_u64(&mut self, v: u64);
    fn emit_f64(&mut self, v: f64);
    fn emit_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn emit_u8(&mut self, v: u8) {
        self.put_u8(v);
    }
    fn emit_u64(&mut self, v: u64) {
        self.put_u64_le(v);
    }
    fn emit_f64(&mut self, v: f64) {
        self.put_f64_le(v);
    }
    fn emit_slice(&mut self, bytes: &[u8]) {
        self.put_slice(bytes);
    }
}

/// A sink that counts bytes instead of writing them.
struct ByteCount(u64);

impl Sink for ByteCount {
    fn emit_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn emit_u64(&mut self, _: u64) {
        self.0 += 8;
    }
    fn emit_f64(&mut self, _: f64) {
        self.0 += 8;
    }
    fn emit_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(CodecError(format!("truncated buffer reading {what}")));
    }
    Ok(())
}

fn put_f64s(out: &mut impl Sink, v: &[f64]) {
    out.emit_u64(v.len() as u64);
    for &x in v {
        out.emit_f64(x);
    }
}

fn get_f64s(buf: &mut &[u8]) -> Result<Vec<f64>> {
    need(buf, 8, "f64 slice length")?;
    let n = buf.get_u64_le() as usize;
    need(buf, n * 8, "f64 slice payload")?;
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

fn put_str(out: &mut impl Sink, s: &str) {
    out.emit_u64(s.len() as u64);
    out.emit_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    need(buf, 8, "string length")?;
    let n = buf.get_u64_le() as usize;
    need(buf, n, "string payload")?;
    let bytes = buf.copy_to_bytes(n);
    String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(e.to_string()))
}

fn put_matrix(out: &mut impl Sink, m: &Matrix) {
    out.emit_u64(m.rows() as u64);
    out.emit_u64(m.cols() as u64);
    for &x in m.as_slice() {
        out.emit_f64(x);
    }
}

fn get_matrix(buf: &mut &[u8]) -> Result<Matrix> {
    need(buf, 16, "matrix header")?;
    let rows = buf.get_u64_le() as usize;
    let cols = buf.get_u64_le() as usize;
    let len = rows.checked_mul(cols).ok_or_else(|| CodecError("matrix overflow".into()))?;
    need(buf, len * 8, "matrix payload")?;
    let data = (0..len).map(|_| buf.get_f64_le()).collect();
    Ok(Matrix::from_vec(rows, cols, data))
}

fn op_tag(op: LogicalOp) -> u8 {
    LogicalOp::ALL.iter().position(|&o| o == op).expect("op in ALL") as u8
}

fn op_from_tag(tag: u8) -> Result<LogicalOp> {
    LogicalOp::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| CodecError(format!("unknown op tag {tag}")))
}

fn put_tree(out: &mut impl Sink, t: &TreeModel) {
    out.emit_u64(t.nodes.len() as u64);
    for node in &t.nodes {
        match *node {
            TreeNode::Leaf { value } => {
                out.emit_u8(0);
                out.emit_f64(value);
            }
            TreeNode::Split { feature, threshold, left, right } => {
                out.emit_u8(1);
                out.emit_u64(feature as u64);
                out.emit_f64(threshold);
                out.emit_u64(left as u64);
                out.emit_u64(right as u64);
            }
        }
    }
}

fn get_tree(buf: &mut &[u8]) -> Result<TreeModel> {
    need(buf, 8, "tree length")?;
    let n = buf.get_u64_le() as usize;
    let mut nodes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        need(buf, 1, "tree node tag")?;
        match buf.get_u8() {
            0 => {
                need(buf, 8, "leaf value")?;
                nodes.push(TreeNode::Leaf { value: buf.get_f64_le() });
            }
            1 => {
                need(buf, 32, "split node")?;
                nodes.push(TreeNode::Split {
                    feature: buf.get_u64_le() as usize,
                    threshold: buf.get_f64_le(),
                    left: buf.get_u64_le() as usize,
                    right: buf.get_u64_le() as usize,
                });
            }
            t => return Err(CodecError(format!("bad tree node tag {t}"))),
        }
    }
    Ok(TreeModel { nodes })
}

fn put_trees(out: &mut impl Sink, trees: &[TreeModel]) {
    out.emit_u64(trees.len() as u64);
    for t in trees {
        put_tree(out, t);
    }
}

fn get_trees(buf: &mut &[u8]) -> Result<Vec<TreeModel>> {
    need(buf, 8, "tree count")?;
    let n = buf.get_u64_le() as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(get_tree(buf)?);
    }
    Ok(out)
}

fn put_state(out: &mut impl Sink, s: &OpState) {
    match s {
        OpState::Scaler { op, offset, scale } => {
            out.emit_u8(0);
            out.emit_u8(op_tag(*op));
            put_f64s(out, offset);
            put_f64s(out, scale);
        }
        OpState::Imputer { op, fill } => {
            out.emit_u8(1);
            out.emit_u8(op_tag(*op));
            put_f64s(out, fill);
        }
        OpState::Poly { degree, input_dim } => {
            out.emit_u8(2);
            out.emit_u64(*degree as u64);
            out.emit_u64(*input_dim as u64);
        }
        OpState::Pca { mean, components } => {
            out.emit_u8(3);
            put_f64s(out, mean);
            put_matrix(out, components);
        }
        OpState::Discretizer { edges } => {
            out.emit_u8(4);
            out.emit_u64(edges.len() as u64);
            for e in edges {
                put_f64s(out, e);
            }
        }
        OpState::Linear { op, weights, bias } => {
            out.emit_u8(5);
            out.emit_u8(op_tag(*op));
            put_f64s(out, weights);
            out.emit_f64(*bias);
        }
        OpState::Tree(t) => {
            out.emit_u8(6);
            put_tree(out, t);
        }
        OpState::Forest { trees, classification } => {
            out.emit_u8(7);
            out.emit_u8(*classification as u8);
            put_trees(out, trees);
        }
        OpState::Gbm { trees, learning_rate, base } => {
            out.emit_u8(8);
            out.emit_f64(*learning_rate);
            out.emit_f64(*base);
            put_trees(out, trees);
        }
        OpState::KMeans { centroids } => {
            out.emit_u8(9);
            put_matrix(out, centroids);
        }
        OpState::Voting { members, classification } => {
            out.emit_u8(10);
            out.emit_u8(*classification as u8);
            out.emit_u64(members.len() as u64);
            for m in members {
                put_state(out, m);
            }
        }
        OpState::Stacking { members, meta_weights, meta_bias } => {
            out.emit_u8(11);
            out.emit_u64(members.len() as u64);
            for m in members {
                put_state(out, m);
            }
            put_f64s(out, meta_weights);
            out.emit_f64(*meta_bias);
        }
    }
}

fn get_state(buf: &mut &[u8]) -> Result<OpState> {
    need(buf, 1, "op-state tag")?;
    Ok(match buf.get_u8() {
        0 => {
            need(buf, 1, "scaler op")?;
            let op = op_from_tag(buf.get_u8())?;
            OpState::Scaler { op, offset: get_f64s(buf)?, scale: get_f64s(buf)? }
        }
        1 => {
            need(buf, 1, "imputer op")?;
            let op = op_from_tag(buf.get_u8())?;
            OpState::Imputer { op, fill: get_f64s(buf)? }
        }
        2 => {
            need(buf, 16, "poly state")?;
            OpState::Poly {
                degree: buf.get_u64_le() as usize,
                input_dim: buf.get_u64_le() as usize,
            }
        }
        3 => OpState::Pca { mean: get_f64s(buf)?, components: get_matrix(buf)? },
        4 => {
            need(buf, 8, "discretizer count")?;
            let n = buf.get_u64_le() as usize;
            let mut edges = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                edges.push(get_f64s(buf)?);
            }
            OpState::Discretizer { edges }
        }
        5 => {
            need(buf, 1, "linear op")?;
            let op = op_from_tag(buf.get_u8())?;
            let weights = get_f64s(buf)?;
            need(buf, 8, "linear bias")?;
            OpState::Linear { op, weights, bias: buf.get_f64_le() }
        }
        6 => OpState::Tree(get_tree(buf)?),
        7 => {
            need(buf, 1, "forest flag")?;
            let classification = buf.get_u8() != 0;
            OpState::Forest { trees: get_trees(buf)?, classification }
        }
        8 => {
            need(buf, 16, "gbm header")?;
            let learning_rate = buf.get_f64_le();
            let base = buf.get_f64_le();
            OpState::Gbm { trees: get_trees(buf)?, learning_rate, base }
        }
        9 => OpState::KMeans { centroids: get_matrix(buf)? },
        10 => {
            need(buf, 9, "voting header")?;
            let classification = buf.get_u8() != 0;
            let n = buf.get_u64_le() as usize;
            let mut members = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                members.push(get_state(buf)?);
            }
            OpState::Voting { members, classification }
        }
        11 => {
            need(buf, 8, "stacking header")?;
            let n = buf.get_u64_le() as usize;
            let mut members = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                members.push(get_state(buf)?);
            }
            let meta_weights = get_f64s(buf)?;
            need(buf, 8, "stacking bias")?;
            OpState::Stacking { members, meta_weights, meta_bias: buf.get_f64_le() }
        }
        t => return Err(CodecError(format!("bad op-state tag {t}"))),
    })
}

/// Bytes the v1 frame puts before the body: the marker and the checksum.
const FRAME_HEADER: usize = 5;

/// Exact byte length [`encode`] produces for this artifact. The in-memory
/// estimate `Artifact::size_bytes` excludes tags/lengths/strings, so budget
/// accounting must use this instead. Counts the layout without writing it:
/// no allocation and no checksum.
pub fn encoded_size(artifact: &Artifact) -> u64 {
    FRAME_HEADER as u64 + body_size(artifact)
}

fn body_size(artifact: &Artifact) -> u64 {
    let mut count = ByteCount(0);
    put_body(&mut count, artifact);
    count.0
}

/// Serialize an artifact to bytes, CRC-framed:
/// `[FRAME_V1][crc32(body): u32 le][body]`. [`decode`] verifies the
/// checksum, so bit rot in a spilled `.art` file or a torn store write is
/// detected instead of trusted.
pub fn encode(artifact: &Artifact) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_HEADER + body_size(artifact) as usize);
    out.put_u8(FRAME_V1);
    out.put_slice(&[0; 4]); // the checksum, filled in once the body is written
    put_body(&mut out, artifact);
    let crc = crc32(&out[FRAME_HEADER..]);
    out[1..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(out)
}

/// Serialize an artifact's unframed (v0) body.
#[cfg(test)]
fn encode_body(artifact: &Artifact) -> Vec<u8> {
    let mut out = Vec::new();
    put_body(&mut out, artifact);
    out
}

fn put_body(out: &mut impl Sink, artifact: &Artifact) {
    match artifact {
        Artifact::Data(d) => {
            out.emit_u8(0);
            put_matrix(out, &d.x);
            put_f64s(out, &d.y);
            out.emit_u8(match d.task {
                TaskKind::Classification => 0,
                TaskKind::Regression => 1,
            });
            out.emit_u64(d.feature_names.len() as u64);
            for n in &d.feature_names {
                put_str(out, n);
            }
        }
        Artifact::Predictions(p) => {
            out.emit_u8(1);
            put_f64s(out, p);
        }
        Artifact::Value(v) => {
            out.emit_u8(2);
            out.emit_f64(*v);
        }
        Artifact::OpState(s) => {
            out.emit_u8(3);
            put_state(out, s);
        }
    }
}

/// Deserialize an artifact from a borrowed byte slice (a `&Bytes` view
/// coerces via `Deref`, so callers never clone the backing buffer).
///
/// Version-dispatched: a leading [`FRAME_V1`] byte selects the CRC-checked
/// v1 framing; any other first byte is a legacy v0 body (artifact tags are
/// `0..=3`), kept decodable so stores spilled before the framing change
/// still load.
pub fn decode(mut buf: &[u8]) -> Result<Artifact> {
    need(&buf, 1, "artifact tag")?;
    if buf[0] == FRAME_V1 {
        buf.advance(1);
        need(&buf, 4, "frame checksum")?;
        let stored = u32::from_le_bytes(buf[..4].try_into().expect("length checked"));
        buf.advance(4);
        let computed = crc32(buf);
        if stored != computed {
            return Err(CodecError(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
    }
    decode_body(buf)
}

/// Deserialize an unframed (v0) artifact body.
fn decode_body(mut buf: &[u8]) -> Result<Artifact> {
    need(&buf, 1, "artifact tag")?;
    let artifact = match buf.get_u8() {
        0 => {
            let x = get_matrix(&mut buf)?;
            let y = get_f64s(&mut buf)?;
            need(&buf, 9, "dataset trailer")?;
            let task = match buf.get_u8() {
                0 => TaskKind::Classification,
                1 => TaskKind::Regression,
                t => return Err(CodecError(format!("bad task kind {t}"))),
            };
            let n = buf.get_u64_le() as usize;
            let mut names = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                names.push(get_str(&mut buf)?);
            }
            Artifact::Data(Dataset::new(x, y, names, task))
        }
        1 => Artifact::Predictions(get_f64s(&mut buf)?),
        2 => {
            need(&buf, 8, "value")?;
            Artifact::Value(buf.get_f64_le())
        }
        3 => Artifact::OpState(get_state(&mut buf)?),
        t => return Err(CodecError(format!("bad artifact tag {t}"))),
    };
    if buf.has_remaining() {
        return Err(CodecError(format!("{} trailing bytes", buf.remaining())));
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use hyppo_ml::LogicalOp;

    fn roundtrip(a: Artifact) {
        let bytes = encode(&a);
        let back = decode(&bytes).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn roundtrips_all_artifact_kinds() {
        roundtrip(Artifact::Value(3.125));
        roundtrip(Artifact::Predictions(vec![1.0, -2.5, f64::MAX]));
        roundtrip(Artifact::Data(Dataset::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            vec![0.0, 1.0],
            vec!["α".into(), "b".into()],
            TaskKind::Classification,
        )));
        // NaN payloads can't use `==` (NaN != NaN); compare structurally.
        let gap = Artifact::Data(Dataset::new(
            Matrix::from_rows(&[&[1.0, f64::NAN]]),
            vec![0.0],
            vec!["a".into(), "b".into()],
            TaskKind::Regression,
        ));
        let back = decode(&encode(&gap)).unwrap();
        assert!(gap.approx_eq(&back, 0.0));
    }

    /// One value of every `OpState` variant, with nested trees and members.
    fn every_op_state() -> Vec<OpState> {
        let tree = TreeModel {
            nodes: vec![
                TreeNode::Split { feature: 1, threshold: 0.5, left: 1, right: 2 },
                TreeNode::Leaf { value: -1.0 },
                TreeNode::Leaf { value: 1.0 },
            ],
        };
        vec![
            OpState::Scaler { op: LogicalOp::StandardScaler, offset: vec![1.0], scale: vec![2.0] },
            OpState::Imputer { op: LogicalOp::ImputerMedian, fill: vec![0.5, 0.25] },
            OpState::Poly { degree: 2, input_dim: 30 },
            OpState::Pca { mean: vec![0.0, 1.0], components: Matrix::identity(2) },
            OpState::Discretizer { edges: vec![vec![0.0, 1.0], vec![2.0, 3.0, 4.0]] },
            OpState::Linear { op: LogicalOp::Ridge, weights: vec![1.0, 2.0], bias: -0.5 },
            OpState::Tree(tree.clone()),
            OpState::Forest { trees: vec![tree.clone(), tree.clone()], classification: true },
            OpState::Gbm { trees: vec![tree.clone()], learning_rate: 0.1, base: 2.0 },
            OpState::KMeans { centroids: Matrix::filled(3, 2, 0.5) },
            OpState::Voting { members: vec![OpState::Tree(tree.clone())], classification: false },
            OpState::Stacking {
                members: vec![OpState::Tree(tree)],
                meta_weights: vec![1.5],
                meta_bias: 0.25,
            },
        ]
    }

    #[test]
    fn roundtrips_every_op_state_variant() {
        for s in every_op_state() {
            roundtrip(Artifact::OpState(s));
        }
    }

    #[test]
    fn encoded_size_is_the_encoded_length_of_every_variant() {
        let mut artifacts = vec![
            Artifact::Value(-0.5),
            Artifact::Predictions(vec![]),
            Artifact::Predictions(vec![1.0, 2.0, 3.0]),
            Artifact::Data(Dataset::new(
                Matrix::filled(3, 2, 0.25),
                vec![0.0, 1.0, 0.0],
                vec!["α-feature".into(), String::new()],
                TaskKind::Classification,
            )),
            Artifact::Data(Dataset::new(
                Matrix::filled(0, 4, 0.0),
                vec![],
                vec!["a".into(), "bb".into(), "ccc".into(), "dddd".into()],
                TaskKind::Regression,
            )),
        ];
        artifacts.extend(every_op_state().into_iter().map(Artifact::OpState));
        for a in &artifacts {
            assert_eq!(encoded_size(a), encode(a).len() as u64, "{a:?}");
            assert_eq!(body_size(a), encode_body(a).len() as u64, "{a:?}");
        }
    }

    #[test]
    fn nan_survives_roundtrip() {
        let a = Artifact::Predictions(vec![f64::NAN]);
        let back = decode(&encode(&a)).unwrap();
        match back {
            Artifact::Predictions(p) => assert!(p[0].is_nan()),
            _ => panic!(),
        }
    }

    #[test]
    fn truncated_buffer_rejected() {
        let bytes = encode(&Artifact::Value(1.0));
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(decode(&truncated).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut raw = BytesMut::from(&encode(&Artifact::Value(1.0))[..]);
        raw.put_u8(0xFF);
        assert!(decode(&raw.freeze()).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(200);
        assert!(decode(&raw.freeze()).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE 802.3 check value for the standard test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_is_marker_plus_checksum() {
        let a = Artifact::Value(2.5);
        let framed = encode(&a);
        let body = encode_body(&a);
        assert_eq!(framed.len(), body.len() + 5);
        assert_eq!(framed[0], FRAME_V1);
        assert_eq!(framed[1..5], crc32(&body).to_le_bytes());
        assert_eq!(&framed[5..], &body[..]);
    }

    #[test]
    fn legacy_unframed_bytes_still_decode() {
        let a = Artifact::Predictions(vec![1.0, -2.0]);
        let legacy = Bytes::from(encode_body(&a));
        assert_ne!(legacy[0], FRAME_V1, "legacy bodies start with an artifact tag");
        assert_eq!(decode(&legacy).unwrap(), a);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut raw = encode(&Artifact::Predictions(vec![1.0, 2.0, 3.0])).to_vec();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        let err = decode(&raw).unwrap_err();
        assert!(err.0.contains("checksum"), "got: {}", err.0);
    }

    #[test]
    fn encoded_size_tracks_payload() {
        let small = encode(&Artifact::Predictions(vec![0.0; 10]));
        let large = encode(&Artifact::Predictions(vec![0.0; 10_000]));
        assert!(large.len() > 100 * small.len() / 2);
    }
}
