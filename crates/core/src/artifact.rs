//! Compiled-artifact serialization: the persistence and wire form of a
//! [`KcSimulator`].
//!
//! The paper's economics make the compiled artifact the precious resource —
//! one expensive knowledge compilation amortized over thousands of cheap
//! binds — so artifact stores (the engine's spill-to-disk eviction tier,
//! distributed sweep sharding) need a faithful byte form. The split here
//! mirrors the pipeline's own structure/parameter split:
//!
//! * **Serialized** — everything the expensive compilation produced: the
//!   unit-resolution fixings, the d-DNNF enum arena (the reference form),
//!   the flat execution tape ([`AcTape::to_bytes`], itself versioned and
//!   checksummed), and the [`PipelineMetrics`] (so a rehydrated artifact
//!   still reports its true compile cost — which cost-aware eviction
//!   policies weigh).
//! * **Recomputed** — everything that is a cheap deterministic function of
//!   the circuit: the Bayesian network, the CNF encoding, the query
//!   layout. [`KcSimulator::from_bytes`] takes the circuit and options and
//!   rebuilds these with the same code paths compilation uses, so a
//!   rehydrated simulator binds **bit-for-bit identically** to a freshly
//!   compiled one (regression-tested at the evaluator level in
//!   `tests/artifact_lifecycle.rs`).
//!
//! The payload carries the circuit's structural hash and an options
//! fingerprint: rehydration against the wrong circuit or options is
//! rejected rather than silently producing a mismatched simulator. A
//! trailing FNV-1a checksum rejects bit rot; truncated, corrupted, or
//! version-skewed payloads all decode to an error, never a panic.

use crate::pipeline::{KcOptions, KcSimulator, PhaseSeconds, PipelineMetrics};
use qkc_bayesnet::BayesNet;
use qkc_circuit::Circuit;
use qkc_cnf::encode;
use qkc_knowledge::{AcTape, CompileStats, Nnf, NnfNode, TapeDecodeError};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const MAGIC: [u8; 4] = *b"QKCA";
/// Current artifact wire-format version; bumped on any layout change.
/// Version 2 added per-phase compile times ([`PhaseSeconds`]) and the
/// compiler's order/search split to the metrics section; version-1 spill
/// files decode to [`ArtifactDecodeError::UnsupportedVersion`] and become
/// clean recompiles.
pub const ARTIFACT_WIRE_VERSION: u16 = 2;

/// Why an artifact payload was rejected by [`KcSimulator::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactDecodeError {
    /// The payload does not start with the artifact magic.
    BadMagic,
    /// The payload's format version is not one this build reads.
    UnsupportedVersion(u16),
    /// The payload ends before its sections do.
    Truncated,
    /// The trailing checksum does not match the payload.
    ChecksumMismatch,
    /// The payload was serialized from a different circuit structure.
    CircuitMismatch,
    /// The payload was serialized under different pipeline options.
    OptionsMismatch,
    /// A section is internally inconsistent (the contained invariant).
    Malformed(&'static str),
    /// The embedded execution tape failed to decode.
    Tape(TapeDecodeError),
}

impl std::fmt::Display for ArtifactDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactDecodeError::BadMagic => write!(f, "not a KC artifact payload (bad magic)"),
            ArtifactDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported KC artifact wire version {v}")
            }
            ArtifactDecodeError::Truncated => write!(f, "truncated KC artifact payload"),
            ArtifactDecodeError::ChecksumMismatch => {
                write!(f, "KC artifact payload checksum mismatch")
            }
            ArtifactDecodeError::CircuitMismatch => {
                write!(f, "KC artifact was compiled from a different circuit")
            }
            ArtifactDecodeError::OptionsMismatch => {
                write!(f, "KC artifact was compiled under different options")
            }
            ArtifactDecodeError::Malformed(what) => {
                write!(f, "malformed KC artifact payload: {what}")
            }
            ArtifactDecodeError::Tape(e) => write!(f, "embedded tape rejected: {e}"),
        }
    }
}

impl std::error::Error for ArtifactDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactDecodeError::Tape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TapeDecodeError> for ArtifactDecodeError {
    fn from(e: TapeDecodeError) -> Self {
        ArtifactDecodeError::Tape(e)
    }
}

/// A deterministic 64-bit fingerprint of the pipeline options, written
/// into the payload so rehydration under different options is rejected.
/// Uses the options' own bit-exact [`Hash`] through the std `DefaultHasher`
/// (fixed-key SipHash — stable across processes of one build; a toolchain
/// that changes it merely turns old spill files into clean cache misses).
fn options_fingerprint(options: &KcOptions) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    options.hash(&mut h);
    h.finish()
}

use qkc_knowledge::wire_checksum as fnv1a;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ArtifactDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(ArtifactDecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ArtifactDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ArtifactDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl KcSimulator {
    /// Serializes the compiled artifact into its versioned, checksummed
    /// wire form: everything compilation produced (unit-resolution
    /// fixings, the d-DNNF arena, the tape, the pipeline metrics) is
    /// stored, and the cheap deterministic rest (Bayesian network, CNF
    /// encoding, query layout) is rebuilt from the circuit by
    /// [`KcSimulator::from_bytes`], the inverse.
    pub fn to_bytes(&self, circuit: &Circuit, options: &KcOptions) -> Vec<u8> {
        let tape_bytes = self.tape.to_bytes();
        let mut out = Vec::with_capacity(tape_bytes.len() + self.nnf.num_nodes() * 8 + 256);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&ARTIFACT_WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        push_u64(&mut out, circuit.structural_hash());
        push_u64(&mut out, options_fingerprint(options));

        // Unit-resolution fixings, sorted for a canonical byte stream.
        let mut fixed: Vec<(u32, bool)> = self.fixed.iter().map(|(&v, &p)| (v, p)).collect();
        fixed.sort_unstable();
        push_u32(&mut out, fixed.len() as u32);
        for (var, polarity) in fixed {
            push_u32(&mut out, var);
            out.push(polarity as u8);
        }

        // Pipeline metrics: sizes, search stats, and the measured compile
        // cost (the recompile price a cost-aware eviction policy weighs).
        let m = &self.metrics;
        for v in [
            m.bn_nodes,
            m.cnf_vars,
            m.cnf_clauses,
            m.cnf_clauses_simplified,
            m.fixed_vars,
            m.nnf_nodes_raw,
            m.ac_nodes,
            m.ac_edges,
            m.ac_size_bytes,
        ] {
            push_u64(&mut out, v as u64);
        }
        push_u64(&mut out, m.compile_stats.decisions);
        push_u64(&mut out, m.compile_stats.cache_hits);
        push_u64(&mut out, m.compile_stats.components);
        push_u64(&mut out, m.compile_stats.order_seconds.to_bits());
        push_u64(&mut out, m.compile_stats.search_seconds.to_bits());
        push_u64(&mut out, m.compile_seconds.to_bits());
        // Per-phase wall times (version 2): a rehydrated artifact reports
        // the same measured phase breakdown as the compile that made it.
        let p = &m.phase_seconds;
        for secs in [
            p.bn_build,
            p.cnf_encode,
            p.simplify,
            p.var_order,
            p.ddnnf_search,
            p.postprocess,
            p.tape_lower,
        ] {
            push_u64(&mut out, secs.to_bits());
        }

        // The d-DNNF enum arena (reference form; the enum-walk paths and
        // c2d export of a rehydrated artifact keep working).
        push_u32(&mut out, self.nnf.num_nodes() as u32);
        push_u32(&mut out, self.nnf.root());
        for node in self.nnf.nodes() {
            match node {
                NnfNode::True => out.push(0),
                NnfNode::False => out.push(1),
                NnfNode::Lit(l) => {
                    out.push(2);
                    push_u32(&mut out, *l as u32);
                }
                NnfNode::And(cs) => {
                    out.push(3);
                    push_u32(&mut out, cs.len() as u32);
                    for &c in cs.iter() {
                        push_u32(&mut out, c);
                    }
                }
                NnfNode::Or(a, b) => {
                    out.push(4);
                    push_u32(&mut out, *a);
                    push_u32(&mut out, *b);
                }
            }
        }

        // The flat execution tape, length-prefixed (its own wire format
        // carries a nested version + checksum).
        push_u32(&mut out, tape_bytes.len() as u32);
        out.extend_from_slice(&tape_bytes);

        let sum = fnv1a(&out);
        push_u64(&mut out, sum);
        out
    }

    /// Rehydrates a compiled artifact from [`KcSimulator::to_bytes`]
    /// output: decodes the stored compilation products and recomputes the
    /// cheap circuit-derived state (Bayesian network, CNF encoding, query
    /// layout) with the same code paths compilation uses. The result binds
    /// bit-for-bit identically to the simulator that was serialized — and
    /// rehydration skips the d-DNNF search entirely, which is what makes a
    /// spill hit far cheaper than a recompile.
    ///
    /// # Errors
    ///
    /// [`ArtifactDecodeError`] on any corruption, version skew, structural
    /// violation, or a circuit/options pair that does not match the one
    /// the payload was serialized from.
    pub fn from_bytes(
        circuit: &Circuit,
        options: &KcOptions,
        bytes: &[u8],
    ) -> Result<Self, ArtifactDecodeError> {
        if bytes.len() < 4 {
            return Err(ArtifactDecodeError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(ArtifactDecodeError::BadMagic);
        }
        if bytes.len() < 8 + 8 {
            return Err(ArtifactDecodeError::Truncated);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != ARTIFACT_WIRE_VERSION {
            return Err(ArtifactDecodeError::UnsupportedVersion(version));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body) != u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes")) {
            return Err(ArtifactDecodeError::ChecksumMismatch);
        }
        let mut rd = Reader { buf: body, pos: 8 };
        if rd.u64()? != circuit.structural_hash() {
            return Err(ArtifactDecodeError::CircuitMismatch);
        }
        if rd.u64()? != options_fingerprint(options) {
            return Err(ArtifactDecodeError::OptionsMismatch);
        }

        // Recomputed circuit-derived state: deterministic functions of the
        // circuit, rebuilt with the compilation code paths.
        let bn = BayesNet::from_circuit(circuit);
        let encoding = encode(&bn);
        let num_cnf_vars = encoding.cnf.num_vars();

        let n_fixed = rd.u32()? as usize;
        // Never preallocate from an untrusted count: each entry takes 5
        // bytes, so a count the body cannot possibly hold is malformed
        // before any allocation happens.
        if n_fixed > body.len() / 5 {
            return Err(ArtifactDecodeError::Truncated);
        }
        let mut fixed = HashMap::with_capacity(n_fixed);
        let mut prev_var = 0u32;
        for i in 0..n_fixed {
            let var = rd.u32()?;
            let polarity = match rd.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ArtifactDecodeError::Malformed("invalid polarity")),
            };
            if (i > 0 && var <= prev_var) || var == 0 || var as usize > num_cnf_vars {
                return Err(ArtifactDecodeError::Malformed("fixed-variable table"));
            }
            prev_var = var;
            fixed.insert(var, polarity);
        }

        let mut sizes = [0usize; 9];
        for s in &mut sizes {
            *s = rd.u64()? as usize;
        }
        let compile_stats = CompileStats {
            decisions: rd.u64()?,
            cache_hits: rd.u64()?,
            components: rd.u64()?,
            order_seconds: f64::from_bits(rd.u64()?),
            search_seconds: f64::from_bits(rd.u64()?),
        };
        let compile_seconds = f64::from_bits(rd.u64()?);
        let phase_seconds = PhaseSeconds {
            bn_build: f64::from_bits(rd.u64()?),
            cnf_encode: f64::from_bits(rd.u64()?),
            simplify: f64::from_bits(rd.u64()?),
            var_order: f64::from_bits(rd.u64()?),
            ddnnf_search: f64::from_bits(rd.u64()?),
            postprocess: f64::from_bits(rd.u64()?),
            tape_lower: f64::from_bits(rd.u64()?),
        };
        let metrics = PipelineMetrics {
            bn_nodes: sizes[0],
            cnf_vars: sizes[1],
            cnf_clauses: sizes[2],
            cnf_clauses_simplified: sizes[3],
            fixed_vars: sizes[4],
            nnf_nodes_raw: sizes[5],
            ac_nodes: sizes[6],
            ac_edges: sizes[7],
            ac_size_bytes: sizes[8],
            compile_stats,
            compile_seconds,
            phase_seconds,
        };

        let n_nodes = rd.u32()? as usize;
        let nnf_root = rd.u32()?;
        let mut nodes = Vec::new();
        // Guard the preallocation against hostile counts; the reads below
        // bound the real size.
        nodes.reserve_exact(n_nodes.min(body.len()));
        for _ in 0..n_nodes {
            let node = match rd.u8()? {
                0 => NnfNode::True,
                1 => NnfNode::False,
                2 => NnfNode::Lit(rd.u32()? as i32),
                3 => {
                    let len = rd.u32()? as usize;
                    if len > body.len() {
                        return Err(ArtifactDecodeError::Truncated);
                    }
                    let mut cs = Vec::with_capacity(len);
                    for _ in 0..len {
                        cs.push(rd.u32()?);
                    }
                    NnfNode::And(cs.into_boxed_slice())
                }
                4 => NnfNode::Or(rd.u32()?, rd.u32()?),
                _ => return Err(ArtifactDecodeError::Malformed("unknown NNF node tag")),
            };
            nodes.push(node);
        }
        let nnf = Nnf::from_parts(nodes, nnf_root).map_err(ArtifactDecodeError::Malformed)?;

        let tape_len = rd.u32()? as usize;
        let tape = AcTape::from_bytes(rd.take(tape_len)?)?;
        if !rd.done() {
            return Err(ArtifactDecodeError::Malformed("trailing bytes"));
        }
        // The stored footprint feeds cache budget accounting — cross-check
        // it against the decoded tape so a tampered size cannot make an
        // artifact look weightless (or enormous) to eviction.
        if metrics.ac_size_bytes != tape.size_bytes() {
            return Err(ArtifactDecodeError::Malformed(
                "stored ac_size_bytes disagrees with the decoded tape",
            ));
        }
        // The tape's literal slots must fit the weight vectors bind will
        // build for this encoding, or every query would panic.
        if tape.required_weight_slots() as usize > 2 * (num_cnf_vars + 1) {
            return Err(ArtifactDecodeError::Malformed(
                "tape reads weight slots beyond the circuit's encoding",
            ));
        }

        let query = Self::build_query(&bn, &encoding, &fixed);
        let (query_lit_vars, output_gray_order) =
            Self::derived_query_layout(&query, &tape, bn.outputs().len());
        Ok(Self {
            bn,
            encoding,
            fixed,
            nnf,
            tape,
            query,
            query_lit_vars,
            output_gray_order,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::{Param, ParamMap};

    fn noisy_parameterized() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0)
            .rx(1, Param::symbol("t"))
            .depolarize(0, 0.05)
            .cnot(0, 1)
            .zz(1, 2, Param::symbol("u"))
            .measure(2);
        c
    }

    fn bits_eq(a: qkc_math::Complex, b: qkc_math::Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    #[test]
    fn round_trip_binds_bit_for_bit() {
        let circuit = noisy_parameterized();
        let options = KcOptions::default();
        let sim = KcSimulator::compile(&circuit, &options);
        let bytes = sim.to_bytes(&circuit, &options);
        let back = KcSimulator::from_bytes(&circuit, &options, &bytes).expect("rehydrates");
        assert_eq!(back.metrics().ac_size_bytes, sim.metrics().ac_size_bytes);
        assert_eq!(
            back.metrics().compile_seconds.to_bits(),
            sim.metrics().compile_seconds.to_bits()
        );
        assert_eq!(back.nnf().num_nodes(), sim.nnf().num_nodes());
        for (t, u) in [(0.3, -1.1), (2.2, 0.7)] {
            let p = ParamMap::from_pairs([("t", t), ("u", u)]);
            let a = sim.bind(&p).unwrap();
            let b = back.bind(&p).unwrap();
            let rho_a = a.density_matrix();
            let rho_b = b.density_matrix();
            for r in 0..8 {
                for c in 0..8 {
                    assert!(
                        bits_eq(rho_a[(r, c)], rho_b[(r, c)]),
                        "rho[{r},{c}] differs after rehydration"
                    );
                }
            }
        }
        // Re-serialization is byte-identical: nothing was lost.
        assert_eq!(back.to_bytes(&circuit, &options), bytes);
    }

    #[test]
    fn wrong_circuit_or_options_is_rejected() {
        let circuit = noisy_parameterized();
        let options = KcOptions::default();
        let sim = KcSimulator::compile(&circuit, &options);
        let bytes = sim.to_bytes(&circuit, &options);

        let mut other = noisy_parameterized();
        other.h(2);
        assert_eq!(
            KcSimulator::from_bytes(&other, &options, &bytes).err(),
            Some(ArtifactDecodeError::CircuitMismatch)
        );
        let skewed = KcOptions {
            separator_balance: 0.5000001,
            ..Default::default()
        };
        assert_eq!(
            KcSimulator::from_bytes(&circuit, &skewed, &bytes).err(),
            Some(ArtifactDecodeError::OptionsMismatch)
        );
    }

    #[test]
    fn corruption_and_truncation_are_rejected_cleanly() {
        let circuit = noisy_parameterized();
        let options = KcOptions::default();
        let sim = KcSimulator::compile(&circuit, &options);
        let bytes = sim.to_bytes(&circuit, &options);
        for len in 0..bytes.len() {
            assert!(
                KcSimulator::from_bytes(&circuit, &options, &bytes[..len]).is_err(),
                "truncation at {len} accepted"
            );
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                KcSimulator::from_bytes(&circuit, &options, &bad).is_err(),
                "flip at {i} accepted"
            );
        }
        let mut versioned = bytes.clone();
        versioned[4] = 0x7F;
        assert!(matches!(
            KcSimulator::from_bytes(&circuit, &options, &versioned).err(),
            Some(ArtifactDecodeError::UnsupportedVersion(_))
        ));
    }
}
