//! Under a parallel plan the encoder's and decoder's non-GEMM work
//! (attention, GELU, the layer norms, each linear's transpose-plus-bias)
//! runs as column regions on the plan's workers. Every region partitions
//! independent output columns, so every worker count must reproduce the
//! serial plan's output bit for bit — checked here for workers
//! {1, 2, 3, 7}, sequence lengths {1, 2, 7, 15, 16, 17, 32, 33} (either
//! side of the score loop's 16-key block), a BiQGEMM and a dense backend,
//! and cross-attention over a memory of a different length.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::attention::MultiHeadAttention;
use biq_nn::layernorm::LayerNorm;
use biq_nn::transformer::{DecoderLayer, Encoder, EncoderLayer};
use biq_nn::Linear;
use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, SharedExecutor, Threading, WeightSource};

const WORKERS: [usize; 4] = [1, 2, 3, 7];
const SEQS: [usize; 8] = [1, 2, 7, 15, 16, 17, 32, 33];
const BACKENDS: [BackendSpec; 2] =
    [BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy }, BackendSpec::Fp32Blocked];
const D: usize = 64;
const D_FF: usize = 128;
const HEADS: usize = 4;

/// Builds layers from one seeded weight stream, every linear on `spec`
/// with the serial plan (`None`) or a parallel plan on `workers`, all on
/// one shared executor — the same weights for every threading choice.
struct Builder {
    rng: MatrixRng,
    spec: BackendSpec,
    workers: Option<usize>,
    exec: SharedExecutor,
}

impl Builder {
    fn new(spec: BackendSpec, workers: Option<usize>) -> Self {
        Self { rng: MatrixRng::seed_from(0x5e9), spec, workers, exec: SharedExecutor::new() }
    }

    fn linear(&mut self, m: usize, n: usize) -> Linear {
        let w = self.rng.gaussian(m, n, 0.0, (n as f32).powf(-0.5));
        let bias = self.rng.gaussian_vec(m);
        let builder = PlanBuilder::new(m, n).batch_hint(32).backend(self.spec);
        let plan = match self.workers {
            None => builder.threading(Threading::Serial),
            Some(n) => builder.threads(n).threading(Threading::Parallel),
        }
        .build();
        Linear::from_plan(&plan, WeightSource::Dense(&w), Some(bias), self.exec.clone())
    }

    fn attention(&mut self) -> MultiHeadAttention {
        let mut proj = || self.linear(D, D);
        MultiHeadAttention::new(proj(), proj(), proj(), proj(), HEADS)
    }

    fn layer_norm(&mut self) -> LayerNorm {
        let gamma = self.rng.gaussian_vec(D).iter().map(|g| 1.0 + 0.1 * g).collect();
        LayerNorm::with_params(gamma, self.rng.gaussian_vec(D), 1e-5)
    }

    fn encoder(mut self) -> Encoder {
        let layers = (0..2)
            .map(|_| {
                let attn = self.attention();
                let (ff1, ff2) = (self.linear(D_FF, D), self.linear(D, D_FF));
                EncoderLayer::new(attn, ff1, ff2, self.layer_norm(), self.layer_norm())
            })
            .collect();
        Encoder::from_layers(layers)
    }

    fn decoder(mut self) -> DecoderLayer {
        let (sa, ca) = (self.attention(), self.attention());
        let (ff1, ff2) = (self.linear(D_FF, D), self.linear(D, D_FF));
        let (ln1, ln2, ln3) = (self.layer_norm(), self.layer_norm(), self.layer_norm());
        DecoderLayer::new(sa, ca, ff1, ff2, ln1, ln2, ln3)
    }
}

fn input(seq: usize, salt: u64) -> ColMatrix {
    MatrixRng::seed_from(0x1000 + 64 * seq as u64 + salt).gaussian_col(D, seq, 0.0, 1.0)
}

fn bits(y: &ColMatrix) -> Vec<u32> {
    y.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn encoder_forward_is_bit_identical_for_every_worker_count() {
    for spec in BACKENDS {
        let serial = Builder::new(spec, None).encoder();
        let want: Vec<Vec<u32>> =
            SEQS.iter().map(|&s| bits(&serial.forward(&input(s, 0)))).collect();
        for workers in WORKERS {
            let parallel = Builder::new(spec, Some(workers)).encoder();
            for (&s, want) in SEQS.iter().zip(&want) {
                let got = bits(&parallel.forward(&input(s, 0)));
                assert!(got == *want, "{spec:?}, {workers} workers, seq {s}");
            }
        }
    }
}

#[test]
fn decoder_with_cross_attention_is_bit_identical_for_every_worker_count() {
    // The memory is always longer than the decoder stream (sq ≠ skv), so
    // the query-column split never lines up with the key/value columns.
    let memory = |s: usize| input(s + 5, 1);
    for spec in BACKENDS {
        let serial = Builder::new(spec, None).decoder();
        let want: Vec<Vec<u32>> =
            SEQS.iter().map(|&s| bits(&serial.forward(&input(s, 2), &memory(s)))).collect();
        for workers in WORKERS {
            let parallel = Builder::new(spec, Some(workers)).decoder();
            for (&s, want) in SEQS.iter().zip(&want) {
                let got = bits(&parallel.forward(&input(s, 2), &memory(s)));
                assert!(got == *want, "{spec:?}, {workers} workers, seq {s}");
            }
        }
    }
}
