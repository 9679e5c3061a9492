//! Named model configurations from Section II-C of the paper — the matrix
//! shapes that motivate BiQGEMM's target regime (few-batch multiplications
//! against multi-thousand-dimensional weights).

/// Shape summary of a Transformer-family model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Hidden (model) size `n`.
    pub d_model: usize,
    /// Feed-forward inner size (4·n for the classic architecture).
    pub d_ff: usize,
    /// Encoder layers.
    pub encoder_layers: usize,
    /// Decoder layers (0 for encoder-only models like BERT).
    pub decoder_layers: usize,
    /// Attention heads.
    pub heads: usize,
}

impl TransformerConfig {
    /// Transformer *base* (paper: n = 512, 6 encoder layers).
    pub const BASE: Self =
        Self { d_model: 512, d_ff: 2048, encoder_layers: 6, decoder_layers: 6, heads: 8 };

    /// Transformer *big* (paper: n = 1024).
    pub const BIG: Self =
        Self { d_model: 1024, d_ff: 4096, encoder_layers: 6, decoder_layers: 6, heads: 16 };

    /// Weight-matrix shapes of one encoder layer: four `(n × n)` attention
    /// projections plus `(4n × n)` and `(n × 4n)` feed-forward matrices.
    pub fn encoder_layer_matrices(&self) -> Vec<(usize, usize)> {
        vec![
            (self.d_model, self.d_model),
            (self.d_model, self.d_model),
            (self.d_model, self.d_model),
            (self.d_model, self.d_model),
            (self.d_ff, self.d_model),
            (self.d_model, self.d_ff),
        ]
    }
}

/// The biggest matrix in ALBERT xx-large (paper: `4K × 16K`, 256 MB fp32).
pub const ALBERT_XXLARGE_FF: (usize, usize) = (4096, 16384);

/// LAS speech recogniser shapes (paper: six encoder bi-LSTM layers with
/// `2.5K × 5K` matrices; two decoder layers with `1.2K × 1.2K`).
#[derive(Clone, Copy, Debug)]
pub struct LasConfig {
    /// Encoder bi-LSTM layers.
    pub encoder_layers: usize,
    /// Encoder weight shape (rows 4·hidden stacked gates? — the paper quotes
    /// the raw matrix as `2.5K × 5K`).
    pub encoder_matrix: (usize, usize),
    /// Decoder layers.
    pub decoder_layers: usize,
    /// Decoder weight shape.
    pub decoder_matrix: (usize, usize),
}

/// LAS per the paper.
pub const LAS: LasConfig = LasConfig {
    encoder_layers: 6,
    encoder_matrix: (2560, 5120),
    decoder_layers: 2,
    decoder_matrix: (1280, 1280),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_and_big_match_paper() {
        assert_eq!(TransformerConfig::BASE.d_model, 512);
        assert_eq!(TransformerConfig::BASE.encoder_layers, 6);
        assert_eq!(TransformerConfig::BIG.d_model, 1024);
    }

    #[test]
    fn encoder_layer_has_six_matrices() {
        let mats = TransformerConfig::BASE.encoder_layer_matrices();
        assert_eq!(mats.len(), 6);
        assert_eq!(mats[4], (2048, 512));
        assert_eq!(mats[5], (512, 2048));
    }

    #[test]
    fn albert_matrix_is_256mb_fp32() {
        // Paper: "(4K×16K), which requires 256 MB (with FP32)".
        let (rows, cols) = ALBERT_XXLARGE_FF;
        assert_eq!(rows * cols * 4, 256 << 20);
    }

    #[test]
    fn las_shapes() {
        assert_eq!(LAS.encoder_matrix, (2560, 5120));
        assert_eq!(LAS.decoder_matrix, (1280, 1280));
    }
}
