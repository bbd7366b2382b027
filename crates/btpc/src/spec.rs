//! From codec profile to pruned application specification.
//!
//! This module performs the paper's §4.1 step for the BTPC demonstrator:
//! it runs the *instrumented* encoder on a representative input, scales
//! the measured access counts to the production frame size, and emits the
//! pruned [`AppSpec`] with the **18 basic groups** of §3 — three 1 M-word
//! arrays (`image`, `pyr`, `ridge`) and fifteen arrays of the order of
//! 256–512 words with bit widths from 2 (`ridge` is 2-bit) to 20 (the
//! Huffman frequency counters).
//!
//! Loop structure of the pruned code: one nest that raw-codes the
//! coarsest lattice, and one nest per neighbourhood context for the
//! prediction/coding loop. Splitting by context keeps the six Huffman
//! coders' accesses in *different* loop bodies, which correctly models
//! their mutual exclusion (per pixel only one coder runs) for the
//! storage-cycle-budget distribution.

use memx_ir::{
    AccessKind, AppSpec, AppSpecBuilder, BasicGroupId, BuildSpecError, LoopNestId, Placement,
};
use memx_profile::{Profile, ProfileRegistry};

use crate::{CodecConfig, Encoder, Image};

/// Number of Huffman contexts (mirrors the codec).
const CONTEXTS: usize = 6;
/// Error-symbol alphabet size (mirrors the codec).
const ERROR_SYMBOLS: u64 = 511;

/// Runs the instrumented BTPC encoder on a deterministic synthetic
/// "natural" image and returns the measured access profile.
///
/// Profiling on a reduced frame (`width`×`height`) is standard practice;
/// scale with [`Profile::scaled_to`] before building the production
/// spec.
pub fn measure_profile(width: usize, height: usize, seed: u64) -> Profile {
    let registry = ProfileRegistry::new();
    let image = Image::synthetic_natural(width, height, seed);
    Encoder::new(CodecConfig::lossless())
        .encode_with_registry(&image, &registry)
        .expect("instrumented encode cannot fail");
    registry.snapshot()
}

/// Handles to the interesting groups of the generated spec.
#[derive(Debug, Clone)]
pub struct BtpcSpec {
    /// The full pruned specification.
    pub spec: AppSpec,
    /// The 1 M-word input frame store.
    pub image: BasicGroupId,
    /// The 1 M-word reconstruction pyramid.
    pub pyr: BasicGroupId,
    /// The 1 M-word, 2-bit-wide pattern array.
    pub ridge: BasicGroupId,
    /// The per-context prediction/coding loop nests.
    pub refine_nests: Vec<LoopNestId>,
}

/// Builds the pruned BTPC specification for a `frame_width` ×
/// `frame_height` production frame from a measured (already scaled or
/// to-be-scaled) profile.
///
/// `cycle_budget` is the storage cycle budget derived from the real-time
/// constraint (the paper uses ~20 M cycles for 1 Mpixel at
/// 1 Mpixel/s).
///
/// # Errors
///
/// Returns an error if the profile is degenerate (e.g. empty) and the
/// resulting spec fails validation.
pub fn btpc_app_spec(
    profile: &Profile,
    frame_width: u64,
    frame_height: u64,
    cycle_budget: u64,
) -> Result<BtpcSpec, BuildSpecError> {
    let pixels = frame_width * frame_height;
    let mut b = AppSpecBuilder::new("btpc");

    // --- Basic groups (§3: 18 important arrays). -----------------------
    // Three very large groups; the frame store cannot fit on chip.
    let image = b.basic_group_placed("image", pixels, 8, Placement::OffChip)?;
    let pyr = b.basic_group_placed("pyr", pixels, 8, Placement::OffChip)?;
    let ridge = b.basic_group_placed("ridge", pixels, 2, Placement::OffChip)?;
    // Fifteen small groups: 6x Huffman frequency tables (20-bit — the
    // paper's widest), 6x code tables, two LUTs, the output buffer.
    let mut huff_freq = Vec::with_capacity(CONTEXTS);
    let mut huff_code = Vec::with_capacity(CONTEXTS);
    for c in 0..CONTEXTS {
        huff_freq.push(b.basic_group(format!("huff_freq_{c}"), ERROR_SYMBOLS, 20)?);
        huff_code.push(b.basic_group(format!("huff_code_{c}"), ERROR_SYMBOLS, 16)?);
    }
    let zigzag = b.basic_group("zigzag", ERROR_SYMBOLS, 10)?;
    let quant = b.basic_group("quant", ERROR_SYMBOLS, 9)?;
    let bitbuf = b.basic_group("bitbuf", 512, 16)?;

    // --- Profiled totals, scaled to the production frame. --------------
    let profiled_pixels: f64 = {
        let (img_reads, _) = profile.counts("image").unwrap_or((1.0, 0.0));
        img_reads.max(1.0)
    };
    let scale = pixels as f64 / profiled_pixels;
    let count = |name: &str| -> (f64, f64) {
        let (r, w) = profile.counts(name).unwrap_or((0.0, 0.0));
        (r * scale, w * scale)
    };

    // Symbols coded per context (one frequency-table write per symbol,
    // minus the rare rescale writes — a fine approximation).
    let sym_per_ctx: Vec<f64> = (0..CONTEXTS)
        .map(|c| count(&format!("huff_freq_{c}")).1.max(1.0))
        .collect();
    let new_pixels: f64 = sym_per_ctx.iter().sum();

    // Shared per-pixel traffic apportioned equally to every coded pixel.
    let (pyr_r, _pyr_w) = count("pyr");
    let (ridge_r, ridge_w) = count("ridge");
    let nb_weight = (pyr_r / (4.0 * new_pixels)).clamp(0.05, 1.0);
    let ridge_nb_weight = (ridge_r / (4.0 * new_pixels)).clamp(0.05, 1.0);
    let ridge_w_weight = (ridge_w / new_pixels).clamp(0.05, 1.0);
    let (_, bitbuf_w) = count("bitbuf");
    let bitbuf_weight = (bitbuf_w / new_pixels).clamp(0.01, 1.0);

    // --- Loop nest 1: raw-code the coarsest lattice. --------------------
    let top_count = (pixels / 1024).max(1); // spacing 32 at 1024x1024
    let top = b.loop_nest("top_init", top_count)?;
    let t_img = b.access(top, image, AccessKind::Read)?;
    let t_pyr = b.access(top, pyr, AccessKind::Write)?;
    let t_buf = b.access_weighted(top, bitbuf, AccessKind::Write, 1.0)?;
    b.depend(top, t_img, t_pyr)?;
    b.depend(top, t_img, t_buf)?;

    // --- Loop nests 2..7: prediction/coding, one per context. -----------
    let mut refine_nests = Vec::with_capacity(CONTEXTS);
    for c in 0..CONTEXTS {
        let iters = sym_per_ctx[c].round().max(1.0) as u64;
        let nest = b.loop_nest(format!("refine_ctx{c}"), iters)?;
        refine_nests.push(nest);

        // Gather: four pyr neighbours and their ridge codes.
        let mut gathers = Vec::new();
        for _ in 0..4 {
            gathers.push(b.access_weighted(nest, pyr, AccessKind::Read, nb_weight)?);
            gathers.push(b.access_weighted(nest, ridge, AccessKind::Read, ridge_nb_weight)?);
        }
        let a_img = b.access(nest, image, AccessKind::Read)?;
        let a_quant = b.access(nest, quant, AccessKind::Read)?;
        let a_zig = b.access(nest, zigzag, AccessKind::Read)?;
        // Per-context frequency reads include the periodic rebuild scans.
        let freq_r_per_sym = (count(&format!("huff_freq_{c}")).0 / sym_per_ctx[c]).max(0.1);
        let a_freq_r = add_scaled(&mut b, nest, huff_freq[c], AccessKind::Read, freq_r_per_sym)?;
        let a_freq_w = b.access(nest, huff_freq[c], AccessKind::Write)?;
        let code_r_per_sym = (count(&format!("huff_code_{c}")).0 / sym_per_ctx[c]).max(0.1);
        let a_code_r = add_scaled(&mut b, nest, huff_code[c], AccessKind::Read, code_r_per_sym)?;
        let a_buf = b.access_weighted(nest, bitbuf, AccessKind::Write, bitbuf_weight)?;
        let a_pyr_w = b.access(nest, pyr, AccessKind::Write)?;
        let a_ridge_w = b.access_weighted(nest, ridge, AccessKind::Write, ridge_w_weight)?;

        // Flow graph: gather -> quantize -> zigzag -> code -> emit;
        // frequency update after its read; writes after their inputs.
        for &g in &gathers {
            b.depend(nest, g, a_quant)?;
        }
        b.depend(nest, a_img, a_quant)?;
        b.depend(nest, a_quant, a_zig)?;
        b.depend(nest, a_zig, a_code_r)?;
        b.depend(nest, a_zig, a_freq_r)?;
        b.depend(nest, a_freq_r, a_freq_w)?;
        b.depend(nest, a_code_r, a_buf)?;
        b.depend(nest, a_quant, a_pyr_w)?;
        for &g in &gathers {
            b.depend(nest, g, a_ridge_w)?;
        }
    }

    b.cycle_budget(cycle_budget)
        .real_time_seconds(pixels as f64 / 1.0e6); // 1 Mpixel/s
    let spec = b.build()?;
    Ok(BtpcSpec {
        spec,
        image,
        pyr,
        ridge,
        refine_nests,
    })
}

/// Adds accesses totalling `per_iter` accesses per iteration: whole
/// accesses at weight 1 plus one fractional access. Returns the id of the
/// *last* added access (the chain anchor for dependencies).
fn add_scaled(
    b: &mut AppSpecBuilder,
    nest: LoopNestId,
    group: BasicGroupId,
    kind: AccessKind,
    per_iter: f64,
) -> Result<memx_ir::AccessId, BuildSpecError> {
    let whole = per_iter.floor() as usize;
    let frac = per_iter - per_iter.floor();
    let mut last = None;
    for _ in 0..whole {
        last = Some(b.access(nest, group, kind)?);
    }
    if frac > 1e-6 || last.is_none() {
        last = Some(b.access_weighted(nest, group, kind, frac.clamp(1e-6, 1.0))?);
    }
    Ok(last.expect("at least one access added"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_all_tracked_arrays() {
        let p = measure_profile(32, 32, 1);
        for name in ["image", "pyr", "ridge", "zigzag", "quant", "bitbuf"] {
            assert!(p.counts(name).is_some(), "missing {name}");
        }
        for c in 0..CONTEXTS {
            assert!(p.counts(&format!("huff_freq_{c}")).is_some());
            assert!(p.counts(&format!("huff_code_{c}")).is_some());
        }
    }

    #[test]
    fn spec_has_eighteen_basic_groups() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        assert_eq!(btpc.spec.basic_groups().len(), 18);
    }

    #[test]
    fn three_groups_are_one_megaword() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        let big: Vec<_> = btpc
            .spec
            .basic_groups()
            .iter()
            .filter(|g| g.words() == 1024 * 1024)
            .collect();
        assert_eq!(big.len(), 3);
    }

    #[test]
    fn ridge_is_two_bits_and_freq_is_twenty() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        assert_eq!(btpc.spec.group(btpc.ridge).bitwidth(), 2);
        let widths: Vec<u32> = btpc
            .spec
            .basic_groups()
            .iter()
            .map(|g| g.bitwidth())
            .collect();
        assert_eq!(*widths.iter().min().unwrap(), 2);
        assert_eq!(*widths.iter().max().unwrap(), 20);
    }

    #[test]
    fn spec_accesses_scale_to_frame() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        let (img_r, _) = btpc.spec.total_accesses(btpc.image);
        let pixels = (1024 * 1024) as f64;
        // Every production pixel is read about once from the frame store.
        assert!((img_r - pixels).abs() / pixels < 0.05, "img_r = {img_r}");
    }

    #[test]
    fn spec_fits_its_budget() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        assert!(btpc.spec.min_cycles() <= btpc.spec.cycle_budget());
    }

    #[test]
    fn real_time_matches_throughput_constraint() {
        let p = measure_profile(32, 32, 1);
        let btpc = btpc_app_spec(&p, 1024, 1024, 20_000_000).unwrap();
        // 1 Mpixel at 1 Mpixel/s.
        let rt = btpc.spec.real_time_seconds();
        assert!((rt - 1.048576).abs() < 1e-9, "rt = {rt}");
    }
}
