//! Off-chip DRAM part catalog (EDO-DRAM datasheet stand-in).
//
// fingerprinted(alloc_model_fingerprint) — every catalog row
// is hashed into the allocation cache key.

use std::fmt;

use crate::calibration as cal;

/// One catalog entry: a discrete off-chip DRAM device.
///
/// Mirrors a datasheet row of the Siemens EDO DRAM series the paper used:
/// a fixed depth × width organization with a per-access energy and a
/// static (refresh + interface) power.
#[derive(Debug, Clone, PartialEq)]
pub struct OffChipPart {
    name: String,
    words: u64,
    width: u32,
    energy_pj: f64,
    static_mw: f64,
}

impl OffChipPart {
    /// Creates a catalog entry.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `width` is zero, or the energies are not
    /// positive.
    pub fn new(
        name: impl Into<String>,
        words: u64,
        width: u32,
        energy_pj: f64,
        static_mw: f64,
    ) -> Self {
        assert!(
            words > 0 && width > 0,
            "part organization must be non-empty"
        );
        assert!(
            energy_pj > 0.0 && static_mw > 0.0,
            "part power figures must be positive"
        );
        OffChipPart {
            name: name.into(),
            words,
            width,
            energy_pj,
            static_mw,
        }
    }

    /// Datasheet part name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Addressable words of one device.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Data width of one device in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Energy of one device access in pJ (datasheet active power divided
    /// by access rate).
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Static power of one device in mW (refresh, interface).
    pub fn static_mw(&self) -> f64 {
        self.static_mw
    }
}

impl fmt::Display for OffChipPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}x{}b)", self.name, self.words, self.width)
    }
}

/// Error selecting an off-chip configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectPartError {
    /// The catalog holds no parts.
    EmptyCatalog,
    /// More ports were requested than off-chip configurations support.
    UnsupportedPorts {
        /// The rejected port count.
        ports: u32,
    },
}

/// Error parsing a datasheet table (see [`OffChipCatalog::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCatalogError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseCatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "catalog line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseCatalogError {}

impl fmt::Display for SelectPartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectPartError::EmptyCatalog => write!(f, "off-chip catalog is empty"),
            SelectPartError::UnsupportedPorts { ports } => {
                write!(
                    f,
                    "off-chip memories support at most 2 ports, {ports} requested"
                )
            }
        }
    }
}

impl std::error::Error for SelectPartError {}

/// A concrete off-chip configuration chosen by
/// [`OffChipCatalog::select`]: `devices_wide x ranks` copies of one part,
/// optionally organized as an interleaved dual-bank (2-port) system.
#[derive(Debug, Clone, PartialEq)]
pub struct OffChipSelection {
    part: OffChipPart,
    devices_wide: u32,
    ranks: u32,
    ports: u32,
}

impl OffChipSelection {
    /// Reassembles a selection from its parts — the inverse of the
    /// accessors, so persisted selections (e.g. cached allocation
    /// solutions) can round-trip without re-running [`OffChipCatalog::select`].
    ///
    /// # Panics
    ///
    /// Panics if `devices_wide` or `ranks` is zero, or `ports` is not
    /// 1 or 2 (the only configurations `select` can produce).
    pub fn from_parts(part: OffChipPart, devices_wide: u32, ranks: u32, ports: u32) -> Self {
        assert!(
            devices_wide > 0 && ranks > 0,
            "selection must contain at least one device"
        );
        assert!(
            (1..=2).contains(&ports),
            "off-chip selections carry 1 or 2 ports, got {ports}"
        );
        OffChipSelection {
            part,
            devices_wide,
            ranks,
            ports,
        }
    }

    /// The selected catalog part.
    pub fn part(&self) -> &OffChipPart {
        &self.part
    }

    /// Devices ganged in parallel to reach the requested width.
    pub fn devices_wide(&self) -> u32 {
        self.devices_wide
    }

    /// Device ranks stacked to reach the requested depth.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Effective port count (1 or 2).
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Total devices in the configuration.
    pub fn devices(&self) -> u32 {
        self.devices_wide * self.ranks
    }

    /// Energy of one logical access in pJ: every width-ganged device of
    /// the addressed rank participates; dual-bank operation activates
    /// pages in both banks.
    pub fn energy_pj_per_access(&self) -> f64 {
        let mut e = self.part.energy_pj * f64::from(self.devices_wide);
        if self.ports == 2 {
            e *= cal::OFF_CHIP_TWO_PORT_ENERGY_FACTOR;
        }
        e
    }

    /// Static power of the configuration in mW.
    pub fn static_mw(&self) -> f64 {
        let mut p = self.part.static_mw * f64::from(self.devices());
        if self.ports == 2 {
            p *= cal::OFF_CHIP_TWO_PORT_STATIC_FACTOR;
        }
        p
    }

    /// Total power at the given access rate \[accesses/s\], in mW.
    pub fn power_mw(&self, accesses_per_s: f64) -> f64 {
        // pJ/access * access/s = pW; /1e9 = mW.
        self.static_mw() + self.energy_pj_per_access() * accesses_per_s / 1e9
    }
}

impl fmt::Display for OffChipSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{}w x{}r /{}p",
            self.part, self.devices_wide, self.ranks, self.ports
        )
    }
}

/// The off-chip part catalog: the datasheet table the paper's tools
/// consult when pricing off-chip storage.
#[derive(Debug, Clone, PartialEq)]
pub struct OffChipCatalog {
    parts: Vec<OffChipPart>,
}

impl OffChipCatalog {
    /// Creates a catalog from explicit parts.
    pub fn new(parts: Vec<OffChipPart>) -> Self {
        OffChipCatalog { parts }
    }

    /// The default EDO-DRAM-era catalog: depths 256 K / 1 M / 4 M, widths
    /// ×4 / ×8 / ×16 / ×32, with energies from the calibration formula
    /// (fixed page-activation cost plus a per-data-bit cost — wider
    /// devices burn more per access, the effect behind the paper's remark
    /// that "a 16-bit off-chip memory consumes more power than an 8-bit
    /// memory").
    pub fn default_edo() -> Self {
        let mut parts = Vec::new();
        for &(depth_name, words) in &[
            ("256K", 256 * 1024u64),
            ("1M", 1024 * 1024),
            ("4M", 4 * 1024 * 1024),
        ] {
            for &width in &[4u32, 8, 16, 32] {
                let energy = cal::OFF_CHIP_ENERGY_BASE_PJ
                    + cal::OFF_CHIP_ENERGY_PER_BIT_PJ * f64::from(width);
                // Larger dies refresh more rows.
                let static_mw =
                    cal::OFF_CHIP_STATIC_MW * (1.0 + (words as f64 / (1 << 20) as f64) * 0.35);
                parts.push(OffChipPart::new(
                    format!("EDO-{depth_name}x{width}"),
                    words,
                    width,
                    energy,
                    static_mw,
                ));
            }
        }
        OffChipCatalog { parts }
    }

    /// All catalog entries.
    pub fn parts(&self) -> &[OffChipPart] {
        &self.parts
    }

    /// Parses a datasheet table — the paper's §3 workflow verbatim:
    /// *"the data sheet... offer power estimates for different sizes,
    /// which we entered into a table for our tools to use."*
    ///
    /// Format: one part per line, `name words width energy_pj static_mw`,
    /// whitespace-separated; `#` starts a comment; blank lines ignored.
    /// `words` accepts `K`/`M` suffixes (binary: 1K = 1024 words).
    ///
    /// ```
    /// use memx_memlib::OffChipCatalog;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let catalog = OffChipCatalog::parse(
    ///     "# vendor datasheet, 1998\n\
    ///      EDO-1Mx8   1M  8  6280 18.9\n\
    ///      EDO-4Mx4   4M  4  5040 33.6\n",
    /// )?;
    /// assert_eq!(catalog.parts().len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ParseCatalogError`] naming the offending line.
    pub fn parse(table: &str) -> Result<OffChipCatalog, ParseCatalogError> {
        let mut parts = Vec::new();
        for (i, raw) in table.lines().enumerate() {
            let line = i + 1;
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let fields: Vec<&str> = text.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(ParseCatalogError {
                    line,
                    reason: format!("expected 5 fields, found {}", fields.len()),
                });
            }
            let words = parse_words(fields[1]).ok_or_else(|| ParseCatalogError {
                line,
                reason: format!("bad word count `{}`", fields[1]),
            })?;
            let width: u32 = fields[2].parse().map_err(|_| ParseCatalogError {
                line,
                reason: format!("bad width `{}`", fields[2]),
            })?;
            let energy: f64 = fields[3].parse().map_err(|_| ParseCatalogError {
                line,
                reason: format!("bad energy `{}`", fields[3]),
            })?;
            let static_mw: f64 = fields[4].parse().map_err(|_| ParseCatalogError {
                line,
                reason: format!("bad static power `{}`", fields[4]),
            })?;
            if words == 0 || width == 0 || energy <= 0.0 || static_mw <= 0.0 {
                return Err(ParseCatalogError {
                    line,
                    reason: "all part parameters must be positive".to_owned(),
                });
            }
            parts.push(OffChipPart::new(fields[0], words, width, energy, static_mw));
        }
        Ok(OffChipCatalog { parts })
    }

    /// Selects the configuration covering `words x width` with `ports`
    /// ports that minimizes total power at the given access rate.
    ///
    /// # Errors
    ///
    /// Returns an error if the catalog is empty or `ports > 2` (off-chip
    /// DRAM systems offer at most an interleaved dual bank).
    pub fn select(
        &self,
        words: u64,
        width: u32,
        ports: u32,
        accesses_per_s: f64,
    ) -> Result<OffChipSelection, SelectPartError> {
        if self.parts.is_empty() {
            return Err(SelectPartError::EmptyCatalog);
        }
        if ports == 0 || ports > 2 {
            return Err(SelectPartError::UnsupportedPorts { ports });
        }
        let mut best: Option<(f64, OffChipSelection)> = None;
        for part in &self.parts {
            let devices_wide = width.div_ceil(part.width);
            let ranks = u32::try_from(words.div_ceil(part.words)).unwrap_or(u32::MAX);
            let sel = OffChipSelection {
                part: part.clone(),
                devices_wide,
                ranks,
                ports,
            };
            let power = sel.power_mw(accesses_per_s);
            let better = match &best {
                None => true,
                Some((best_power, _)) => power < *best_power,
            };
            if better {
                best = Some((power, sel));
            }
        }
        best.map(|(_, sel)| sel)
            .ok_or(SelectPartError::EmptyCatalog)
    }
}

impl Default for OffChipCatalog {
    fn default() -> Self {
        Self::default_edo()
    }
}

/// Parses a word count with optional binary `K`/`M` suffix.
fn parse_words(text: &str) -> Option<u64> {
    let (digits, factor) = match text.as_bytes().last()? {
        b'K' | b'k' => (&text[..text.len() - 1], 1024),
        b'M' | b'm' => (&text[..text.len() - 1], 1024 * 1024),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> OffChipCatalog {
        OffChipCatalog::default_edo()
    }

    #[test]
    fn default_catalog_has_all_organizations() {
        assert_eq!(catalog().parts().len(), 12);
    }

    #[test]
    fn select_covers_requested_capacity() {
        let sel = catalog().select(1 << 20, 10, 1, 1e6).unwrap();
        let total_words = sel.part().words() * u64::from(sel.ranks());
        let total_width = sel.part().width() * sel.devices_wide();
        assert!(total_words >= 1 << 20);
        assert!(total_width >= 10);
    }

    #[test]
    fn wider_access_needs_more_power() {
        // The Table 1 effect: a 10-bit (merged) group needs a 16-bit
        // off-chip configuration which burns more per access than 8-bit.
        let c = catalog();
        let sel8 = c.select(1 << 20, 8, 1, 2e6).unwrap();
        let sel16 = c.select(1 << 20, 16, 1, 2e6).unwrap();
        assert!(sel16.energy_pj_per_access() > sel8.energy_pj_per_access());
    }

    #[test]
    fn two_port_costs_substantially_more() {
        // The Table 2 effect: without a hierarchy the image store needs a
        // dual-ported off-chip memory.
        let c = catalog();
        let p1 = c.select(1 << 20, 8, 1, 4e6).unwrap().power_mw(4e6);
        let p2 = c.select(1 << 20, 8, 2, 4e6).unwrap().power_mw(4e6);
        assert!(p2 > 1.25 * p1, "p2={p2} p1={p1}");
    }

    #[test]
    fn more_than_two_ports_rejected() {
        assert_eq!(
            catalog().select(1024, 8, 3, 1e6).unwrap_err(),
            SelectPartError::UnsupportedPorts { ports: 3 }
        );
        assert_eq!(
            catalog().select(1024, 8, 0, 1e6).unwrap_err(),
            SelectPartError::UnsupportedPorts { ports: 0 }
        );
    }

    #[test]
    fn empty_catalog_rejected() {
        let c = OffChipCatalog::new(Vec::new());
        assert_eq!(
            c.select(1024, 8, 1, 1e6).unwrap_err(),
            SelectPartError::EmptyCatalog
        );
    }

    #[test]
    fn power_grows_with_access_rate() {
        let sel = catalog().select(1 << 20, 8, 1, 1e6).unwrap();
        assert!(sel.power_mw(2e6) > sel.power_mw(1e6));
    }

    #[test]
    fn parse_reads_datasheet_tables() {
        let c = OffChipCatalog::parse(
            "# Siemens EDO series\n\
             \n\
             EDO-256Kx16  256K 16 8760 17.2  # wide part\n\
             EDO-1Mx8     1M    8 6280 18.9\n",
        )
        .unwrap();
        assert_eq!(c.parts().len(), 2);
        assert_eq!(c.parts()[0].words(), 256 * 1024);
        assert_eq!(c.parts()[0].width(), 16);
        assert_eq!(c.parts()[1].words(), 1 << 20);
        // The parsed catalog is usable for selection.
        assert!(c.select(1 << 20, 8, 1, 1e6).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        let short = OffChipCatalog::parse("EDO-1Mx8 1M 8 6280").unwrap_err();
        assert_eq!(short.line, 1);
        let bad_words = OffChipCatalog::parse("x 1Q 8 6280 18.9").unwrap_err();
        assert!(bad_words.reason.contains("word count"));
        let negative = OffChipCatalog::parse("x 1M 8 -5 18.9").unwrap_err();
        assert!(negative.reason.contains("positive"));
        let bad_width = OffChipCatalog::parse("ok 1M 8 6280 18.9\nx 1M w 6280 18.9").unwrap_err();
        assert_eq!(bad_width.line, 2);
    }

    #[test]
    fn parse_word_suffixes() {
        assert_eq!(parse_words("512"), Some(512));
        assert_eq!(parse_words("4K"), Some(4096));
        assert_eq!(parse_words("2m"), Some(2 << 20));
        assert_eq!(parse_words("x"), None);
        assert_eq!(parse_words(""), None);
    }

    #[test]
    fn selection_prefers_single_small_device_for_small_data() {
        // A 256 K x 8 request should not pick a 4 M die when the small
        // one is cheaper at low rates.
        let sel = catalog().select(200_000, 8, 1, 1e5).unwrap();
        assert_eq!(sel.devices(), 1);
        assert!(sel.part().words() <= 1 << 20);
    }
}
