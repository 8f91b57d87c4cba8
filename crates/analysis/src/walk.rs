//! One walk over the probe stream for the four products that count it.
//!
//! Coverage (Tables 1/4, Figures 1/11), co-location (§5, Figure 4), RTT by
//! region (Figures 6/14/15) and stability (Figure 3) each start from a
//! count over every probe: which identities were reported, each slot's
//! latest hop, how many samples each RTT cell and each `(vp, series)` key
//! holds. Four walks read the Small stream's 129 MB four times;
//! [`ProbeWalk`] reads it once and keeps all four counts, in a
//! fold / merge / finish shape:
//!
//! * [`ProbeWalk::fold`] accumulates a chunk of the stream;
//! * [`ProbeWalk::merge`] adds the walk of a later chunk, so chunks walked
//!   apart combine to what one walk over the whole stream gives;
//! * each product's `finish` builds it from its share — RTT and stability
//!   with a scatter walk of their own, which their counts size.
//!
//! A product's `compute` is the same fold over one chunk and the same
//! `finish`, so each product has one implementation.

use crate::colocation::LatestHops;
use crate::coverage::ReportedIdentities;
use crate::rtt::RttCells;
use crate::stability::SeriesCounts;
use rss::catalog::RootCatalog;
use vantage::population::Population;
use vantage::records::ProbeRecord;

/// The four products' counts over the probes walked so far.
#[derive(Debug, Clone)]
pub struct ProbeWalk {
    /// Coverage's: the identities reported.
    pub identities: ReportedIdentities,
    /// Co-location's: each slot's latest hop.
    pub latest_hops: LatestHops,
    /// RTT's: samples per cell.
    pub rtt_cells: RttCells,
    /// Stability's: observations per `(vp, series)` key.
    pub series: SeriesCounts,
}

impl ProbeWalk {
    /// Nothing walked yet.
    pub fn new(catalog: &RootCatalog, population: &Population) -> Self {
        ProbeWalk {
            identities: ReportedIdentities::new(catalog),
            latest_hops: LatestHops::default(),
            rtt_cells: RttCells::new(population),
            series: SeriesCounts::default(),
        }
    }

    /// Add every probe of `chunk` to all four counts, reading each once.
    pub fn fold(&mut self, chunk: &[ProbeRecord]) {
        for p in chunk {
            self.identities.add(p);
            self.latest_hops.add(p);
            self.rtt_cells.add(p);
            self.series.add(p);
        }
    }

    /// Add the walk of the chunk that follows this one in the stream.
    pub fn merge(&mut self, later: &ProbeWalk) {
        self.identities.merge(&later.identities);
        self.latest_hops.merge(&later.latest_hops);
        self.rtt_cells.merge(&later.rtt_cells);
        self.series.merge(&later.series);
    }
}
