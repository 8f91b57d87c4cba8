//! City database used to place root server sites, vantage points, ASes and
//! IXPs on the globe.
//!
//! Coordinates are approximate city centroids (public geographic facts,
//! rounded to two decimals — a few km of error is irrelevant at the
//! 1,000 km ≈ 10 ms scale the analyses work at). Every city carries the IATA
//! code of its main airport because root operators name instances after
//! airports, and the paper matches `{a,c,j,e}.root` instances via exactly
//! those codes (§4.2, footnote 2).

use crate::coord::Coord;
use crate::region::Region;
use serde::{Deserialize, Serialize};

/// One city entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// City name, lowercase-ascii, used in synthesized hostnames.
    pub name: &'static str,
    /// IATA code of the principal airport, lowercase.
    pub iata: &'static str,
    /// ISO 3166-1 alpha-2 country code, lowercase.
    pub country: &'static str,
    /// Continent-level region.
    pub region: Region,
    /// Approximate centroid.
    pub coord: Coord,
}

macro_rules! city {
    ($name:literal, $iata:literal, $cc:literal, $region:ident, $lat:literal, $lon:literal) => {
        City {
            name: $name,
            iata: $iata,
            country: $cc,
            region: Region::$region,
            coord: Coord {
                lat: $lat,
                lon: $lon,
            },
        }
    };
}

/// The static city table. Sorted by region then name; `CityDb` provides
/// indexed access. A `static`, not a `const`: every `&'static City`
/// handed out points into this one table, however many crates inline a
/// lookup.
pub static CITIES: &[City] = &[
    // --- Africa ---
    city!("abidjan", "abj", "ci", Africa, 5.36, -4.01),
    city!("accra", "acc", "gh", Africa, 5.60, -0.19),
    city!("addisababa", "add", "et", Africa, 9.01, 38.75),
    city!("cairo", "cai", "eg", Africa, 30.04, 31.24),
    city!("capetown", "cpt", "za", Africa, -33.92, 18.42),
    city!("casablanca", "cmn", "ma", Africa, 33.57, -7.59),
    city!("dakar", "dss", "sn", Africa, 14.69, -17.44),
    city!("daressalaam", "dar", "tz", Africa, -6.79, 39.21),
    city!("durban", "dur", "za", Africa, -29.86, 31.03),
    city!("gaborone", "gbe", "bw", Africa, -24.63, 25.92),
    city!("johannesburg", "jnb", "za", Africa, -26.20, 28.05),
    city!("kampala", "ebb", "ug", Africa, 0.35, 32.58),
    city!("kigali", "kgl", "rw", Africa, -1.94, 30.06),
    city!("lagos", "los", "ng", Africa, 6.52, 3.38),
    city!("lusaka", "lun", "zm", Africa, -15.39, 28.32),
    city!("maputo", "mpm", "mz", Africa, -25.97, 32.58),
    city!("mauritius", "mru", "mu", Africa, -20.16, 57.50),
    city!("mombasa", "mba", "ke", Africa, -4.04, 39.67),
    city!("nairobi", "nbo", "ke", Africa, -1.29, 36.82),
    city!("tunis", "tun", "tn", Africa, 36.81, 10.18),
    // --- Asia ---
    city!("almaty", "ala", "kz", Asia, 43.26, 76.93),
    city!("amman", "amm", "jo", Asia, 31.95, 35.93),
    city!("bangkok", "bkk", "th", Asia, 13.76, 100.50),
    city!("beijing", "pek", "cn", Asia, 39.90, 116.41),
    city!("chennai", "maa", "in", Asia, 13.08, 80.27),
    city!("colombo", "cmb", "lk", Asia, 6.93, 79.85),
    city!("delhi", "del", "in", Asia, 28.61, 77.21),
    city!("dhaka", "dac", "bd", Asia, 23.81, 90.41),
    city!("doha", "doh", "qa", Asia, 25.29, 51.53),
    city!("dubai", "dxb", "ae", Asia, 25.20, 55.27),
    city!("hanoi", "han", "vn", Asia, 21.03, 105.85),
    city!("hongkong", "hkg", "hk", Asia, 22.32, 114.17),
    city!("istanbul", "ist", "tr", Asia, 41.01, 28.98),
    city!("jakarta", "cgk", "id", Asia, -6.21, 106.85),
    city!("kaohsiung", "khh", "tw", Asia, 22.63, 120.30),
    city!("karachi", "khi", "pk", Asia, 24.86, 67.01),
    city!("kathmandu", "ktm", "np", Asia, 27.72, 85.32),
    city!("kualalumpur", "kul", "my", Asia, 3.139, 101.69),
    city!("manila", "mnl", "ph", Asia, 14.60, 120.98),
    city!("mumbai", "bom", "in", Asia, 19.08, 72.88),
    city!("osaka", "kix", "jp", Asia, 34.69, 135.50),
    city!("phnompenh", "pnh", "kh", Asia, 11.56, 104.92),
    city!("riyadh", "ruh", "sa", Asia, 24.71, 46.68),
    city!("seoul", "icn", "kr", Asia, 37.57, 126.98),
    city!("singapore", "sin", "sg", Asia, 1.35, 103.82),
    city!("taipei", "tpe", "tw", Asia, 25.03, 121.57),
    city!("tashkent", "tas", "uz", Asia, 41.30, 69.24),
    city!("telaviv", "tlv", "il", Asia, 32.09, 34.78),
    city!("tokyo", "nrt", "jp", Asia, 35.68, 139.69),
    city!("ulaanbaatar", "uln", "mn", Asia, 47.89, 106.91),
    // --- Europe ---
    city!("amsterdam", "ams", "nl", Europe, 52.37, 4.90),
    city!("athens", "ath", "gr", Europe, 37.98, 23.73),
    city!("barcelona", "bcn", "es", Europe, 41.39, 2.17),
    city!("belgrade", "beg", "rs", Europe, 44.79, 20.45),
    city!("berlin", "ber", "de", Europe, 52.52, 13.41),
    city!("bratislava", "bts", "sk", Europe, 48.15, 17.11),
    city!("brussels", "bru", "be", Europe, 50.85, 4.35),
    city!("bucharest", "otp", "ro", Europe, 44.43, 26.10),
    city!("budapest", "bud", "hu", Europe, 47.50, 19.04),
    city!("copenhagen", "cph", "dk", Europe, 55.68, 12.57),
    city!("dublin", "dub", "ie", Europe, 53.35, -6.26),
    city!("frankfurt", "fra", "de", Europe, 50.11, 8.68),
    city!("geneva", "gva", "ch", Europe, 46.20, 6.14),
    city!("hamburg", "ham", "de", Europe, 53.55, 9.99),
    city!("helsinki", "hel", "fi", Europe, 60.17, 24.94),
    city!("kyiv", "kbp", "ua", Europe, 50.45, 30.52),
    city!("leeds", "lba", "gb", Europe, 53.80, -1.55),
    city!("lisbon", "lis", "pt", Europe, 38.72, -9.14),
    city!("london", "lhr", "gb", Europe, 51.51, -0.13),
    city!("luxembourg", "lux", "lu", Europe, 49.61, 6.13),
    city!("madrid", "mad", "es", Europe, 40.42, -3.70),
    city!("manchester", "man", "gb", Europe, 53.48, -2.24),
    city!("marseille", "mrs", "fr", Europe, 43.30, 5.37),
    city!("milan", "mxp", "it", Europe, 45.46, 9.19),
    city!("moscow", "svo", "ru", Europe, 55.76, 37.62),
    city!("munich", "muc", "de", Europe, 48.14, 11.58),
    city!("oslo", "osl", "no", Europe, 59.91, 10.75),
    city!("paris", "cdg", "fr", Europe, 48.86, 2.35),
    city!("prague", "prg", "cz", Europe, 50.08, 14.44),
    city!("reykjavik", "kef", "is", Europe, 64.15, -21.94),
    city!("riga", "rix", "lv", Europe, 56.95, 24.11),
    city!("rome", "fco", "it", Europe, 41.90, 12.50),
    city!("sofia", "sof", "bg", Europe, 42.70, 23.32),
    city!("stockholm", "arn", "se", Europe, 59.33, 18.07),
    city!("tallinn", "tll", "ee", Europe, 59.44, 24.75),
    city!("vienna", "vie", "at", Europe, 48.21, 16.37),
    city!("vilnius", "vno", "lt", Europe, 54.69, 25.28),
    city!("warsaw", "waw", "pl", Europe, 52.23, 21.01),
    city!("zurich", "zrh", "ch", Europe, 47.38, 8.54),
    // --- North America ---
    city!("ashburn", "iad", "us", NorthAmerica, 39.04, -77.49),
    city!("atlanta", "atl", "us", NorthAmerica, 33.75, -84.39),
    city!("boston", "bos", "us", NorthAmerica, 42.36, -71.06),
    city!("calgary", "yyc", "ca", NorthAmerica, 51.05, -114.07),
    city!("chicago", "ord", "us", NorthAmerica, 41.88, -87.63),
    city!("dallas", "dfw", "us", NorthAmerica, 32.78, -96.80),
    city!("denver", "den", "us", NorthAmerica, 39.74, -104.99),
    city!("guatemalacity", "gua", "gt", NorthAmerica, 14.63, -90.51),
    city!("houston", "iah", "us", NorthAmerica, 29.76, -95.37),
    city!("kansascity", "mci", "us", NorthAmerica, 39.10, -94.58),
    city!("losangeles", "lax", "us", NorthAmerica, 34.05, -118.24),
    city!("mexicocity", "mex", "mx", NorthAmerica, 19.43, -99.13),
    city!("miami", "mia", "us", NorthAmerica, 25.76, -80.19),
    city!("minneapolis", "msp", "us", NorthAmerica, 44.98, -93.27),
    city!("montreal", "yul", "ca", NorthAmerica, 45.50, -73.57),
    city!("newyork", "jfk", "us", NorthAmerica, 40.71, -74.01),
    city!("panamacity", "pty", "pa", NorthAmerica, 8.98, -79.52),
    city!("phoenix", "phx", "us", NorthAmerica, 33.45, -112.07),
    city!("saltlakecity", "slc", "us", NorthAmerica, 40.76, -111.89),
    city!("sanfrancisco", "sfo", "us", NorthAmerica, 37.77, -122.42),
    city!("sanjose", "sjc", "us", NorthAmerica, 37.34, -121.89),
    city!("seattle", "sea", "us", NorthAmerica, 47.61, -122.33),
    city!("toronto", "yyz", "ca", NorthAmerica, 43.65, -79.38),
    city!("vancouver", "yvr", "ca", NorthAmerica, 49.28, -123.12),
    city!("washington", "dca", "us", NorthAmerica, 38.91, -77.04),
    // --- South America ---
    city!("asuncion", "asu", "py", SouthAmerica, -25.26, -57.58),
    city!("bogota", "bog", "co", SouthAmerica, 4.71, -74.07),
    city!("buenosaires", "eze", "ar", SouthAmerica, -34.60, -58.38),
    city!("caracas", "ccs", "ve", SouthAmerica, 10.48, -66.90),
    city!("fortaleza", "for", "br", SouthAmerica, -3.73, -38.53),
    city!("lima", "lim", "pe", SouthAmerica, -12.05, -77.04),
    city!("montevideo", "mvd", "uy", SouthAmerica, -34.90, -56.16),
    city!("portoalegre", "poa", "br", SouthAmerica, -30.03, -51.23),
    city!("quito", "uio", "ec", SouthAmerica, -0.18, -78.47),
    city!("riodejaneiro", "gig", "br", SouthAmerica, -22.91, -43.17),
    city!("santiago", "scl", "cl", SouthAmerica, -33.45, -70.67),
    city!("saopaulo", "gru", "br", SouthAmerica, -23.55, -46.63),
    // --- Oceania ---
    city!("adelaide", "adl", "au", Oceania, -34.93, 138.60),
    city!("auckland", "akl", "nz", Oceania, -36.85, 174.76),
    city!("brisbane", "bne", "au", Oceania, -27.47, 153.03),
    city!("christchurch", "chc", "nz", Oceania, -43.53, 172.64),
    city!("melbourne", "mel", "au", Oceania, -37.81, 144.96),
    city!("nadi", "nan", "fj", Oceania, -17.80, 177.42),
    city!("noumea", "nou", "nc", Oceania, -22.26, 166.45),
    city!("perth", "per", "au", Oceania, -31.95, 115.86),
    city!("sydney", "syd", "au", Oceania, -33.87, 151.21),
    city!("wellington", "wlg", "nz", Oceania, -41.29, 174.78),
];

/// Indexed access over [`CITIES`].
#[derive(Debug, Clone)]
pub struct CityDb;

impl CityDb {
    /// All cities.
    pub fn all() -> &'static [City] {
        CITIES
    }

    /// Cities in `region`.
    pub fn in_region(region: Region) -> impl Iterator<Item = &'static City> {
        CITIES.iter().filter(move |c| c.region == region)
    }

    /// Look up by city name.
    pub fn by_name(name: &str) -> Option<&'static City> {
        CITIES.iter().find(|c| c.name == name)
    }

    /// Look up by IATA code (lowercase or uppercase).
    pub fn by_iata(iata: &str) -> Option<&'static City> {
        let lower = iata.to_ascii_lowercase();
        CITIES.iter().find(|c| c.iata == lower)
    }

    /// The city nearest to `coord`.
    pub fn nearest(coord: Coord) -> &'static City {
        CITIES
            .iter()
            .min_by(|a, b| {
                a.coord
                    .distance_km(&coord)
                    .partial_cmp(&b.coord.distance_km(&coord))
                    .unwrap()
            })
            .expect("city table is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iata_codes_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in CITIES {
            assert!(seen.insert(c.iata), "duplicate IATA {}", c.iata);
        }
    }

    #[test]
    fn names_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in CITIES {
            assert!(seen.insert(c.name), "duplicate name {}", c.name);
        }
    }

    #[test]
    fn every_region_has_cities() {
        for r in Region::ALL {
            assert!(CityDb::in_region(r).count() >= 10, "region {r} too small");
        }
    }

    #[test]
    fn lookups_work() {
        assert_eq!(CityDb::by_name("tokyo").unwrap().iata, "nrt");
        assert_eq!(CityDb::by_iata("FRA").unwrap().name, "frankfurt");
        assert_eq!(CityDb::by_iata("fra").unwrap().name, "frankfurt");
        assert!(CityDb::by_name("gotham").is_none());
    }

    #[test]
    fn nearest_returns_self_for_city_coord() {
        let fra = CityDb::by_name("frankfurt").unwrap();
        assert_eq!(CityDb::nearest(fra.coord).name, "frankfurt");
    }

    #[test]
    fn coordinates_in_range() {
        for c in CITIES {
            assert!((-90.0..=90.0).contains(&c.coord.lat), "{}", c.name);
            assert!((-180.0..=180.0).contains(&c.coord.lon), "{}", c.name);
        }
    }

    #[test]
    fn leeds_and_tokyo_present_for_table2() {
        // Table 2's stale d.root sites are in Tokyo and Leeds; the catalog
        // must be able to place them.
        assert!(CityDb::by_name("tokyo").is_some());
        assert!(CityDb::by_name("leeds").is_some());
    }
}
