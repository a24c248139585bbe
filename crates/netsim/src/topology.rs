//! Site catalogues: Abilene, GÉANT, and PlanetLab-like deployments.
//!
//! The paper's baseline experiment placed 34 PlanetLab nodes at the cities
//! of the Abilene (11 routers, North America) and GÉANT (23 routers,
//! Europe) backbones so the overlay experienced the propagation delays of a
//! real deployment. These catalogues reproduce that placement; the
//! large-scale experiment samples a wider PlanetLab-like site pool.

use crate::latency::GeoPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deployment site: where a MIND node runs and how loaded its host is.
#[derive(Debug, Clone)]
pub struct Site {
    /// Human-readable site name (router city or PlanetLab host city).
    pub name: String,
    /// Geographic position, used by the propagation model.
    pub geo: GeoPoint,
    /// Service-time multiplier for the host (1.0 = healthy machine;
    /// overloaded PlanetLab nodes ran at several times that).
    pub load_factor: f64,
}

impl Site {
    /// A healthy site at the given position.
    pub fn new(name: impl Into<String>, lat: f64, lon: f64) -> Self {
        Site {
            name: name.into(),
            geo: GeoPoint::new(lat, lon),
            load_factor: 1.0,
        }
    }
}

/// The 11 Abilene backbone router cities (2004 topology).
///
/// The paper's Section 5 anomaly experiment used an 11-node overlay
/// congruent to exactly this topology; its DoS back-tracking output lists
/// the same city codes (CHIN, DNVR, IPLS, KSCY, LOSA, SNVA, ...).
pub fn abilene_sites() -> Vec<Site> {
    vec![
        Site::new("STTL-Seattle", 47.61, -122.33),
        Site::new("SNVA-Sunnyvale", 37.37, -122.04),
        Site::new("LOSA-LosAngeles", 34.05, -118.24),
        Site::new("DNVR-Denver", 39.74, -104.99),
        Site::new("KSCY-KansasCity", 39.10, -94.58),
        Site::new("HSTN-Houston", 29.76, -95.37),
        Site::new("CHIN-Chicago", 41.88, -87.63),
        Site::new("IPLS-Indianapolis", 39.77, -86.16),
        Site::new("ATLA-Atlanta", 33.75, -84.39),
        Site::new("WASH-Washington", 38.91, -77.04),
        Site::new("NYCM-NewYork", 40.71, -74.01),
    ]
}

/// 23 GÉANT points of presence (2004-era European research backbone).
pub fn geant_sites() -> Vec<Site> {
    vec![
        Site::new("UK-London", 51.51, -0.13),
        Site::new("NL-Amsterdam", 52.37, 4.90),
        Site::new("FR-Paris", 48.86, 2.35),
        Site::new("DE-Frankfurt", 50.11, 8.68),
        Site::new("CH-Geneva", 46.20, 6.14),
        Site::new("IT-Milan", 45.46, 9.19),
        Site::new("AT-Vienna", 48.21, 16.37),
        Site::new("CZ-Prague", 50.08, 14.44),
        Site::new("HU-Budapest", 47.50, 19.04),
        Site::new("PL-Warsaw", 52.23, 21.01),
        Site::new("DK-Copenhagen", 55.68, 12.57),
        Site::new("SE-Stockholm", 59.33, 18.07),
        Site::new("FI-Helsinki", 60.17, 24.94),
        Site::new("NO-Oslo", 59.91, 10.75),
        Site::new("ES-Madrid", 40.42, -3.70),
        Site::new("PT-Lisbon", 38.72, -9.14),
        Site::new("GR-Athens", 37.98, 23.73),
        Site::new("IE-Dublin", 53.35, -6.26),
        Site::new("BE-Brussels", 50.85, 4.35),
        Site::new("LU-Luxembourg", 49.61, 6.13),
        Site::new("HR-Zagreb", 45.81, 15.98),
        Site::new("SK-Bratislava", 48.15, 17.11),
        Site::new("SI-Ljubljana", 46.06, 14.51),
    ]
}

/// The 34-node baseline deployment: Abilene ∪ GÉANT router cities
/// (11 North America + 23 Europe), as in the paper's Section 4.2.
pub fn baseline_sites() -> Vec<Site> {
    let mut v = abilene_sites();
    v.extend(geant_sites());
    v
}

/// Pool of PlanetLab-like host cities (universities in NA and EU).
fn planetlab_pool() -> Vec<Site> {
    vec![
        Site::new("MIT-Cambridge", 42.36, -71.09),
        Site::new("Princeton", 40.34, -74.66),
        Site::new("Berkeley", 37.87, -122.26),
        Site::new("UW-Seattle", 47.65, -122.31),
        Site::new("UCSD-SanDiego", 32.88, -117.23),
        Site::new("Caltech-Pasadena", 34.14, -118.13),
        Site::new("Utah-SaltLake", 40.76, -111.85),
        Site::new("Colorado-Boulder", 40.01, -105.27),
        Site::new("UT-Austin", 30.28, -97.74),
        Site::new("UIUC-Urbana", 40.11, -88.23),
        Site::new("UMich-AnnArbor", 42.28, -83.74),
        Site::new("Wisc-Madison", 43.07, -89.41),
        Site::new("CMU-Pittsburgh", 40.44, -79.94),
        Site::new("Cornell-Ithaca", 42.45, -76.48),
        Site::new("UMD-CollegePark", 38.99, -76.94),
        Site::new("Duke-Durham", 36.00, -78.94),
        Site::new("GaTech-Atlanta", 33.78, -84.40),
        Site::new("WashU-StLouis", 38.65, -90.31),
        Site::new("UBC-Vancouver", 49.26, -123.25),
        Site::new("UofT-Toronto", 43.66, -79.40),
        Site::new("McGill-Montreal", 45.50, -73.58),
        Site::new("Rice-Houston", 29.72, -95.40),
        Site::new("Cambridge-UK", 52.20, 0.12),
        Site::new("UCL-London", 51.52, -0.13),
        Site::new("INRIA-Paris", 48.84, 2.34),
        Site::new("INRIA-Grenoble", 45.19, 5.77),
        Site::new("Lancaster", 54.01, -2.79),
        Site::new("TU-Berlin", 52.51, 13.33),
        Site::new("TUM-Munich", 48.15, 11.57),
        Site::new("ETH-Zurich", 47.38, 8.55),
        Site::new("EPFL-Lausanne", 46.52, 6.57),
        Site::new("VU-Amsterdam", 52.33, 4.87),
        Site::new("TU-Delft", 52.00, 4.37),
        Site::new("Ghent", 51.05, 3.73),
        Site::new("DIKU-Copenhagen", 55.70, 12.56),
        Site::new("KTH-Stockholm", 59.35, 18.07),
        Site::new("Uppsala", 59.86, 17.64),
        Site::new("HUT-Helsinki", 60.19, 24.83),
        Site::new("NTNU-Trondheim", 63.42, 10.40),
        Site::new("UniPi-Pisa", 43.72, 10.40),
        Site::new("Roma-LaSapienza", 41.90, 12.51),
        Site::new("UPC-Barcelona", 41.39, 2.11),
        Site::new("UPM-Madrid", 40.45, -3.73),
        Site::new("TCD-Dublin", 53.34, -6.25),
        Site::new("NTUA-Athens", 37.98, 23.78),
        Site::new("Wroclaw", 51.11, 17.06),
    ]
}

/// Samples `n` PlanetLab-like sites.
///
/// Sites beyond the pool size reuse pool cities with a distinguishing
/// suffix and slight coordinate jitter (multiple PlanetLab hosts per
/// site was the norm). Load factors are heavy-tailed: ~70 % healthy
/// machines, ~25 % moderately loaded, ~5 % badly overloaded (4-8x) — the
/// "experimental nature of the PlanetLab testbed" the paper repeatedly
/// cites for its latency tails.
#[expect(
    clippy::disallowed_methods,
    reason = "pre-world site generation from the experiment seed"
)]
pub fn planetlab_sites(n: usize, seed: u64) -> Vec<Site> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = planetlab_pool();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let base = &pool[i % pool.len()];
        let mut site = base.clone();
        if i >= pool.len() {
            site.name = format!("{}-{}", base.name, i / pool.len() + 1);
            site.geo.lat += rng.random_range(-0.05..0.05);
            site.geo.lon += rng.random_range(-0.05..0.05);
        }
        let roll: f64 = rng.random();
        site.load_factor = if roll < 0.70 {
            1.0
        } else if roll < 0.95 {
            rng.random_range(2.0..4.0)
        } else {
            rng.random_range(4.0..8.0)
        };
        out.push(site);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_sizes_match_paper() {
        assert_eq!(abilene_sites().len(), 11);
        assert_eq!(geant_sites().len(), 23);
        assert_eq!(baseline_sites().len(), 34);
    }

    #[test]
    fn names_unique() {
        let sites = baseline_sites();
        let mut names: Vec<_> = sites.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), sites.len());
    }

    #[test]
    fn abilene_is_north_america_geant_is_europe() {
        for s in abilene_sites() {
            assert!(s.geo.lon < -60.0, "{} should be in North America", s.name);
        }
        for s in geant_sites() {
            assert!(s.geo.lon > -15.0, "{} should be in Europe", s.name);
        }
    }

    #[test]
    fn planetlab_sampling_deterministic_and_sized() {
        let a = planetlab_sites(102, 7);
        let b = planetlab_sites(102, 7);
        assert_eq!(a.len(), 102);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.load_factor, y.load_factor);
        }
        // Load factors are heterogeneous.
        assert!(a.iter().any(|s| s.load_factor == 1.0));
        assert!(a.iter().any(|s| s.load_factor > 2.0));
    }

    #[test]
    fn oversampled_sites_get_distinct_names() {
        let sites = planetlab_sites(102, 3);
        let mut names: Vec<_> = sites.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 102);
    }
}
