//! Local root service walkthrough (RFC 7706/8806) — the application the
//! paper's ZONEMD analysis motivates. Simulates a resolver maintaining a
//! local root copy across several days, with upstreams that go stale or
//! corrupt transfers, and shows the ZONEMD-driven fallback keeping the
//! service healthy.
//!
//! ```sh
//! cargo run --release --example local_root_daemon
//! ```

use dns_zone::corrupt::flip_rrsig_bit;
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use localroot::{upstream_transport, LocalRoot, RefreshOutcome, ValidationPolicy};
use rootd::InprocTransport;
use rss::RootLetter;
use std::sync::Arc;

const DAY: u32 = 86_400;
const T0: u32 = 1_701_820_800; // 2023-12-06, ZONEMD validates from here.

fn zone_for_day(day_index: u32, keys: &ZoneKeys) -> dns_zone::Zone {
    let day = T0 + day_index * DAY;
    build_root_zone(
        &RootZoneConfig {
            serial: 2023120600 + day_index * 100,
            tld_count: 12,
            inception: day,
            expiration: day + 14 * DAY,
            rollout: RolloutPhase::Validating,
        },
        keys,
    )
}

fn server(letter: RootLetter, zone: dns_zone::Zone) -> (RootLetter, InprocTransport) {
    let hostname = Some(format!("{}1.sim", letter.ch()));
    (letter, upstream_transport(letter, hostname, Arc::new(zone)))
}

fn main() {
    let keys = ZoneKeys::from_seed(2023);
    let mut local = LocalRoot::new(ValidationPolicy::strict());
    println!("local root daemon (strict ZONEMD policy), 5 simulated days\n");

    for day in 0..5u32 {
        let now = T0 + day * DAY + 3600;
        // Day 2: the preferred upstream serves a bit-flipped copy (faulty
        // path/memory). Day 3: it serves a stale zone (the paper's
        // Tokyo/Leeds case). Both must be caught and served around.
        let first = match day {
            2 => {
                let mut z = zone_for_day(day, &keys);
                flip_rrsig_bit(&mut z, 99).unwrap();
                server(RootLetter::A, z)
            }
            3 => server(RootLetter::A, zone_for_day(0, &keys)),
            _ => server(RootLetter::A, zone_for_day(day, &keys)),
        };
        let mut upstreams = vec![
            first,
            server(RootLetter::B, zone_for_day(day, &keys)),
            server(RootLetter::K, zone_for_day(day, &keys)),
        ];
        // The operator prefers a.root (say, the nearest instance).
        local.set_primary(0);
        match local.refresh_wire(&mut upstreams, now) {
            Ok(RefreshOutcome::Updated {
                serial,
                from_upstream,
                attempts,
            }) => println!(
                "day {day}: updated to serial {serial} from upstream #{from_upstream} \
                 ({attempts} attempt{})",
                if attempts == 1 { "" } else { "s" }
            ),
            Ok(RefreshOutcome::AlreadyCurrent { serial }) => {
                println!("day {day}: already current at serial {serial}")
            }
            Err(e) => println!("day {day}: refresh FAILED: {e}"),
        }
        // Serve a few queries from the local copy.
        for tld in ["com", "de", "jp"] {
            let ns = local.delegation(tld, now);
            assert!(ns.is_some(), "{tld} should be delegated");
        }
    }

    println!(
        "\nfinal state: serving={}",
        local.is_serving(T0 + 4 * DAY + 7200)
    );
    println!("metrics: {}", local.metrics.render());
    println!(
        "\nday 2: the preferred letter's bit-flipped copy failed validation and the\n\
         transfer fell back to the next letter (rejected=1, fallbacks=1).\n\
         day 3: the stale primary advertised an old serial, so the newer local copy\n\
         was kept — no regression to expired data. Both are the §7 protections."
    );
}
