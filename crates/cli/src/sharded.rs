//! What a channel of `run --channels C` is: the same experiment on seeds
//! derived from the channel's id, so that independent swarms — same
//! software, same tuning, different audiences — do not replay each other's
//! randomness.

/// FNV-1a over `bytes`: stable across platforms and Rust versions (unlike
/// `DefaultHasher`), so a channel's runs reproduce everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The seed of every run of `channels` channels, channel-major: channel `i`
/// runs `seed ^ fnv1a("ch{i}")` for each of `seeds`, in their order.
pub(crate) fn channel_runs_seeds(channels: usize, seeds: &[u64]) -> Vec<u64> {
    let ids = (0..channels).map(|i| fnv1a(format!("ch{i}").as_bytes()));
    ids.flat_map(|id| seeds.iter().map(move |&seed| seed ^ id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: [&str; 6] = ["--peers", "3", "--clip-secs", "12", "--bandwidth", "512"];

    /// `splicecast run <QUICK> <extra>`.
    fn run(extra: &[&str]) -> String {
        let tokens = [&["run"], &QUICK[..], extra].concat();
        let raw: Vec<String> = tokens.into_iter().map(str::to_owned).collect();
        crate::run(&raw).unwrap()
    }

    /// The number a report line starts with after `label`.
    fn field<'a>(report: &'a str, label: &str) -> &'a str {
        let line = report.lines().find(|l| l.trim_start().starts_with(label));
        let rest = line.unwrap_or_else(|| panic!("no `{label}` line in:\n{report}"));
        let value = rest.trim_start()[label.len()..].trim_start();
        value.split([' ', '%']).next().unwrap()
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn derived_seeds_differ_between_channels() {
        let seeds = channel_runs_seeds(2, &[101, 202]);
        assert_eq!(seeds.len(), 4);
        // Channel-major, each base seed folded with its channel's id ...
        assert_eq!(seeds[0], 101 ^ fnv1a(b"ch0"));
        assert_eq!(seeds[3], 202 ^ fnv1a(b"ch1"));
        assert_ne!(seeds[0], seeds[2]);
        // ... and a channel's seeds do not depend on how many follow it.
        assert_eq!(channel_runs_seeds(5, &[101, 202])[..4], seeds);
    }

    #[test]
    fn sharded_run_is_identical_across_worker_counts() {
        let sharded = ["--channels", "2", "--seeds", "3,4", "--csv", "--workers"];
        let one = run(&[&sharded[..], &["1"]].concat());
        assert_eq!(one, run(&[&sharded[..], &["3"]].concat()));
        assert!(one.contains("aggregate over 4 runs"), "{one}");
    }

    /// A channel is `run` on its derived seeds: the channel's line carries
    /// the numbers that run reports, on the paper stack and on the scale
    /// profile's.
    #[test]
    fn channels_match_standalone_runs_on_derived_seeds() {
        for profile in ["paper", "scale"] {
            let sharded = run(&["--profile", profile, "--channels", "2", "--seeds", "3,4"]);
            for (i, derived) in channel_runs_seeds(2, &[3, 4]).chunks(2).enumerate() {
                let seeds = format!("{},{}", derived[0], derived[1]);
                let alone = run(&["--profile", profile, "--seeds", &seeds]);
                let expected = format!(
                    "  {:<6} stalls {:>5}  stall time {:>6} s  startup {:>5} s  completion {:>3}%\n",
                    format!("ch{i}"),
                    field(&alone, "stalls:"),
                    field(&alone, "stall time:"),
                    field(&alone, "startup:"),
                    field(&alone, "completion:"),
                );
                assert!(sharded.contains(&expected), "{expected}not in:\n{sharded}");
            }
        }
    }
}
