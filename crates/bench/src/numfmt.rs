//! Exact number formatting into a `String`, without `fmt`: what
//! `balance serve` appends per answer. Each formatter prints byte for
//! byte what its `format!` spelling would (pinned by property tests
//! against std), from the number's exact binary value in integer
//! arithmetic, rounding half to even; the few inputs outside its fast
//! range go through `write!`.

use std::fmt::Write as _;

/// Appends `v` in decimal, as `{v}` prints it.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Appends the low `width` decimal digits of `v`, zero-padded.
fn push_padded(out: &mut String, v: u64, width: u32) {
    for p in (0..width).rev() {
        out.push(char::from(b'0' + (v / 10u64.pow(p) % 10) as u8));
    }
}

/// A finite, non-negative `v` as `(mant, exp)` with `v = mant · 2^exp`.
fn decode(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let field = (bits >> 52 & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    if field == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, field - 1075)
    }
}

/// `num / 2^s` rounded half to even, for `num < 2^127`.
fn shr_half_even(num: u128, s: u32) -> u128 {
    match s {
        0 => num,
        128.. => 0,
        _ => {
            let q = num >> s;
            let rem = num - (q << s);
            let half = 1u128 << (s - 1);
            q + u128::from(rem > half || rem == half && q & 1 == 1)
        }
    }
}

/// `num / den` rounded half to even, for `den < 2^127`.
fn div_half_even(num: u128, den: u128) -> u128 {
    let (q, rem) = (num / den, num % den);
    q + u128::from(rem * 2 > den || rem * 2 == den && q & 1 == 1)
}

/// Appends `v` as `{v:.4}` prints it, byte for byte: the exact binary
/// value times 10⁴, rounded half to even in integer arithmetic. Values
/// that are not finite or reach 10¹⁵ in magnitude go through `write!`.
pub(crate) fn push_fixed4(out: &mut String, v: f64) {
    if !v.is_finite() || v.abs() >= 1e15 {
        let _ = write!(out, "{v:.4}");
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    let (mant, exp) = decode(v.abs());
    // |v| · 10⁴ < 10¹⁹ fits a u64; mant · 10⁴ < 2^67.
    let scaled = u128::from(mant) * 10_000;
    let units = if exp >= 0 {
        scaled << exp
    } else {
        shr_half_even(scaled, exp.unsigned_abs())
    } as u64;
    push_u64(out, units / 10_000);
    out.push('.');
    push_padded(out, units % 10_000, 4);
}

/// Appends `v` as `{v:.3e}` prints it, byte for byte: four significant
/// digits `v · 10^(3−k)`, rounded half to even in integer arithmetic,
/// and the decimal exponent `k`. Values outside `[1, 10¹⁵)` go through
/// `write!`.
pub(crate) fn push_sci3(out: &mut String, v: f64) {
    if !(1.0..1e15).contains(&v) {
        let _ = write!(out, "{v:.3e}");
        return;
    }
    let (mant, exp) = decode(v);
    // v < 2^50 and k ≤ 15, so numerator and denominator stay below 2^93.
    let digits = |k: i32| {
        let (mut num, mut den) = (u128::from(mant), 1u128);
        if k <= 3 {
            num *= 10u128.pow(k.abs_diff(3));
        } else {
            den = 10u128.pow(k.abs_diff(3));
        }
        if exp >= 0 {
            num <<= exp;
        } else {
            den <<= exp.unsigned_abs();
        }
        div_half_even(num, den) as u64
    };
    // The f64 logarithm can miss k by one next to a power of ten; the
    // exact digit count settles it.
    let mut k = v.log10().floor() as i32;
    let mut d = digits(k);
    while d >= 10_000 {
        k += 1;
        d = digits(k);
    }
    while d < 1000 {
        k -= 1;
        d = digits(k);
    }
    push_u64(out, d / 1000);
    out.push('.');
    push_padded(out, d % 1000, 3);
    out.push('e');
    push_u64(out, k.unsigned_abs().into());
}

/// Appends the positive ratio `ratio`, parsed from `text`, as `{ratio}`
/// prints it. A plain decimal (digits with at most one `.`) of at most
/// 15 significant digits is echoed without its leading and trailing
/// zeros: such a decimal is the shortest text that parses to its nearest
/// `f64` (no two of them share one), so its digits are what `Display`
/// prints. Any other spelling (`1e3`, `+2`, 17 digits) goes through
/// `write!`.
pub(crate) fn push_ratio(out: &mut String, text: &str, ratio: f64) {
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    let plain = text.len() <= 20 && int.bytes().chain(frac.bytes()).all(|b| b.is_ascii_digit());
    let (int, frac) = (int.trim_start_matches('0'), frac.trim_end_matches('0'));
    let significant = if int.is_empty() {
        frac.trim_start_matches('0').len()
    } else {
        int.len() + frac.len()
    };
    if !plain || significant > 15 {
        let _ = write!(out, "{ratio}");
        return;
    }
    out.push_str(if int.is_empty() { "0" } else { int });
    if !frac.is_empty() {
        out.push('.');
        out.push_str(frac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed4(v: f64) -> String {
        let mut out = String::new();
        push_fixed4(&mut out, v);
        out
    }

    fn sci3(v: f64) -> String {
        let mut out = String::new();
        push_sci3(&mut out, v);
        out
    }

    /// Finite values next to the formatters' rounding edges: exact dyadic
    /// ties `k / 2^j` (a tie at the 5th decimal is an odd multiple of
    /// 1/32), values one ulp either side of a decimal half, carries, zero
    /// and subnormals.
    fn edge_value() -> impl Strategy<Value = f64> {
        let near_half = |scale: f64| {
            (0u64..2_000_000, 0u32..3).prop_map(move |(t, side)| {
                let half = (t as f64 + 0.5) / scale;
                [half.next_down(), half, half.next_up()][side as usize]
            })
        };
        prop_oneof![
            (0u64..1 << 40, 0u32..64).prop_map(|(k, j)| k as f64 / 2f64.powi(j as i32)),
            (0u64..1 << 20).prop_map(|k| (2 * k + 1) as f64 / 32.0),
            near_half(1e4),
            near_half(1e3),
            (0u32..15, 0u32..3).prop_map(|(p, side)| {
                let carry = 10f64.powi(p as i32) - 0.00005;
                [carry.next_down(), carry, carry.next_up()][side as usize]
            }),
            (0u64..1 << 52).prop_map(f64::from_bits),
            Just(0.0),
            Just(-0.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn fixed4_matches_std_on_random_bit_patterns(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(fixed4(v), format!("{v:.4}"));
        }

        #[test]
        fn fixed4_matches_std_at_rounding_edges(v in edge_value(), neg in proptest::bool::ANY) {
            let v = if neg { -v } else { v };
            prop_assert_eq!(fixed4(v), format!("{v:.4}"));
        }

        #[test]
        fn sci3_matches_std_on_random_bit_patterns(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(sci3(v), format!("{v:.3e}"));
        }

        #[test]
        fn sci3_matches_std_on_its_fast_range(v in edge_value(), p in 0u32..16) {
            let v = v * 10f64.powi(p as i32);
            prop_assert_eq!(sci3(v), format!("{v:.3e}"));
        }

        #[test]
        fn ratio_echo_matches_display(
            int in 0u64..1_000_000_000,
            frac in 0u64..1_000_000_000,
            zeros in (0usize..4, 0usize..4, 0usize..10),
            form in 0u32..4,
        ) {
            let (lead, trail, width) = zeros;
            let int = format!("{}{int}", "0".repeat(lead));
            let frac = format!("{frac:0width$}{}", "0".repeat(trail));
            let text = match form {
                0 => int,
                1 => format!("{int}."),
                2 => format!(".{frac}"),
                _ => format!("{int}.{frac}"),
            };
            let ratio: f64 = text.parse().unwrap();
            if ratio > 0.0 {
                let mut out = String::new();
                push_ratio(&mut out, &text, ratio);
                prop_assert_eq!(out, format!("{ratio}"), "text {}", text);
            }
        }
    }

    #[test]
    fn formatters_match_std_at_named_edges() {
        let fallback = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -1e15,
            1e300,
            f64::MAX,
        ];
        let carries = [
            0.99995,
            9.99995,
            99.99995,
            0.00005,
            0.00015,
            0.00025,
            999_999_999_999_999.9,
        ];
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e15f64.next_down(),
            0.5,
            1.5,
            2.5,
        ];
        for v in fallback.into_iter().chain(carries).chain(edges) {
            assert_eq!(fixed4(v), format!("{v:.4}"), "{v:e}");
            assert_eq!(sci3(v), format!("{v:.3e}"), "{v:e}");
        }
        for v in [
            1.0,
            9.9995,
            9.9994999,
            1.0625,
            1.0635,
            1e15f64.next_down(),
            9999.5,
            1.067e8,
        ] {
            assert_eq!(sci3(v), format!("{v:.3e}"), "{v:e}");
        }
        let mut out = String::new();
        push_u64(&mut out, u64::MAX);
        push_u64(&mut out, 0);
        assert_eq!(out, format!("{}0", u64::MAX));
    }
}
