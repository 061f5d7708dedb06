//! The fuzzer is a pure function of its master seed: generation, the
//! JSON round-trip, and whole campaigns replay bit-identically.

use fadr_fuzz::{fuzz, gen_case, CaseSpec, FuzzConfig};

/// Same `(master, idx)` always draws the same spec, and nearby indices
/// draw different ones (the golden-ratio stride actually mixes).
#[test]
fn generation_is_deterministic() {
    let mut distinct = 0;
    for idx in 0..100u64 {
        let a = gen_case(0xFADF_0221, idx);
        let b = gen_case(0xFADF_0221, idx);
        assert_eq!(a, b, "idx {idx} drew two different specs");
        if a != gen_case(0xFADF_0221, idx + 1) {
            distinct += 1;
        }
    }
    assert!(distinct > 90, "only {distinct}/100 adjacent draws differ");
}

/// Every generated spec survives `to_json` → `parse` unchanged — the
/// regression corpus format can carry anything the generator draws.
#[test]
fn json_roundtrip_over_generated_specs() {
    for idx in 0..100u64 {
        let spec = gen_case(0x5EED, idx);
        let json = spec.to_json();
        let back = CaseSpec::parse(&json)
            .unwrap_or_else(|e| panic!("idx {idx}: parse failed: {e}\n{json}"));
        assert_eq!(spec, back, "idx {idx} did not round-trip\n{json}");
    }
}

/// The parser is strict: schema tag, unknown, repeated and
/// kind-foreign keys, missing commas and trailing data are all rejected
/// (a corrupted corpus file fails loudly, not quietly).
#[test]
fn parser_rejects_malformed_cases() {
    let good = gen_case(7, 0).to_json();
    assert!(CaseSpec::parse(&good).is_ok());
    let wrong_schema = good.replace("fadr-fuzz/1", "fadr-fuzz/9");
    assert!(CaseSpec::parse(&wrong_schema).is_err());
    let trailing = format!("{good} extra");
    assert!(CaseSpec::parse(&trailing).is_err());
    let unknown_key = good.replace("\"seed\"", "\"sead\"");
    assert!(CaseSpec::parse(&unknown_key).is_err());
    assert!(CaseSpec::parse("{}").is_err());

    // One corpus-shaped case; each edit below parsed before the reader
    // was strict.
    let case = "{\"schema\": \"fadr-fuzz/1\", \"seed\": 6, \
                \"scheme\": {\"kind\": \"shuffle-exchange-paper\", \"dims\": 4}, \
                \"mutation\": {\"kind\": \"none\"}, \"queue_capacity\": 8, \
                \"workload\": {\"kind\": \"static\", \"per_node\": 1}, \
                \"shards\": [2], \"strategy\": \"auto\", \
                \"faults\": {\"schema\": \"fadr-faults/1\", \"seed\": 0, \"retry_limit\": 0, \"events\": []}}";
    assert!(CaseSpec::parse(case).is_ok());
    let rejects = |from: &str, to: &str, names: &str| {
        assert!(case.contains(from), "{from:?} not in the case");
        let bad = case.replacen(from, to, 1);
        let err = CaseSpec::parse(&bad).expect_err(&bad);
        assert!(err.contains(names), "{err:?} must name {names:?}");
    };
    rejects("\"seed\": 6, ", "\"seed\": 6 ", "expected ','");
    rejects("\"shards\": [2]", "\"shards\": [2 3]", "expected ','");
    rejects(
        "\"seed\": 6, ",
        "\"seed\": 1, \"seed\": 2, ",
        "duplicate key \"seed\"",
    );
    rejects(
        "{\"kind\": \"none\"}",
        "{\"kind\": \"none\", \"node\": 3}",
        "\"node\"",
    );
    rejects(
        "\"per_node\": 1}",
        "\"per_node\": 1, \"cycles\": 9}",
        "\"cycles\"",
    );
    rejects(
        "{\"kind\": \"shuffle-exchange-paper\", \"dims\": 4}",
        "{\"kind\": \"mesh-fa\", \"dims\": 3}",
        "scheme \"mesh-fa\" does not take \"dims\"",
    );
    rejects(
        "{\"kind\": \"shuffle-exchange-paper\", \"dims\": 4}",
        "{\"kind\": \"hypercube-fa\"}",
        "scheme \"hypercube-fa\" missing \"dims\"",
    );
    // Sizes outside the registry's bounds are rejected when read, not
    // replayed into a topology assertion.
    rejects(
        "\"dims\": 4",
        "\"dims\": 1",
        "Dims(1) is out of bounds (2..=30)",
    );
    rejects(
        "\"dims\": 4",
        "\"dims\": 31",
        "Dims(31) is out of bounds (2..=30)",
    );
    rejects(
        "{\"kind\": \"shuffle-exchange-paper\", \"dims\": 4}",
        "{\"kind\": \"torus\", \"width\": 2, \"height\": 3}",
        "torus: Sides { width: 2, height: 3 } is out of bounds (each >= 3)",
    );
}

/// Two whole campaigns from the same seed agree case-for-case; this is
/// what makes a `fuzz --seed N --cases M` failure line a complete repro
/// recipe.
#[test]
fn campaign_is_deterministic() {
    let cfg = FuzzConfig {
        seed: 0xD5,
        cases: 40,
        out_dir: None,
        verbose: false,
    };
    let a = fuzz(&cfg);
    let b = fuzz(&cfg);
    assert_eq!(a.ran, b.ran);
    assert_eq!(a.failures.len(), b.failures.len());
    for (fa, fb) in a.failures.iter().zip(&b.failures) {
        assert_eq!(fa.index, fb.index);
        assert_eq!(fa.shrunk, fb.shrunk);
    }
}
