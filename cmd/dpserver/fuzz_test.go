package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"minimaxdp/internal/tenant"
)

// FuzzParseLevels exercises the -levels flag parser: comma-split,
// rational.Parse per part, and the strictly-increasing-in-(0,1)
// validation. Invariants on accepted input: at least one level, every
// level strictly inside (0,1), strictly increasing, and the
// canonical re-rendering round-trips through the parser.
func FuzzParseLevels(f *testing.F) {
	for _, seed := range []string{
		"1/2,2/3,4/5", "1/2", "0.1,0.5,0.9", " 1/3 , 1/2 ", "2/4,3/4",
		"", ",", "1/2,", "2/3,1/2", "1/2,1/2", "0,1/2", "1,1/2",
		"-1/2", "3/2", "zzz", "1/0", "1e10,1/2", "0.9999999999,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		alphas, err := parseLevels(s)
		if err != nil {
			if alphas != nil {
				t.Fatalf("error %v with non-nil result", err)
			}
			return
		}
		if len(alphas) == 0 {
			t.Fatal("accepted input produced no levels")
		}
		parts := make([]string, len(alphas))
		for i, a := range alphas {
			if a.Sign() <= 0 || a.Num().Cmp(a.Denom()) >= 0 {
				t.Fatalf("level %d = %s outside (0,1)", i+1, a.RatString())
			}
			if i > 0 && a.Cmp(alphas[i-1]) <= 0 {
				t.Fatalf("levels not strictly increasing: %s then %s",
					alphas[i-1].RatString(), a.RatString())
			}
			parts[i] = a.RatString()
		}
		// Canonical form must round-trip to the same levels.
		again, err := parseLevels(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", strings.Join(parts, ","), err)
		}
		for i := range alphas {
			if again[i].Cmp(alphas[i]) != 0 {
				t.Fatalf("round-trip changed level %d: %s → %s",
					i+1, alphas[i].RatString(), again[i].RatString())
			}
		}
	})
}

// FuzzTenantSpec exercises the tenant-spec decoder shared by POST
// /v1/tenants and -tenants-config: strict JSON decoding, toConfig and
// tenant.New, with no plan build. Invariants on accepted input: the
// geometry is within the caps, the ladder is strictly increasing
// within (0,1), and the canonical re-encoding of the spec decodes to
// the same config.
func FuzzTenantSpec(f *testing.F) {
	for _, seed := range []string{
		`{"id":"acme","n":12,"truth":5,"levels":["1/4","1/2"],"loss":"squared","seed":7}`,
		`{"id":"m","n":10,"truth":4,"levels":["1/2","2/3"],"min_alpha":"1/8","seed":3}`,
		`{"id":"d","n":6,"truth":2,"levels":["0.25"],"loss":"deadband","width":2,"side":"1-4"}`,
		`{"id":"x","n":12,"truth":5,"levels":["1/2"],"min_alpa":"1/4"}`,
		`{"id":"x","n":129,"truth":5,"levels":["1/2"]}`,
		`{"id":"x","n":4,"truth":1,"levels":["1/10","2/10","3/10","4/10","5/10","6/10","7/10","8/10","9/10"]}`,
		`{"id":"x","n":12,"truth":5,"levels":["1/2","1/3"]}`,
		`{"id":"x","n":12,"truth":5,"levels":["1e-9999"]}`,
		`{"id":"x","n":8,"truth":5,"levels":["1/2"],"side":"3-2000000000"}`,
		`{"id":"x","n":8,"truth":5,"levels":["1/2"]} {}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp tenantSpec
		if decodeStrict(bytes.NewReader(data), &sp) != nil {
			return
		}
		cfg, err := sp.toConfig()
		if err != nil {
			return
		}
		if _, err := tenant.New(cfg); err != nil {
			return
		}
		if cfg.N > maxTenantN || len(cfg.Alphas) > maxTenantLevels {
			t.Fatalf("accepted n=%d with %d levels, over the caps (%d, %d)",
				cfg.N, len(cfg.Alphas), maxTenantN, maxTenantLevels)
		}
		for i, a := range cfg.Alphas {
			if a.Sign() <= 0 || a.Num().Cmp(a.Denom()) >= 0 {
				t.Fatalf("level %d = %s outside (0,1)", i+1, a.RatString())
			}
			if i > 0 && a.Cmp(cfg.Alphas[i-1]) <= 0 {
				t.Fatalf("levels not strictly increasing: %s then %s",
					cfg.Alphas[i-1].RatString(), a.RatString())
			}
		}
		canon := tenantSpec{
			ID: cfg.ID, N: cfg.N, Truth: &cfg.Truth, Loss: cfg.Loss, Width: cfg.LossWidth, Seed: cfg.Seed,
		}
		for _, a := range cfg.Alphas {
			canon.Levels = append(canon.Levels, a.RatString())
		}
		if len(cfg.Side) > 0 {
			canon.Side = fmt.Sprintf("%d-%d", cfg.Side[0], cfg.Side[len(cfg.Side)-1])
		}
		if cfg.MinAlpha != nil {
			canon.MinAlpha = cfg.MinAlpha.RatString()
		}
		enc, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		var again tenantSpec
		if err := decodeStrict(bytes.NewReader(enc), &again); err != nil {
			t.Fatalf("canonical form %s rejected: %v", enc, err)
		}
		cfg2, err := again.toConfig()
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", enc, err)
		}
		if !sameTenantConfig(cfg, cfg2) {
			t.Fatalf("round-trip through %s changed the config:\n%+v\n%+v", enc, cfg, cfg2)
		}
	})
}

// sameTenantConfig compares configs by value, rationals exactly.
func sameTenantConfig(a, b tenant.Config) bool {
	if a.ID != b.ID || a.N != b.N || a.Truth != b.Truth || a.Loss != b.Loss ||
		a.LossWidth != b.LossWidth || a.Seed != b.Seed ||
		fmt.Sprint(a.Side) != fmt.Sprint(b.Side) || len(a.Alphas) != len(b.Alphas) ||
		(a.MinAlpha == nil) != (b.MinAlpha == nil) {
		return false
	}
	for i := range a.Alphas {
		if a.Alphas[i].Cmp(b.Alphas[i]) != 0 {
			return false
		}
	}
	return a.MinAlpha == nil || a.MinAlpha.Cmp(b.MinAlpha) == 0
}
