package store

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
	"minimaxdp/internal/release"
	"minimaxdp/internal/sample"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTemp(t)
	payload := []byte("mechanism 2\n1/2 1/4 1/4\n1/4 1/2 1/4\n1/4 1/4 1/2\n")
	if err := s.Put("mechanisms", "n=2|a=1/2", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("mechanisms", "n=2|a=1/2")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Same class, different key: miss, not the other entry.
	if _, ok := s.Get("mechanisms", "n=2|a=1/3"); ok {
		t.Error("phantom hit on different key")
	}
	// Same key, different class: also a miss.
	if _, ok := s.Get("transitions", "n=2|a=1/2"); ok {
		t.Error("phantom hit on different class")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutOverwrite(t *testing.T) {
	s := openTemp(t)
	for _, payload := range []string{"first", "second"} {
		if err := s.Put("plans", "k", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get("plans", "k")
	if !ok || string(got) != "second" {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
}

func TestClassValidation(t *testing.T) {
	s := openTemp(t)
	for _, bad := range []string{"", "Upper", "has space", "dot.dot", "quarantine", "a/b", "../x"} {
		if err := s.Put(bad, "k", []byte("p")); err == nil {
			t.Errorf("Put accepted class %q", bad)
		}
		if _, ok := s.Get(bad, "k"); ok {
			t.Errorf("Get hit on class %q", bad)
		}
	}
}

// entryFile finds the single on-disk entry for (class, key).
func entryFile(t *testing.T, s *Store, class, key string) string {
	t.Helper()
	_, path := s.entryPath(class, key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not on disk: %v", err)
	}
	return path
}

func TestCorruptEntryQuarantined(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("mechanisms", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "mechanisms", "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // break the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("mechanisms", "k"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still at its address")
	}
	q, err := filepath.Glob(filepath.Join(s.Root(), "quarantine", "*.corrupt"))
	if err != nil || len(q) != 1 {
		t.Errorf("quarantine contents = %v, %v", q, err)
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d", st.Corrupt)
	}
	// The store self-heals: a fresh Put re-creates the entry.
	if err := s.Put("mechanisms", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("mechanisms", "k"); !ok || string(got) != "payload" {
		t.Fatalf("repaired entry = %q, %v", got, ok)
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("plans", "k", []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "plans", "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("plans", "k"); ok {
		t.Fatal("truncated entry served")
	}
}

func TestVersionMismatchIsMiss(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("tailored", "k", []byte("p")); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s, "tailored", "k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version is the u16 right after the 4-byte magic.
	data[4], data[5] = 0xff, 0xfe
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("tailored", "k"); ok {
		t.Fatal("future-version entry served")
	}
	// A stale entry is a plain miss, not corruption: it stays in place,
	// uncounted and unquarantined, until the write-back overwrites it.
	if st := s.Stats(); st.Corrupt != 0 || st.Misses != 1 {
		t.Errorf("stats after version miss = %+v, want Corrupt 0, Misses 1", st)
	}
	if q, _ := filepath.Glob(filepath.Join(s.Root(), "quarantine", "*")); len(q) != 0 {
		t.Errorf("version-mismatched entry quarantined: %v", q)
	}
	if err := s.Put("tailored", "k", []byte("p2")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("tailored", "k"); !ok || string(got) != "p2" {
		t.Fatalf("after write-back Get = %q, %v; want \"p2\", true", got, ok)
	}
}

// TestMovedEntryRejected pins the identity check: a byte-valid
// envelope copied to another key's address must not be served as that
// key (this is what makes the content addressing trustworthy).
func TestMovedEntryRejected(t *testing.T) {
	s := openTemp(t)
	if err := s.Put("mechanisms", "n=4|a=1/2", []byte("mech for 1/2")); err != nil {
		t.Fatal(err)
	}
	src := entryFile(t, s, "mechanisms", "n=4|a=1/2")
	dir, dst := s.entryPath("mechanisms", "n=4|a=1/3")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("mechanisms", "n=4|a=1/3"); ok {
		t.Fatal("entry served under the wrong key")
	}
	// The original is untouched and still valid.
	if got, ok := s.Get("mechanisms", "n=4|a=1/2"); !ok || string(got) != "mech for 1/2" {
		t.Fatalf("original entry = %q, %v", got, ok)
	}
}

// --- codec round trips ----------------------------------------------------
//
// The acceptance criterion is byte-level determinism on rationals:
// decode(encode(x)) must equal x exactly AND re-encoding the decoded
// value must reproduce the identical bytes (so content addresses and
// checksums are stable across boots).

func TestMechanismCodecRoundTrip(t *testing.T) {
	g, err := mechanism.Geometric(6, rational.MustParse("1/3"))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeMechanism(g)
	dec, err := DecodeMechanism(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(g) {
		t.Fatal("decoded mechanism differs")
	}
	if !bytes.Equal(EncodeMechanism(dec), enc) {
		t.Fatal("re-encode not byte-identical")
	}
	// Validation runs on decode: a non-stochastic payload is rejected.
	if _, err := DecodeMechanism([]byte("mechanism 1\n1/2 1/3\n1/2 1/2\n")); err == nil {
		t.Error("non-stochastic mechanism accepted")
	}
}

func TestTailoredCodecRoundTrip(t *testing.T) {
	tl, err := consumer.OptimalMechanism(&consumer.Consumer{Loss: lossAbs{}}, 3, rational.MustParse("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeTailored(tl)
	dec, err := DecodeTailored(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Loss.Cmp(tl.Loss) != 0 || !dec.Mechanism.Equal(tl.Mechanism) {
		t.Fatal("decoded tailored solution differs")
	}
	if !bytes.Equal(EncodeTailored(dec), enc) {
		t.Fatal("re-encode not byte-identical")
	}
	if _, err := DecodeTailored([]byte("tailored 0\nloss -1\n1\n")); err == nil {
		t.Error("negative loss accepted")
	}
}

// lossAbs is a local absolute loss so the test does not depend on
// internal/loss exporting one under a particular name.
type lossAbs struct{}

func (lossAbs) Name() string { return "absolute" }
func (lossAbs) Loss(i, r int) *big.Rat {
	d := i - r
	if d < 0 {
		d = -d
	}
	return big.NewRat(int64(d), 1)
}

func TestPlanCodecRoundTrip(t *testing.T) {
	alphas := []*big.Rat{rational.MustParse("1/4"), rational.MustParse("1/2"), rational.MustParse("3/4")}
	p, err := release.NewPlan(6, alphas)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != 6 || dec.Levels() != 3 {
		t.Fatalf("decoded plan geometry %d/%d", dec.N(), dec.Levels())
	}
	for lvl := 1; lvl <= 3; lvl++ {
		pa, err := p.Alpha(lvl)
		if err != nil {
			t.Fatal(err)
		}
		da, err := dec.Alpha(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Cmp(da) != 0 {
			t.Errorf("level %d alpha %s != %s", lvl, da.RatString(), pa.RatString())
		}
		pm, err := p.Marginal(lvl)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := dec.Marginal(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if !pm.Equal(dm) {
			t.Errorf("level %d marginal differs after round trip", lvl)
		}
	}
	for lvl := 1; lvl <= 2; lvl++ {
		pt, err := p.Transition(lvl)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := dec.Transition(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Equal(dt) {
			t.Errorf("level %d transition differs after round trip", lvl)
		}
	}
	reenc, err := EncodePlan(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, enc) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestAliasTablesCodecRoundTrip(t *testing.T) {
	g, err := mechanism.Geometric(5, rational.MustParse("1/2"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sample.AliasTables, g.Size())
	for i := range rows {
		d, err := sample.NewDyadicAlias(g.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = d.Tables()
	}
	enc, err := EncodeAliasTables(5, rows)
	if err != nil {
		t.Fatal(err)
	}
	n, decRows, err := DecodeAliasTables(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(decRows) != 6 {
		t.Fatalf("decoded n=%d rows=%d", n, len(decRows))
	}
	for i, r := range decRows {
		// Compiling the decoded tables must reproduce the exact same
		// sampler: same induced dyadic PMF as the original row.
		d, err := sample.DyadicAliasFromTables(r)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		orig, err := sample.NewDyadicAlias(g.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		op, dp := orig.InducedPMF(6), d.InducedPMF(6)
		for j := range op {
			if op[j].Cmp(dp[j]) != 0 {
				t.Fatalf("row %d outcome %d PMF %s != %s", i, j, dp[j].RatString(), op[j].RatString())
			}
		}
	}
	reenc, err := EncodeAliasTables(n, decRows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, enc) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestStoredArtifactFullCycle drives codec + envelope + disk together
// for a mechanism, as the engine does.
func TestStoredArtifactFullCycle(t *testing.T) {
	s := openTemp(t)
	g, err := mechanism.Geometric(8, rational.MustParse("2/5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("mechanisms", "n=8|a=2/5", EncodeMechanism(g)); err != nil {
		t.Fatal(err)
	}
	payload, ok := s.Get("mechanisms", "n=8|a=2/5")
	if !ok {
		t.Fatal("stored mechanism missing")
	}
	dec, err := DecodeMechanism(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(g) {
		t.Fatal("mechanism changed through the store")
	}
}

// testComparison is the scorecard the compare codec tests (and the
// decoder fuzzer's seed corpus) round-trip.
func testComparison() *baseline.Comparison {
	return &baseline.Comparison{
		N:            3,
		Alpha:        rational.MustParse("1/4"),
		Model:        "minimax",
		TailoredLoss: rational.MustParse("5/7"),
		Entries: []baseline.Entry{
			{
				Spec:            "geometric",
				Loss:            rational.MustParse("6/7"),
				InteractionLoss: rational.MustParse("5/7"),
				Gap:             rational.MustParse("0"),
				BestAlpha:       rational.MustParse("1/4"),
			},
			{
				Spec:            "staircase:3",
				Loss:            rational.MustParse("9/7"),
				InteractionLoss: rational.MustParse("6/7"),
				Gap:             rational.MustParse("1/7"),
				BestAlpha:       rational.MustParse("1/4"),
			},
		},
	}
}

func TestCompareCodecRoundTrip(t *testing.T) {
	c := testComparison()
	enc := EncodeCompare(c)
	dec, err := DecodeCompare(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N != c.N || dec.Model != c.Model || dec.Alpha.Cmp(c.Alpha) != 0 ||
		dec.TailoredLoss.Cmp(c.TailoredLoss) != 0 || len(dec.Entries) != len(c.Entries) {
		t.Fatalf("decoded comparison differs: %+v", dec)
	}
	for i := range c.Entries {
		if dec.Entries[i].Spec != c.Entries[i].Spec ||
			dec.Entries[i].Gap.Cmp(c.Entries[i].Gap) != 0 ||
			dec.Entries[i].BestAlpha.Cmp(c.Entries[i].BestAlpha) != 0 {
			t.Fatalf("entry %d differs: %+v", i, dec.Entries[i])
		}
	}
	if !bytes.Equal(EncodeCompare(dec), enc) {
		t.Fatal("re-encode not byte-identical")
	}
}

// A checksum-valid compare payload whose gap arithmetic does not hold
// must be rejected by the decoder, not served.
func TestCompareCodecRejectsInconsistentGap(t *testing.T) {
	bad := []byte("compare 3 minimax 1/4 1\n" +
		"tailored 5/7\n" +
		"entry geometric 6/7 5/7 1/100 1/4\n")
	if _, err := DecodeCompare(bad); err == nil {
		t.Fatal("inconsistent gap accepted")
	}
	unknown := []byte("compare 3 minimax 1/4 1\n" +
		"tailored 5/7\n" +
		"entry gauss 6/7 5/7 0 1/4\n")
	if _, err := DecodeCompare(unknown); err == nil {
		t.Fatal("unknown baseline spec accepted")
	}
	if _, err := DecodeCompare([]byte("compare 3 minimax 1/4 0\ntailored 5/7\n")); err == nil {
		t.Fatal("zero-entry comparison accepted")
	}
}
