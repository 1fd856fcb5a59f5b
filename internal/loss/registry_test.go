package loss

import (
	"reflect"
	"strings"
	"testing"
)

// Change detector: the wire-facing loss vocabulary. Renaming or
// dropping a name breaks deployed clients of the GET query routes and
// the POST /v1/compare body codec alike — this test makes that an
// explicit decision.
func TestRegistryWireNames(t *testing.T) {
	wantCanonical := []string{"absolute", "squared", "zero-one", "deadband"}
	if got := Names(); !reflect.DeepEqual(got, wantCanonical) {
		t.Fatalf("canonical names = %v, want %v", got, wantCanonical)
	}
	wantWire := []string{"", "01", "abs", "absolute", "deadband", "sq", "squared", "zero-one", "zeroone"}
	if got := sortedWireNames(); !reflect.DeepEqual(got, wantWire) {
		t.Fatalf("wire names = %v, want %v", got, wantWire)
	}
}

func TestRegistryNoDuplicateWireNames(t *testing.T) {
	seen := make(map[string]string)
	for _, e := range registry {
		for _, name := range append([]string{e.canonical}, e.aliases...) {
			if prev, dup := seen[name]; dup {
				t.Fatalf("wire name %q claimed by both %q and %q", name, prev, e.canonical)
			}
			seen[name] = e.canonical
		}
	}
}

// parseSpecCases are the (name, width) pairs TestParseSpec resolves;
// FuzzLossParseSpec seeds from them.
var parseSpecCases = []struct {
	name, width string
	wantName    string
}{
	{"", "", "absolute"},
	{"abs", "", "absolute"},
	{"absolute", "", "absolute"},
	{"sq", "", "squared"},
	{"squared", "", "squared"},
	{"zeroone", "", "zero-one"},
	{"01", "", "zero-one"},
	{"zero-one", "", "zero-one"},
	{"deadband", "", "deadband(1)"},
	{"deadband", "3", "deadband(3)"},
	{"deadband", "0", "deadband(0)"},
}

func TestParseSpec(t *testing.T) {
	for _, c := range parseSpecCases {
		fn, err := ParseSpec(c.name, c.width)
		if err != nil {
			t.Fatalf("ParseSpec(%q, %q): %v", c.name, c.width, err)
		}
		if fn.Name() != c.wantName {
			t.Fatalf("ParseSpec(%q, %q).Name() = %q, want %q", c.name, c.width, fn.Name(), c.wantName)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	// Unknown names report the canonical list so serving layers can
	// quote it in invalid_argument envelopes.
	_, err := ParseSpec("huber", "")
	if err == nil {
		t.Fatal("unknown loss accepted")
	}
	for _, want := range Names() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list canonical name %q", err, want)
		}
	}
	// Width on width-less families is a spec typo, not a no-op.
	for _, name := range []string{"absolute", "squared", "zero-one", "abs", "01"} {
		if _, err := ParseSpec(name, "2"); err == nil {
			t.Fatalf("ParseSpec(%q, \"2\") unexpectedly succeeded", name)
		}
	}
	// Bad deadband widths refuse.
	for _, w := range []string{"x", "-1", "1.5", ""} {
		if w == "" {
			continue
		}
		if _, err := ParseSpec("deadband", w); err == nil {
			t.Fatalf("ParseSpec(deadband, %q) unexpectedly succeeded", w)
		}
	}
}

// FuzzLossParseSpec checks that ParseSpec, which reads the loss of
// every query route and compare body, never panics, and that it
// accepts a name exactly when CanonicalName does, apart from width
// errors: a known name always parses with the default width, and an
// alias builds the same function as its canonical name.
func FuzzLossParseSpec(f *testing.F) {
	for _, c := range parseSpecCases {
		f.Add(c.name, c.width)
	}
	for _, seed := range [][2]string{{"huber", ""}, {"absolute", "2"}, {"01", "2"}, {"deadband", "x"}, {"deadband", "-1"}, {"deadband", "1.5"}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, name, width string) {
		fn, err := ParseSpec(name, width)
		canon, cerr := CanonicalName(name)
		if cerr != nil {
			if err == nil {
				t.Fatalf("ParseSpec(%q, %q) accepted a name CanonicalName rejects", name, width)
			}
			return
		}
		if _, derr := ParseSpec(name, ""); derr != nil {
			t.Fatalf("ParseSpec(%q, \"\") rejected a known name: %v", name, derr)
		}
		if err != nil {
			return // a width error
		}
		want, err := ParseSpec(canon, width)
		if err != nil {
			t.Fatalf("ParseSpec(%q, %q) accepted, but canonical %q rejected: %v", name, width, canon, err)
		}
		if fn.Name() != want.Name() {
			t.Fatalf("ParseSpec(%q, %q) = %s, canonical %q gives %s", name, width, fn.Name(), canon, want.Name())
		}
	})
}

func TestCanonicalName(t *testing.T) {
	for alias, want := range map[string]string{
		"":         "absolute",
		"abs":      "absolute",
		"sq":       "squared",
		"01":       "zero-one",
		"zeroone":  "zero-one",
		"deadband": "deadband",
	} {
		got, err := CanonicalName(alias)
		if err != nil {
			t.Fatalf("CanonicalName(%q): %v", alias, err)
		}
		if got != want {
			t.Fatalf("CanonicalName(%q) = %q, want %q", alias, got, want)
		}
	}
	if _, err := CanonicalName("huber"); err == nil {
		t.Fatal("unknown name accepted")
	}
}
